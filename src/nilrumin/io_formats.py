"""File formats and report serialization.

All input files are JSON; rationals are encoded as strings "p/q" or "p"
(plain integers are also accepted).  Indices in structure-constant files are
1-based.  Reports are deterministic: sorted keys, no timestamps, and a digest
of the exact input bytes (or preset name) they were produced from.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .errors import OutOfRange, ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
from .graded_lie import abelian, algebra_235, build_algebra, heisenberg
from .ce_cohomology import GradedInnerProduct, identity_metric
from .fd_torsion import FiniteComplex
from .nilgroup import GroupElement
from .rational import frac

SCHEMA_VERSION = "1"


def parse_rational(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL_RE.match(x.strip()):
        try:
            return frac(x.strip())
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"not a rational: {exc}") from exc
    raise ParseError(f"not a rational: {x!r} (use 'p/q' or 'p')")


def load_json(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data), hashlib.sha256(data).hexdigest()
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # a JSON number with more digits than int() converts
        raise ParseError(f"bad number in {path}: {exc}") from exc


def algebra_from_dict(doc):
    """Structure-constant document: fields dim, degrees, brackets."""
    try:
        dim = int(doc["dim"])
        degrees = [int(x) for x in doc["degrees"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad algebra header: {exc}") from exc
    if len(degrees) != dim:
        raise ParseError(f"dim = {dim} but {len(degrees)} degrees given")
    brackets = {}
    for rec in doc.get("brackets", []):
        try:
            i, j = int(rec["i"]) - 1, int(rec["j"]) - 1
            terms = {int(t["k"]) - 1: parse_rational(t["c"]) for t in rec["terms"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad bracket record {rec}: {exc}") from exc
        if i > j:
            i, j = j, i
            terms = {k: -c for k, c in terms.items()}
        brackets[(i, j)] = terms
    return build_algebra(degrees, brackets)


def algebra_preset(name):
    """Presets: 235, heisenberg<2n+1>, abelian:<m>[:<degree>]."""
    if name == "235":
        return algebra_235()
    if name.startswith("heisenberg"):
        total = _preset_int(name, name[len("heisenberg"):])
        if total < 3 or total % 2 == 0:
            raise ParseError(f"heisenberg preset needs odd dimension >= 3, got {total}")
        return heisenberg((total - 1) // 2)
    if name.startswith("abelian:"):
        m, sep, degree = name[len("abelian:"):].partition(":")
        return abelian(_preset_int(name, m), _preset_int(name, degree) if sep else -1)
    raise ParseError(f"unknown preset {name!r}")


def _preset_int(name, text):
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad preset {name!r}: {exc}") from exc


def load_algebra(path_or_preset):
    """Returns (algebra, digest); presets hash their name."""
    if path_or_preset.endswith(".json"):
        doc, digest = load_json(path_or_preset)
        return algebra_from_dict(doc), digest
    digest = hashlib.sha256(path_or_preset.encode()).hexdigest()
    return algebra_preset(path_or_preset), digest


def load_metric(alg, path):
    if path is None or path == "identity":
        return identity_metric(alg), hashlib.sha256(b"identity").hexdigest()
    doc, digest = load_json(path)
    try:
        gram = [[parse_rational(x) for x in row] for row in doc["gram"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad Gram file: {exc}") from exc
    return GradedInnerProduct(alg, gram), digest


def complex_from_dict(doc):
    """Finite complex document: min_degree, dims, differentials, grams?, k?,
    reference? (cocycle bases per degree, keys are the degree as string)."""
    try:
        min_degree = int(doc.get("min_degree", 0))
        dims = [int(x) for x in doc["dims"]]
        diffs = [[[parse_rational(x) for x in row] for row in mtx]
                 for mtx in doc["differentials"]]
        grams = None
        if doc.get("grams") is not None:
            grams = [[[parse_rational(x) for x in row] for row in g] for g in doc["grams"]]
        k = [int(x) for x in doc["k"]] if "k" in doc else None
        reference = None
        if "reference" in doc:
            reference = {
                int(q): [[parse_rational(x) for x in v] for v in vecs]
                for q, vecs in doc["reference"].items()
            }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex document: {exc}") from exc
    return FiniteComplex(min_degree, dims, diffs, grams, k), reference


def load_complex(path):
    doc, digest = load_json(path)
    cx, reference = complex_from_dict(doc)
    return cx, reference, digest


def load_generators(path):
    doc, digest = load_json(path)
    try:
        gens = [GroupElement([parse_rational(x) for x in v]) for v in doc["generators"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad generators file: {exc}") from exc
    return gens, digest


def parse_group_element(text):
    parts = text.split(",")
    if len(parts) != 5:
        raise ParseError(f"group element needs 5 comma-separated rationals: {text!r}")
    return GroupElement([parse_rational(p.strip()) for p in parts])


# -- serialization ----------------------------------------------------------------


def rat_str(x):
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # more digits than str() converts
        raise OutOfRange(f"an output rational is too long to print: {exc}") from exc


def encode(value):
    """Recursively encode Fractions as strings for JSON output."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def report_document(tool, digest, results):
    from . import __version__

    return {
        "tool": tool,
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "input_digest": digest,
        "results": encode(results),
    }


def render_report(doc, fmt):
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"# {doc['tool']} (schema {doc['schema_version']})",
             f"input: {doc['input_digest'][:16]}"]
    lines.extend(_render_lines(doc["results"], ""))
    return "\n".join(lines) + "\n"


def _render_lines(value, indent):
    if isinstance(value, dict):
        out = []
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub and not _is_flat(sub):
                out.append(f"{indent}{key}:")
                out.extend(_render_lines(sub, indent + "  "))
            else:
                out.append(f"{indent}{key}: {_flat(sub)}")
        return out
    return [f"{indent}{_flat(value)}"]


def _is_flat(value):
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    return False


def _flat(value):
    if isinstance(value, list):
        return "(" + ", ".join(str(x) for x in value) + ")"
    return str(value)
