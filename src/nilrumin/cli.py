"""Command line entry point: one subcommand per subsystem.

Exit codes: 0 on success, 1 on validation errors (the module's named error is
printed), 2 on malformed input files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys

from . import __version__
from .errors import OutOfRange, ParseError, ValidationError
from . import fd_torsion, nilgroup, purity_sieve, rumin_flat
from .ce_cohomology import betti_and_weights, random_graded_inner_product
from .io_formats import (
    load_algebra,
    load_complex,
    load_generators,
    load_metric,
    parse_group_element,
    parse_rational,
    rat_str,
    render_report,
    report_document,
)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="nilrumin")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="Betti numbers, weights, purity of an algebra")
    p.add_argument("--preset")
    p.add_argument("--algebra")
    p.add_argument("--metric", default="identity")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("sieve", help="purity sieve over grading dimensions")
    p.add_argument("--shape", help="ranges like n1:0..100,n2:0..5,...")
    p.add_argument("--family", choices=sorted(purity_sieve.FAMILY_SHAPES))
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--vector", help="single dimension vector n1,n2,...")
    p.add_argument("--emit-p", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "text", "csv"), default="csv")

    p = sub.add_parser("rumin", help="flat-model Rumin complex")
    p.add_argument("--preset")
    p.add_argument("--algebra")
    p.add_argument("--metric", default="identity")
    p.add_argument("--check", action="store_true", help="run all symbolic identities")
    p.add_argument("--seed", type=int, default=0, help="seed for the metric-independence check")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("torsion", help="analytic torsion of a finite complex")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda", dest="cutoff", default="0")
    p.add_argument("--N", dest="n_labels", help="comma-separated integers")
    p.add_argument("--a", dest="exponents", help="comma-separated positive integers")
    p.add_argument("--check-invariance", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("nilgroup", help="exact (2,3,5) group arithmetic")
    gsub = p.add_subparsers(dest="group_command", required=True)
    g = gsub.add_parser("mul")
    g.add_argument("x")
    g.add_argument("y")
    g = gsub.add_parser("comm")
    g.add_argument("x")
    g.add_argument("y")
    g = gsub.add_parser("pow")
    g.add_argument("k", type=int)
    g.add_argument("l", type=int)
    g = gsub.add_parser("in-gamma0")
    g.add_argument("x")
    g = gsub.add_parser("embed")
    g.add_argument("generators")
    g = gsub.add_parser("char-orbit")
    g.add_argument("s")
    g.add_argument("t")
    g.add_argument("--words", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    return parser


def run(argv):
    """Execute one invocation; returns (exit code, output text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "cohomology": _run_cohomology,
            "sieve": _run_sieve,
            "rumin": _run_rumin,
            "torsion": _run_torsion,
            "nilgroup": _run_nilgroup,
        }[args.command]
        return handler(args)
    except SystemExit as exc:  # argparse usage errors, unknown subcommands
        return (exc.code if isinstance(exc.code, int) else 2), ""
    except ParseError as exc:
        return 2, f"error: {type(exc).__name__}: {exc}\n"
    except ValidationError as exc:
        return 1, f"error: {type(exc).__name__}: {exc}\n"


def main():
    code, output = run(sys.argv[1:])
    sys.stdout.write(output)
    return code


def _algebra_from_args(args):
    if args.algebra:
        return load_algebra(args.algebra)
    if args.preset:
        return load_algebra(args.preset)
    raise ParseError("need --preset or --algebra")


def _run_cohomology(args):
    alg, digest = _algebra_from_args(args)
    inner, mdigest = load_metric(alg, args.metric)
    coh = betti_and_weights(alg, inner)
    results = {
        "betti": list(coh.betti),
        "weights": [list(w) for w in coh.weights],
        "pure": coh.pure,
        "p": list(coh.p) if coh.p else None,
        "k": list(coh.k) if coh.k else None,
        "homogeneous_dimension": coh.homogeneous_dimension,
    }
    doc = report_document("cohomology", digest + ":" + mdigest[:8], results)
    return 0, render_report(doc, args.format)


def _ints(parts, flag):
    """Integers from strings; ParseError naming the flag otherwise."""
    try:
        return [int(x) for x in parts]
    except ValueError as exc:
        raise ParseError(f"bad integer in {flag}: {exc}") from exc


def _parse_shape(text):
    ranges = []
    for part in text.split(","):
        part = part.strip()
        if ":" not in part:
            raise ParseError(f"bad shape component {part!r}; use nK:lo..hi")
        _, span = part.split(":", 1)
        lo, _, hi = span.partition("..")
        ranges.append(tuple(_ints((lo, hi or lo), "--shape")))
    return ranges


def _sieve_rows(args):
    if args.vector:
        dv = purity_sieve.DimensionVector(_ints(args.vector.split(","), "--vector"))
        return [_report_row(purity_sieve.lemma2_check(dv), args.emit_p)]
    if args.family:
        tail = purity_sieve.FAMILY_SHAPES[args.family]
        n_tail = sum(p * x for p, x in enumerate(tail, start=2))
        n_min = args.n_min if args.n_min is not None else n_tail
        if args.n_max is None:
            raise ParseError("--family needs --n-max")
        if args.n_max > purity_sieve.FAMILY_N_MAX:
            raise OutOfRange(f"--n-max {args.n_max} is above FAMILY_N_MAX = "
                             f"{purity_sieve.FAMILY_N_MAX}")
        vectors = (purity_sieve.family_vector(args.family, n)
                   for n in range(max(n_min, n_tail), args.n_max + 1))
        return [_roots_row(dv, purity_sieve.integral_roots(dv)) for dv in vectors]
    if args.shape:
        ranges = _parse_shape(args.shape)
        if args.emit_p:
            # every row is expanded: bound the largest n of the shape up front
            purity_sieve.check_report_degree(
                sum(p * hi for p, (_, hi) in enumerate(ranges, start=1)))
        passing = purity_sieve.sieve_range(ranges, jobs=args.jobs)
        if args.emit_p:
            return [_report_row(purity_sieve.lemma2_check(dv), True) for dv, _ in passing]
        return [_roots_row(dv, roots) for dv, roots in passing]
    raise ParseError("need --vector, --family or --shape")


def _roots_row(dv, roots):
    """A report row from the integral zeros of c alone, without expanding P."""
    return {
        "vector": list(dv.parts),
        "n": dv.n,
        "d": dv.d,
        "nonzero_count": dv.n + 1 - len(roots),
        "pass": len(roots) == dv.n - dv.d,
        "roots": roots,
    }


def _report_row(report, emit_p):
    row = {
        "vector": list(report.dv.parts),
        "n": report.dv.n,
        "d": report.dv.d,
        "nonzero_count": report.nonzero_count,
        "pass": report.passes,
        "roots": report.roots,
    }
    if emit_p:
        row["P"] = report.coefficients
    return row


def _run_sieve(args):
    if args.jobs < 1:
        raise OutOfRange(f"--jobs {args.jobs} must be at least 1")
    rows = _sieve_rows(args)
    spec = args.vector or args.family or args.shape or ""
    digest = hashlib.sha256(spec.encode()).hexdigest()
    if args.format == "csv":
        header = "vector;n;d;nonzero_count;pass;roots"
        lines = [header]
        for row in rows:
            roots = row["roots"]
            roots_txt = (" ".join(str(r) for r in roots)
                         if isinstance(roots, list) else str(roots))
            lines.append(";".join([
                " ".join(str(x) for x in row["vector"]),
                str(row["n"]), str(row["d"]), str(row["nonzero_count"]),
                str(row["pass"]).lower(), roots_txt,
            ]))
        return 0, "\n".join(lines) + "\n"
    doc = report_document("sieve", digest, {"rows": rows})
    return 0, render_report(doc, args.format)


def _run_rumin(args):
    alg, digest = _algebra_from_args(args)
    inner, mdigest = load_metric(alg, args.metric)
    rc = rumin_flat.rumin_D(alg, inner)
    if args.format == "json":
        records = {
            str(q): [
                {"row": r, "col": c, "monomial": list(exps), "coeff": rat_str(coeff)}
                for (r, c, exps, coeff) in rc.D[q].entry_records()
            ]
            for q in range(alg.dim)
        }
    else:
        records = {
            str(q): [
                f"({r},{c}) {_monomial_str(exps)} * {rat_str(coeff)}"
                for (r, c, exps, coeff) in rc.D[q].entry_records()
            ]
            for q in range(alg.dim)
        }
    results = {
        "orders": list(rc.orders),
        "k": list(rc.k),
        "p": list(rc.p),
        "betti": list(rc.cohomology.betti),
        "D": records,
    }
    code = 0
    if args.check:
        checks = _rumin_checks(rc, args.seed)
        results["checks"] = checks
        code = 0 if all(checks.values()) else 1
    doc = report_document("rumin", digest + ":" + mdigest[:8], results)
    return code, render_report(doc, args.format)


def _monomial_str(exps):
    factors = [f"X{i + 1}" + (f"^{e}" if e > 1 else "")
               for i, e in enumerate(exps) if e]
    return "·".join(factors) or "1"


def _rumin_checks(rc, seed):
    alg, d_ops, deltas = rc.algebra, rc.d_ops, rc.deltas
    checks = {}
    checks["d_squared_zero"] = all(
        (d_ops[q + 1] @ d_ops[q]).is_zero() for q in range(alg.dim - 1)
    )
    checks["delta_squared_zero"] = all(
        (deltas[q] @ deltas[q + 1]).is_zero() for q in range(1, alg.dim)
    )
    checks["gr_d_equals_ce"] = rumin_flat.gr_equals_ce(alg, d_ops)
    checks["D_squared_zero"] = all(
        (rc.D[q + 1] @ rc.D[q]).is_zero() for q in range(alg.dim - 1)
    )
    checks["orders_match_k"] = tuple(rc.orders) == tuple(rc.k)
    rng = random.Random(seed)
    metric_ok = True
    for _ in range(5):
        other = random_graded_inner_product(alg, rng)
        metric_ok = metric_ok and (
            rumin_flat.expressed_over(rumin_flat.rumin_D(alg, other), rc) == rc.D
        )
    checks["metric_independent"] = metric_ok
    duality = rumin_flat.star_duality_check(rc)
    checks["star_duality"] = duality["all_hold"]
    return checks


def _run_torsion(args):
    cx, reference, digest = load_complex(args.input)
    try:
        lam = float(args.cutoff)  # the one flag where a float is legitimate
    except ValueError as exc:
        raise ParseError(f"bad --lambda value {args.cutoff!r}") from exc
    n_labels = _ints(args.n_labels.split(","), "--N") if args.n_labels else None
    exponents = _ints(args.exponents.split(","), "--a") if args.exponents else None
    ref = {q: v for q, v in (reference or {}).items()}
    result = fd_torsion.torsion_norm(cx, ref, lam=lam, n_labels=n_labels, a=exponents)
    results = {
        "zeta_part": repr(result.zeta_part),
        "finite_part": repr(result.finite_part),
        "total": repr(result.total),
        "kappa": result.kappa,
        "lambda": result.cutoff,
    }
    if args.check_invariance:
        # at lambda = 0 with the default labels the report is the checks' base
        base = result if lam == 0 and n_labels is None else None
        results["checks"] = _torsion_checks(cx, ref, exponents, base)
    doc = report_document("torsion", digest, results)
    code = 0
    if args.check_invariance and not all(results["checks"].values()):
        code = 1
    return code, render_report(doc, args.format)


def _torsion_checks(cx, ref, exponents, base):
    tol = 1e-9
    a = exponents or fd_torsion.default_exponents(cx)
    if base is None:
        base = fd_torsion.torsion_norm(cx, ref, lam=0.0, a=a)
    checks = {}
    spectra = sorted(
        mu for q in cx.degrees for mu in fd_torsion.delta_spectrum(cx, q, a)
    )
    lams = [spectra[0] / 2, spectra[-1] * 2] if spectra else []
    vals = [fd_torsion.torsion_norm(cx, ref, lam=lam, a=a).total for lam in lams]
    checks["lambda_independent"] = all(
        abs(v - base.total) <= tol * max(1.0, abs(base.total)) for v in vals
    )
    n0 = fd_torsion.default_n_labels(cx)
    shifted = [x + 7 for x in n0]
    z1 = base.zeta_prime  # lambda = 0 and the default N, as n0
    z2 = fd_torsion.zeta_prime_zero(cx, 0.0, shifted, a)
    checks["n_shift_independent"] = abs(z1 - z2) <= tol * max(1.0, abs(z1))
    scaled = [3 * x for x in a]
    t2 = fd_torsion.torsion_norm(cx, ref, lam=0.0, a=scaled)
    checks["a_scaling_independent"] = (
        abs(t2.total - base.total) <= tol * max(1.0, abs(base.total))
    )
    checks["z2_form"] = fd_torsion.z2_check(cx, 0.0, None, a, tol)
    chi = cx.euler_characteristic()
    checks["euler_heat_trace"] = all(
        abs(fd_torsion.euler_heat_trace(cx, a, t) - chi) <= tol * max(1.0, abs(chi))
        for t in (0.1, 1.0, 10.0)
    )
    checks["spectrum_pairing"] = fd_torsion.spectrum_pairing_check(cx)
    exact = fd_torsion.zeta_prime_zero_exact(cx, None, a)
    checks["exact_oracle"] = abs(z1 - exact) <= tol * max(1.0, abs(exact))
    if cx.is_acyclic():
        checks["telescoping"] = fd_torsion.telescoping_check(cx, None, a)
        acyclic = fd_torsion.acyclic_torsion(cx)
        checks["acyclic_matches_norm"] = (
            abs(acyclic - base.total) <= tol * max(1.0, abs(acyclic))
        )
    dual = fd_torsion.dual_complex(cx)
    dref = fd_torsion.dual_reference(cx, ref)
    dt = fd_torsion.torsion_norm(dual, dref, lam=0.0, a=list(reversed(a)))
    checks["duality_inversion"] = abs(dt.total * base.total - 1.0) <= tol
    return checks


def _run_nilgroup(args):
    cmd = args.group_command
    digest = hashlib.sha256(cmd.encode()).hexdigest()
    if cmd == "mul":
        z = nilgroup.bch_multiply(parse_group_element(args.x), parse_group_element(args.y))
        return 0, _element_line(z)
    if cmd == "comm":
        z = nilgroup.commutator(parse_group_element(args.x), parse_group_element(args.y))
        return 0, _element_line(z)
    if cmd == "pow":
        return 0, _element_line(nilgroup.power_word(args.k, args.l))
    if cmd == "in-gamma0":
        member = nilgroup.in_gamma0(parse_group_element(args.x))
        return 0, ("true\n" if member else "false\n")
    if cmd == "embed":
        from .graded_lie import algebra_235

        gens, gdigest = load_generators(args.generators)
        result = nilgroup.embed_into_gamma0(algebra_235(), gens)
        results = {
            "k": result.k,
            "r": rat_str(result.r),
            "matrix": [[rat_str(x) for x in row] for row in result.phi.matrix],
            "images": [[rat_str(x) for x in g.coords] for g in result.images],
        }
        doc = report_document("nilgroup-embed", gdigest, results)
        return 0, render_report(doc, "json")
    if cmd == "char-orbit":
        p = nilgroup.CharacterPoint(parse_rational(args.s), parse_rational(args.t))
        rng = random.Random(args.seed)
        points = nilgroup.character_orbit(p, args.words, rng)
        lines = ["s;t"]
        lines.extend(f"{float(q.s)!r};{float(q.t)!r}" for q in points)
        return 0, "\n".join(lines) + "\n"
    raise ParseError(f"unknown nilgroup command {cmd!r}")


def _element_line(g):
    return ",".join(rat_str(x) for x in g.coords) + "\n"


if __name__ == "__main__":
    sys.exit(main())
