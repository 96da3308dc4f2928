"""Span tracing of the package from outside, and the per-layer metrics.

``Tracer.install`` replaces every selected function of the package at each
module attribute that binds it (``rumin_flat.solve`` and ``rational.solve``
are separate bindings of one function) and selected methods on their class,
plus ``scipy.linalg.eigh``.  Each call records a span (name, binding, start,
end, parent, op id) in memory; ``restore`` puts the originals back.  A name
that a later version of the package no longer has is reported as absent and
its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict

MODULES = ("rational", "uea", "graded_lie", "ce_cohomology", "rumin_flat",
           "purity_sieve", "fd_torsion", "io_formats", "nilgroup", "cli")

# Private names that a per-layer metric needs; other private names are not
# wrapped.
PRIVATE = {"_solve_L_degree", "_has_kernel", "_scan_tail", "_exact_pass",
           "_rumin_checks", "_torsion_checks"}
METHODS = {"__init__", "__mul__", "__matmul__", "__rmatmul__"}

# Called once per matrix entry or UEA term: a span each would cost more than
# the work measured and hold millions of records, so these are only counted
# (their time stays in the caller's self time).
COUNT_ONLY = {
    "rational.frac", "rational.zeros", "rational.identity", "rational.transpose",
    "uea.UEA.element", "uea.UEA.zero", "uea.UEA.scalar", "uea.UEA.generator",
    "uea.UEA.monomial_order", "uea.UEAElement.__init__", "uea.UEAElement.__mul__",
    "uea.UEAElement.scale", "uea.UEAElement.is_zero", "uea.UEAElement.order",
    "uea.UEAElement.constant_term", "uea.same_algebra",
    "graded_lie.GradedLieAlgebra.bracket", "ce_cohomology.weight_of",
    "ce_cohomology.insert_sign", "ce_cohomology.merge_sign",
    "fd_torsion.FiniteComplex.dim", "fd_torsion.FiniteComplex.index",
    "fd_torsion.FiniteComplex.degree", "fd_torsion.FiniteComplex.order",
    "fd_torsion.FiniteComplex.gram", "fd_torsion.FiniteComplex.diff",
    "io_formats.parse_rational",
}

# Names the per-layer metrics are computed from.
REQUIRED = (
    "rational.mat_mul", "rational.row_echelon", "rational.solve", "rational.inverse",
    "rational.nullspace", "rational.det", "rational.charpoly", "rational.pseudo_det",
    "uea.UEAOperatorMatrix.__matmul__", "uea.UEAOperatorMatrix.__rmatmul__",
    "uea.UEAElement.__mul__", "rumin_flat._solve_L_degree", "rumin_flat._has_kernel",
    "rumin_flat.rumin_D", "ce_cohomology.betti_and_weights",
    "ce_cohomology.harmonic_projection", "ce_cohomology.adjoint_matrix",
    "ce_cohomology.GradedInnerProduct.lambda_gram", "ce_cohomology.ce_differential",
    "purity_sieve._scan_tail", "purity_sieve._exact_pass", "purity_sieve.lemma2_check",
    "fd_torsion.FiniteComplex.adjoint", "fd_torsion.FiniteComplex.spec_plus",
    "fd_torsion.FiniteComplex.__init__", "fd_torsion.eigh",
    "fd_torsion.zeta_prime_zero", "fd_torsion.zeta_prime_zero_exact",
    "fd_torsion.laplacians", "fd_torsion.torsion_norm",
    "io_formats.load_algebra", "io_formats.load_metric", "io_formats.load_complex",
    "io_formats.render_report", "cli.run", "cli._rumin_checks",
)

# (module, attribute, span name) for bindings outside the package.
EXTERNAL = (("scipy.linalg", "eigh", "fd_torsion.eigh"),)


def _selected(attr):
    return not attr.startswith("_") or attr in PRIVATE


def _shape(a):
    return len(a), (len(a[0]) if a else 0)


def _mat_mul_attrs(bound, result):
    a, b = bound["a"], bound["b"]
    return len(a) * len(b) * len(b[0]) if a and b else 0


def _tuple(value):
    return tuple(value) if isinstance(value, list) else value


# Span attributes recorded per call: name -> f(bound arguments, result).
ATTRS = {
    "rational.mat_mul": _mat_mul_attrs,
    "rational.row_echelon": lambda bound, result: _shape(bound["a"]),
    "rational.solve": lambda bound, result: _shape(bound["a"]),
    "rational.charpoly": lambda bound, result: len(bound["a"]),
    "rumin_flat._solve_L_degree": lambda bound, result: (
        bound["alg"].name, bound["q"], bound["extra"], result is None),
    "purity_sieve._scan_tail": lambda bound, result: len(result),
    "purity_sieve._exact_pass": lambda bound, result: bool(result),
    "fd_torsion.zeta_prime_zero": lambda bound, result: (
        id(bound["cx"]), bound.get("lam", 0.0), _tuple(bound.get("n_labels")),
        _tuple(bound.get("a")), list(bound["cx"].k), result),
    "fd_torsion.zeta_prime_zero_exact": lambda bound, result: (
        id(bound["cx"]), _tuple(bound.get("n_labels")), _tuple(bound.get("a")), result),
}


class Tracer:
    """Wraps the package's functions and records spans while installed."""

    def __init__(self):
        self.spans = []        # [name, binding, start, end, parent, op, outer, attrs]
        self.counts = defaultdict(int)
        self.op = None
        self.absent = []
        self.attr_errors = 0
        self._stack = []
        self._depth = defaultdict(int)
        self._originals = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, binding):
        tracer = self
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        attrs_of = ATTRS.get(name)
        signature = inspect.signature(fn) if attrs_of else None
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, binding, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    depth[name] == 0, None]
            spans.append(span)
            stack.append(idx)
            depth[name] += 1
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                depth[name] -= 1
                stack.pop()
            if attrs_of is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span[7] = attrs_of(bound, result)
                except (TypeError, KeyError, AttributeError, IndexError):
                    tracer.attr_errors += 1
            return result
        return traced

    def _replace(self, owner, attr, name, binding):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, binding))

    def install(self):
        """Wrap every selected function at each of its bindings."""
        seen = set()
        for short in MODULES:
            module = importlib.import_module(f"nilrumin.{short}")
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) \
                        and value.__module__.startswith("nilrumin.") and _selected(attr):
                    name = f"{value.__module__.split('.')[-1]}.{value.__qualname__}"
                    self._replace(module, attr, name, f"{short}.{attr}")
                    seen.add(name)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for mattr, method in list(vars(value).items()):
                        if isinstance(method, types.FunctionType) \
                                and (mattr in METHODS or not mattr.startswith("_")):
                            name = f"{short}.{value.__name__}.{mattr}"
                            self._replace(value, mattr, name, name)
                            seen.add(name)
        for modname, attr, name in EXTERNAL:
            module = importlib.import_module(modname)
            if hasattr(module, attr):
                self._replace(module, attr, name, f"{modname}.{attr}")
                seen.add(name)
        self.absent = [n for n in REQUIRED if n not in seen]

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reduction -------------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated lines: name, binding, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tbinding\tstart\tend\tparent\top\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]:.9f}\t{s[3]:.9f}\t{s[4]}\t{s[5]}\n")

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]


def layer_metrics(tracer, pass_wall_s):
    """Per-layer metrics of one traced pass, plus machine-independent sizes.

    Returns (metrics dict name -> number, machine-independent counters, the
    eight largest self times, the name with the largest self time in each op).  ``calls`` counts
    calls, ``self_s`` is span time minus child spans, ``s`` is inclusive time
    of outermost spans (no double count under recursion).
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    by_binding_s = defaultdict(float)
    for s, st in zip(spans, selfs):
        calls[s[0]] += 1
        self_s[s[0]] += st
        if s[6]:
            incl_s[s[0]] += s[3] - s[2]
        by_binding_s[s[1]] += s[3] - s[2]
    for name, n in tracer.counts.items():
        calls[name] += n

    m = {}

    def kernel(short, kinds):
        name = f"rational.{short}"
        for kind in kinds:
            m[f"{name}.{kind}"] = calls[name] if kind == "calls" else self_s[name]

    kernel("mat_mul", ("calls", "self_s"))
    m["rational.mat_mul.mults"] = sum(s[7] or 0 for s in spans if s[0] == "rational.mat_mul")
    kernel("row_echelon", ("calls", "self_s"))
    m["rational.row_echelon.cells"] = sum(
        s[7][0] * s[7][1] for s in spans if s[0] == "rational.row_echelon" and s[7])
    kernel("solve", ("calls", "self_s"))
    kernel("inverse", ("calls",))
    kernel("nullspace", ("calls", "self_s"))
    kernel("det", ("calls", "self_s"))
    kernel("charpoly", ("calls", "self_s"))
    m["rational.charpoly.n_max"] = max(
        (s[7] for s in spans if s[0] == "rational.charpoly" and s[7] is not None), default=0)

    opmat = ("uea.UEAOperatorMatrix.__matmul__", "uea.UEAOperatorMatrix.__rmatmul__")
    m["uea.opmatmul.calls"] = sum(calls[n] for n in opmat)
    m["uea.opmatmul.self_s"] = sum(self_s[n] for n in opmat)
    m["uea.elem_mul.calls"] = calls["uea.UEAElement.__mul__"]

    # L-solve: elimination and uniqueness are the solve and _has_kernel calls
    # made directly by _solve_L_degree; the harmonic projection it computes is
    # ce_cohomology work; everything else under it is assembly.
    lsolve = [i for i, s in enumerate(spans) if s[0] == "rumin_flat._solve_L_degree"]
    lset = set(lsolve)
    elim = unique = proj = 0.0
    sizes = []
    by_parent = {}
    for s in spans:
        if s[4] in lset:
            dur = s[3] - s[2]
            if s[0] == "rational.solve":
                elim += dur
                by_parent[s[4]] = s[7]
            elif s[0] == "rumin_flat._has_kernel":
                unique += dur
            elif s[0] == "ce_cohomology.harmonic_projection":
                proj += dur
    for i in lsolve:
        attrs = spans[i][7]
        shape = by_parent.get(i)
        if attrs is not None and shape is not None:
            sizes.append([attrs[0], attrs[1], attrs[2], shape[0], shape[1]])
    total = sum(spans[i][3] - spans[i][2] for i in lsolve)
    m["rumin_flat.lsolve.calls"] = len(lsolve)
    m["rumin_flat.lsolve.retries"] = sum(
        1 for i in lsolve if spans[i][7] is not None and spans[i][7][3])
    m["rumin_flat.lsolve.assembly_s"] = total - elim - unique - proj
    m["rumin_flat.lsolve.elim_s"] = elim
    m["rumin_flat.lsolve.unique_s"] = unique
    m["rumin_flat.lsolve.equations"] = sum(x[3] for x in sizes)
    m["rumin_flat.lsolve.unknowns"] = sum(x[4] for x in sizes)
    m["rumin_flat.lsolve.equations_max"] = max((x[3] for x in sizes), default=0)
    m["rumin_flat.lsolve.unknowns_max"] = max((x[4] for x in sizes), default=0)
    m["rumin_flat.rumin_D.calls"] = calls["rumin_flat.rumin_D"]
    m["rumin_flat.rumin_D.s"] = incl_s["rumin_flat.rumin_D"]

    for short in ("betti_and_weights", "harmonic_projection"):
        m[f"ce_cohomology.{short}.calls"] = calls[f"ce_cohomology.{short}"]
        m[f"ce_cohomology.{short}.s"] = incl_s[f"ce_cohomology.{short}"]
    m["ce_cohomology.adjoint_matrix.calls"] = calls["ce_cohomology.adjoint_matrix"]
    m["ce_cohomology.adjoint_matrix.self_s"] = self_s["ce_cohomology.adjoint_matrix"]
    lam = "ce_cohomology.GradedInnerProduct.lambda_gram"
    m["ce_cohomology.lambda_gram.calls"] = calls[lam]
    m["ce_cohomology.lambda_gram.self_s"] = self_s[lam]
    m["ce_cohomology.ce_differential.calls"] = calls["ce_cohomology.ce_differential"]

    candidates = sum(s[7] or 0 for s in spans if s[0] == "purity_sieve._scan_tail")
    confirmed = sum(1 for s in spans if s[0] == "purity_sieve._exact_pass" and s[7])
    m["purity_sieve.tails"] = calls["purity_sieve._scan_tail"]
    m["purity_sieve.screen_s"] = incl_s["purity_sieve._scan_tail"]
    m["purity_sieve.candidates"] = candidates
    m["purity_sieve.confirmed"] = confirmed
    m["purity_sieve.screen_precision"] = confirmed / candidates if candidates else 0.0
    m["purity_sieve.exact_s"] = incl_s["purity_sieve._exact_pass"]
    m["purity_sieve.report.calls"] = calls["purity_sieve.lemma2_check"]
    m["purity_sieve.report.s"] = incl_s["purity_sieve.lemma2_check"]

    m["fd_torsion.adjoint.calls"] = calls["fd_torsion.FiniteComplex.adjoint"]
    m["fd_torsion.adjoint.self_s"] = self_s["fd_torsion.FiniteComplex.adjoint"]
    m["fd_torsion.spec_plus.calls"] = calls["fd_torsion.FiniteComplex.spec_plus"]
    m["fd_torsion.eigh.s"] = incl_s["fd_torsion.eigh"]
    m["fd_torsion.exact_oracle.s"] = incl_s["fd_torsion.zeta_prime_zero_exact"]
    m["fd_torsion.pseudo_det.calls"] = calls["rational.pseudo_det"]
    for short in ("laplacians", "torsion_norm"):
        m[f"fd_torsion.{short}.calls"] = calls[f"fd_torsion.{short}"]
        m[f"fd_torsion.{short}.s"] = incl_s[f"fd_torsion.{short}"]
    m["fd_torsion.complex_init.s"] = incl_s["fd_torsion.FiniteComplex.__init__"]
    m["fd_torsion.max_rel_gap"] = _max_rel_gap(spans)

    m["io_formats.load.s"] = sum(by_binding_s[f"cli.{n}"] for n in
                                 ("load_algebra", "load_metric", "load_complex"))
    m["io_formats.render.s"] = by_binding_s["cli.render_report"]
    m["cli.run.calls"] = calls["cli.run"]
    m["cli.run.s"] = incl_s["cli.run"]
    m["cli.run.self_s"] = self_s["cli.run"]
    m["cli.rumin_checks.s"] = incl_s["cli._rumin_checks"]
    m["trace.unattributed_s"] = pass_wall_s - incl_s["cli.run"]
    m["trace.spans"] = len(spans)

    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    op_self = defaultdict(lambda: defaultdict(float))
    for s, st in zip(spans, selfs):
        op_self[s[5]][s[0]] += st
    top_by_op = [max(op_self[op].items(), key=lambda kv: kv[1])[0] for op in sorted(op_self)]
    counters = {
        "lsolve_sizes": sizes,
        "rational.mat_mul.mults": m["rational.mat_mul.mults"],
        "rational.row_echelon.cells": m["rational.row_echelon.cells"],
        "purity_sieve.tails": m["purity_sieve.tails"],
        "purity_sieve.candidates": candidates,
        "purity_sieve.confirmed": confirmed,
    }
    return m, counters, top, top_by_op


def _max_rel_gap(spans):
    """max |zeta' float - zeta' exact| / max(1, |exact|) over paired calls.

    A float value pairs with an exact one computed for the same complex and
    exponents, at cutoff 0 with the default N labels (omitted or passed).
    """
    exact = {}
    for s in spans:
        if s[0] == "fd_torsion.zeta_prime_zero_exact" and s[7]:
            cx_id, n_labels, a, value = s[7]
            if n_labels is None:
                exact[(s[5], cx_id, a)] = value
    gap = 0.0
    for s in spans:
        if s[0] == "fd_torsion.zeta_prime_zero" and s[7]:
            cx_id, lam, n_labels, a, k, value = s[7]
            default = tuple([0] + [sum(k[:i + 1]) for i in range(len(k))])
            key = (s[5], cx_id, a)
            if lam == 0 and n_labels in (None, default) and key in exact:
                ref = exact[key]
                gap = max(gap, abs(value - ref) / max(1.0, abs(ref)))
    return gap
