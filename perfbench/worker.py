"""One pass of one workload, in a fresh interpreter.

Run from the root of a source checkout:

    python3 perfbench/worker.py --workload W --seed N --mode plain|traced|setup \
        --spawned-at T

It imports the package from ``src/``, writes the seeded inputs under
``.bench_build/perfbench/``, runs every op of the workload once as one
closed-loop client calling ``nilrumin.cli.run(argv)`` in process, checks each
output, and prints one JSON line.  ``--spawned-at`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
spans interpreter start, imports and input generation.  ``--mode setup``
stops after the set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import checks
import inputs
import speed

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def import_cli(root):
    """Import ``nilrumin.cli`` from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from nilrumin import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"nilrumin imported from {cli.__file__}, not from {src}")
    return cli


def run_pass(cli, ops, checker, tracer=None, probe=None):
    """Run every op once; returns (pass wall s, per-op seconds, failure list).

    With a ``probe`` (``speed.SpeedProbe``) the time its handler spent is
    taken out of the pass and of the op it interrupted.
    """
    latencies, failures = [], []
    clock = time.perf_counter
    probed = (lambda: probe.spent) if probe is not None else (lambda: 0.0)
    start, p_start = clock(), probed()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0, p0 = clock(), probed()
        try:
            code, out = cli.run(op.argv)
        except Exception as exc:  # the op failed; count it and go on
            code, out = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0 - (probed() - p0))
        problem = checker.check(op, code, out)
        if problem:
            failures.append(f"{' '.join(op.argv[:3])} [{op.key}]: {problem}")
    return clock() - start - (probed() - p_start), latencies, failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli = import_cli(root)
    os.makedirs(BUILD_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD_DIR)
    try:
        ops, input_sha = inputs.build_workload(args.workload, args.seed, workdir)
        checker = checks.Checker(checks.load_golden())
        setup_s = time.monotonic() - args.spawned_at
        out = {"setup_s": setup_s, "input_sha256": input_sha, "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        }}
        if args.mode != "traced":
            out["setup_norm_s"] = speed.normalise(setup_s, speed.kernel_mean())
        if args.mode == "plain":
            probe = speed.SpeedProbe()
            with probe:
                wall, latencies, failures = run_pass(cli, ops, checker, probe=probe)
            out.update(wall_norm_s=probe.normalise(wall),
                       kernel_mean_s=statistics.fmean(probe.samples))
        elif args.mode == "traced":
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            with tracer:
                wall, latencies, failures = run_pass(cli, ops, checker, tracer)
            layer, counters, top, top_by_op = layer_metrics(tracer, wall)
            tracer.write(os.path.join(
                BUILD_DIR, f"spans-{args.workload}-seed{args.seed}.tsv"))
            out.update(layer=layer, counters=counters, top_self=top, top_self_by_op=top_by_op,
                       absent=tracer.absent, attr_errors=tracer.attr_errors)
        if args.mode != "setup":
            out.update(wall_s=wall, latencies_s=latencies, attempted=len(ops),
                       failures=failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
