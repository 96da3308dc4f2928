"""The benchmark's own test.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

It shows that a corrupted golden or expected value raises the failure count,
that the tracer restores every original and reports a deleted name as
absent, that the speed probe samples once per interval, takes its own time
out of the pass and restores the signal handler and timer, and that the
machine-independent counters repeat exactly across two traced runs of every
workload (about three minutes in all).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import checks
import inputs
import speed
import tracing
import worker

ROOT = os.getcwd()


def scratch_dir():
    os.makedirs(worker.BUILD_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=worker.BUILD_DIR)


def test_corrupt_golden_fails_op():
    cli = worker.import_cli(ROOT)
    with scratch_dir() as tmp:
        ops, _ = inputs.build_workload("sieve", 1, tmp)
        golden = checks.load_golden()
        _, _, clean = worker.run_pass(cli, ops, checks.Checker(golden))
        assert clean == [], clean
        shape = inputs.SIEVE_SHAPES[2]
        golden["sieve"][shape] = "0" * 64
        _, latencies, failures = worker.run_pass(cli, ops, checks.Checker(golden))
    assert len(failures) == 1 and shape in failures[0], failures
    fail_ratio = len(failures) / len(latencies)
    assert fail_ratio > 0
    return f"corrupted sieve golden: fail_ratio {fail_ratio:.3f}"


def test_wrong_torsion_total_fails_op():
    cli = worker.import_cli(ROOT)
    with scratch_dir() as tmp:
        ops, _ = inputs.build_workload("torsion", 5, tmp)
        ops = ops[:6]
        checker = checks.Checker(checks.load_golden())
        _, _, clean = worker.run_pass(cli, ops, checker)
        assert clean == [], clean
        ops[3].expected *= 1 + 1e-6
        _, _, failures = worker.run_pass(cli, ops, checker)
    assert len(failures) == 1 and "expected" in failures[0], failures
    return "torsion total off by 1e-6 relative: 1 of 6 ops failed"


def test_tracer_restores_and_reports_absent():
    worker.import_cli(ROOT)
    from nilrumin import rational, rumin_flat

    originals = (rational.mat_mul, rumin_flat.solve, rumin_flat._has_kernel)
    saved = rumin_flat._has_kernel
    del rumin_flat._has_kernel
    try:
        with tracing.Tracer() as tracer:
            assert rational.mat_mul is not originals[0]
            assert rumin_flat.solve is not originals[1]
            rational.mat_mul([[1]], [[2]])
    finally:
        rumin_flat._has_kernel = saved
    assert (rational.mat_mul, rumin_flat.solve, rumin_flat._has_kernel) == originals
    assert tracer.absent == ["rumin_flat._has_kernel"], tracer.absent
    assert [s[0] for s in tracer.spans] == ["rational.mat_mul"], tracer.spans
    return "originals restored; deleted _has_kernel reported absent"


def test_speed_probe_samples_and_restores():
    cli = worker.import_cli(ROOT)
    with scratch_dir() as tmp:
        ops, _ = inputs.build_workload("sieve", 1, tmp)
        probe = speed.SpeedProbe()
        before = signal.getsignal(signal.SIGALRM)
        with probe:
            wall, latencies, failures = worker.run_pass(
                cli, ops[:1], checks.Checker(checks.load_golden()), probe=probe)
    assert failures == [], failures
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one kernel call per INTERVAL_S of pass time, give or take the last one
    assert abs(len(probe.samples) - wall / speed.INTERVAL_S) <= 0.2 * len(probe.samples) + 2, (
        len(probe.samples), wall)
    assert probe.spent >= sum(probe.samples) and latencies[0] <= wall
    return (f"{len(probe.samples)} kernel calls in a {wall:.2f} s op, "
            f"{probe.spent:.3f} s of handler time taken out; handler and timer restored")


def traced_counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
         "--workload", workload, "--seed", str(seed), "--mode", "traced",
         "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failures"] == [] and out["absent"] == [], out
    return out["counters"]


def test_counters_repeat():
    lines = []
    for workload in ("sieve", "cohomology", "torsion", "rumin"):
        first = traced_counters(workload, 3)
        assert first == traced_counters(workload, 3), workload
        lines.append(f"{workload}: " + ", ".join(
            f"{k}={v}" for k, v in first.items() if v and k != "lsolve_sizes"))
    assert first["lsolve_sizes"], "rumin recorded no L-solve sizes"
    return "counters repeat exactly; " + "; ".join(lines)


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            print(f"PASS {test.__name__}: {test()}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
