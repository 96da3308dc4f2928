"""nilrumin benchmark: four closed-loop CLI workloads, one client each.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rumin|cohomology|torsion|sieve \
        --seed N --seconds S --trace 0|1

Each pass of the workload runs in a fresh interpreter (``worker.py``), so
every pass starts cold, as a real ``nilrumin <cmd>`` run does, and reports
its own set-up time and peak RSS.  Passes repeat while the next one fits in
``--seconds`` (at least one).  With ``--trace 0`` the last line holds the
end-to-end metrics, pass and set-up times scaled to a fixed machine speed
by the kernel of ``speed.py``; with ``--trace 1`` untraced and traced passes
alternate and the last line holds the per-layer metrics of the traced
ones.  Earlier lines record the run: machine, versions, source digest,
input digest, raw times, failures and, when traced, the largest self times
and the L-solve sizes.

Exit status is 0 when a result was printed, 2 when the checkout has no
package source, 1 when a pass could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("rumin", "cohomology", "torsion", "sieve")
RUN_LIMIT_S = 170.0      # hard ceiling for one run, passes and set-up included
SETUP_SAMPLES = 3        # set-ups measured per untraced run, set-up-only processes included
PINNED_ENV = {           # one BLAS/OpenMP thread: measure the program, not the scheduler
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class PassError(RuntimeError):
    pass


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_unit(name):
    kind = name.rsplit(".", 1)[-1]
    if kind == "s" or kind.endswith("_s"):
        return "s"
    if kind in ("screen_precision", "max_rel_gap", "overhead_ratio"):
        return "ratio"
    return "count"


def source_digest(root):
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "nilrumin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit(root):
    """HEAD of a git checkout, read from the files; None elsewhere."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def spawn(root, workload, seed, mode, deadline):
    """Run one worker process to completion; returns (its result, elapsed s)."""
    env = dict(os.environ, **PINNED_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("run time limit reached")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
             "--mode", mode, "--spawned-at", repr(started)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass exceeded the run time limit") from exc
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), elapsed


def measure(root, workload, seed, seconds, traced):
    """Alternate pass kinds until the next would overrun ``seconds``."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + RUN_LIMIT_S
    kinds = ("plain", "traced") if traced else ("plain",)
    passes = {kind: [] for kind in kinds}
    elapsed = {kind: [] for kind in kinds}
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        if all(passes.values()):
            if time.monotonic() + statistics.median(elapsed[kind]) > deadline:
                break
        result, took = spawn(root, workload, seed, kind, hard_deadline)
        passes[kind].append(result)
        elapsed[kind].append(took)
        turn += 1
    setups = []
    if not traced:
        setups = list(passes["plain"])
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(root, workload, seed, "setup", hard_deadline)[0])
    return passes, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nilrumin", "cli.py")):
        print("error: run from the root of a nilrumin checkout (no src/nilrumin/cli.py)",
              file=sys.stderr)
        return 2
    try:
        passes, setups = measure(root, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = passes["plain"]
    traced = passes.get("traced", [])
    everything = plain + traced
    failures = [f for p in everything for f in p["failures"]]
    attempted = sum(p["attempted"] for p in everything)
    problems = []
    if len({p["input_sha256"] for p in everything}) != 1:
        problems.append("input digest differs between passes")
    if traced and any(p["counters"] != traced[0]["counters"] for p in traced):
        problems.append("machine-independent counters differ between traced passes")

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "versions": plain[0]["versions"],
        "source_sha256": source_digest(root), "commit": git_commit(root),
        "input_sha256": plain[0]["input_sha256"],
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "pass_wall_norm_s": [round(p["wall_norm_s"], 4) for p in plain],
        "pass_kernel_ms": [round(p["kernel_mean_s"] * 1000, 4) for p in plain],
        "setup_s": [round(s["setup_s"], 4) for s in setups],
        "setup_norm_s": [round(s["setup_norm_s"], 4) for s in setups],
        "fail_ratio": len(failures) / attempted,
    }
    print("run: " + json.dumps(info))
    for line in failures[:10] + problems:
        print(f"FAILED: {line}")

    if args.trace:
        metrics = {}
        for name in traced[0]["layer"]:
            metrics[name] = statistics.median(p["layer"][name] for p in traced)
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain))
        last = traced[-1]
        print("top self time: " + json.dumps([[n, round(s, 4)] for n, s in last["top_self"]]))
        by_op = last["top_self_by_op"]
        if len(by_op) > 12:
            by_op = {n: by_op.count(n) for n in sorted(set(by_op))}
        print("largest self time in each op: " + json.dumps(by_op))
        sizes = {}
        for row in last["counters"]["lsolve_sizes"]:
            sizes[tuple(row)] = sizes.get(tuple(row), 0) + 1
        print("lsolve sizes [preset, q, extra, equations, unknowns, calls]: "
              + json.dumps([list(k) + [n] for k, n in sorted(sizes.items())]))
        print(f"absent: {json.dumps(last['absent'])}; "
              f"calls whose size could not be read: {last['attr_errors']}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        latencies_ms = [x * 1000 for p in plain for x in p["latencies_s"]]
        metrics = {
            "wall_norm_s": statistics.median(p["wall_norm_s"] for p in plain),
            "setup_s": statistics.median(s["setup_norm_s"] for s in setups),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
        }
        print(f"samples: {len(plain)} passes, {len(setups)} set-ups, "
              f"{len(latencies_ms)} ops: op_p50_ms {percentile(latencies_ms, 0.5):.1f}, "
              f"op_p90_ms {percentile(latencies_ms, 0.9):.1f}")
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
