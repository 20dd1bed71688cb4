"""qvar benchmark.

usage: python3 bench/run.py --workload {solve,studies,certify-fine}
                            --seed N --seconds S --trace {0,1}

Run from the root of a qvar checkout; qvar is imported from its `src`.  One
process runs one workload as a closed loop: a single caller issues the
workload's operations back to back, and repeats whole passes over them until
S seconds have passed.  Every output is checked by the independent checker.

--trace 0 prints the end-to-end metrics (setup_s, wall_s, cmd_p50_s,
peak_rss_mb).  --trace 1 alternates untraced and traced passes and prints
the per-layer metrics of the traced passes, with the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up is timed in this many fresh processes; the median is reported
SETUP_PROBES = 7
# One BLAS thread, set before numpy loads and inherited by the set-up probes:
# with two threads on a shared 2-vCPU machine the dense eigh of a certificate
# swung fourfold between passes (0.05-0.22 s at n=256).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """Median time from starting a fresh interpreter until qvar is imported
    and the workload's configs are written."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{k}")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), probe_dir],
            stdout=subprocess.PIPE, text=True,
        )
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(elapsed)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def _run_pass(ops, failures: dict) -> tuple[list[float], int]:
    """One pass over the operations; returns the time of each call and the
    number of operations that failed.  failures maps each failing operation
    to its message and whether a known qvar fault predicts it (KnownFault).
    Only the message is kept: a stored exception would keep its frames, and
    the checker's arrays in them, alive and inflate peak_rss_mb."""
    times, failed = [], 0
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing call is counted, the loop goes on
            error = exc
        else:
            error = None
        times.append(time.perf_counter() - start)
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # a malformed output fails its operation
                error = exc
        if error is not None:
            failures.setdefault(op.name, (f"{type(error).__name__}: {error}",
                                          isinstance(error, workloads.KnownFault)))
            failed += 1
    return times, failed


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qvar", "__init__.py")):
        print(f"bench: no qvar sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clidir = os.path.join(workdir, "cli")

    setup_s = _setup_seconds(args.workload, args.seed, workdir)
    sys.path.insert(0, SRC)
    ops = workloads.build(args.workload, args.seed, clidir)
    qvar_file = os.path.abspath(sys.modules["qvar"].__file__)
    if not qvar_file.startswith(SRC + os.sep):
        print(f"bench: imported qvar from {qvar_file}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    failures: dict[str, tuple[str, bool]] = {}
    plain, traced = [], []  # per pass: list of call times
    traced_spans = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                times, n_failed = _run_pass(ops, failures)
            finally:
                tracer.uninstall()
            traced.append(times)
            traced_spans.append(tracer.take())
        else:
            times, n_failed = _run_pass(ops, failures)
            plain.append(times)
        attempted += len(ops)
        failed += n_failed
        if time.perf_counter() - start >= args.seconds and (tracer is None or traced):
            break

    unexpected = [name for name, (_, known) in failures.items() if not known]
    op_medians = [statistics.median(times[k] for times in plain) for k in range(len(ops))]
    for op, median in zip(ops, op_medians):
        print(f"bench: {op.name} {median:.4f} s", file=sys.stderr)
    for name, (message, _) in failures.items():
        print(f"bench: {name} failed: {message}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(sum(t) for t in plain), "s"),
            "cmd_p50_s": (statistics.median_high(op_medians), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = _layer_metrics(ops, plain, traced, traced_spans)
        tracing.dump(os.path.join(workdir, "spans.jsonl"), traced_spans)
    shutil.rmtree(clidir, ignore_errors=True)

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, operations=[op.name for op in ops], pass_times=plain), fh, indent=1)
    print(json.dumps(result))
    return 0


def _layer_metrics(ops, plain, traced, traced_spans) -> dict:
    per_pass = [tracing.metrics(spans) for spans in traced_spans]
    out = {name: (statistics.median(m[name][0] for m in per_pass), unit)
           for name, (_, unit) in per_pass[0].items()}
    # pool speed-up from the untraced passes: --jobs 1 time over --jobs 2 time
    index = {op.pool: k for k, op in enumerate(ops) if op.pool}
    speedup = (statistics.median(t[index["jobs1"]] / t[index["jobs2"]] for t in plain)
               if index else 0.0)
    out["studies.pool_speedup"] = (speedup, "ratio")
    overhead = statistics.median(sum(t) for t in traced) - statistics.median(sum(t) for t in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
