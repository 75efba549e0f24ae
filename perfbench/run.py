"""Benchmark entry point.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ./src.
With --trace 0 it sets the workload up several times, sends requests
for --seconds (at least the workload's minimum count, and on to the end
of a block of its request mix) and prints the end-to-end metrics, rescaled to a reference host speed (see
calibration.py).  With --trace 1 it sets up and runs a fixed number of
requests twice, untraced and then traced, and prints the per-layer
metrics.  The last line of stdout is the JSON result; the full record
and the spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_KERNEL_RUNS = 3     # reference kernel runs before and after each set-up
REQUEST_KERNEL_RUNS = 3   # ... and before each request


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("serve", "collect", "train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal run sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_requests(session, errors, n_min, seconds, block=1, tracer=None, reference=None):
    """Closed loop: prepare, send and check requests until `n_min`
    requests are done, `seconds` have passed and the last block of
    `block` requests is complete, so every run holds the workload's
    request mix in whole blocks.  With a `reference`, its kernel runs
    before each request (untimed) and its times are returned."""
    replies, latencies, failures, kernel_runs = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < n_min or i % block or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.request = i
        try:
            req = session.prepare(i)
            if reference is not None:
                kernel_runs += [reference() for _ in range(REQUEST_KERNEL_RUNS)]
            t0 = time.perf_counter()
            reply = session.run(req)
            latencies.append(time.perf_counter() - t0)
        except errors as err:
            failures.append(f"request {i}: {type(err).__name__}: {err}")
            replies.append(None)
        else:
            failures += [f"request {i}: {p}" for p in reply.problems]
            replies.append(reply)
        i += 1
    return replies, latencies, failures, kernel_runs, time.perf_counter() - start


def digest_of(replies) -> str:
    """sha256 over the deterministic output of each request, in order."""
    h = hashlib.sha256()
    for r in replies:
        rec = r.record if r is not None else b"failed"
        h.update(len(rec).to_bytes(8, "little"))
        h.update(rec)
    return h.hexdigest()


def _failed(replies) -> int:
    return sum(r is None or bool(r.problems) for r in replies)


def measure(wl, work: Path, seconds: float) -> tuple[dict, dict]:
    from calibration import Reference, at_reference_speed

    reference = Reference()
    setups, setups_raw = [], []
    for k in range(wl.setup_repeats):
        before = [reference() for _ in range(SETUP_KERNEL_RUNS)]
        t0 = time.perf_counter()
        fixture = wl.setup(work / f"setup{k}")
        setups_raw.append(time.perf_counter() - t0)
        after = [reference() for _ in range(SETUP_KERNEL_RUNS)]
        setups.append(at_reference_speed(setups_raw[-1], before + after))
    replies, latencies, failures, kernel_runs, _ = run_requests(
        wl.session(fixture), wl.errors, wl.min_ops, seconds, wl.block,
        reference=reference)
    done = list(zip([r for r in replies if r is not None], latencies))
    # time per work item of each request: unlike whole-request latency it
    # does not depend on how many ticks the seed's placements happen to need
    per_item = [t / r.items for r, t in done if r.items]
    item_p50 = statistics.median(per_item) if per_item else 0.0
    item_mean = statistics.fmean(per_item) if per_item else 0.0
    digest = digest_of(replies[:wl.min_ops])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "item_ms_p50": (at_reference_speed(item_p50, kernel_runs) * 1e3, "ms"),
        "items_per_s": (1.0 / at_reference_speed(item_mean, kernel_runs)
                        if per_item else 0.0, "1/s"),
    }
    wall = {"setup_s": statistics.median(setups_raw), "item_ms_p50": item_p50 * 1e3,
            "items_per_s": 1.0 / item_mean if per_item else 0.0,
            "request_ms_p50": statistics.median(latencies) * 1e3 if latencies else 0.0,
            "kernel_ms_p50": statistics.median(kernel_runs) * 1e3}
    record = {"attempted": len(replies), "failed": _failed(replies),
              "failures": failures[:20], "digest": digest, "wall_time": wall,
              "setup_runs_s": setups_raw,
              "latencies_ms": [round(t * 1e3, 3) for t in latencies],
              "kernel_ms": [round(t * 1e3, 3) for t in kernel_runs],
              "detail": wl.summarize(done)}
    return metrics, record


def measure_traced(wl, work: Path, spans_path: Path) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics, traced

    fixture = wl.setup(work / "plain")
    plain_replies, _, _, _, plain_wall = run_requests(
        wl.session(fixture), wl.errors, wl.trace_ops, 0.0, wl.block)
    tracer = Tracer()
    with traced(tracer):
        t0 = time.perf_counter()
        fixture = wl.setup(work / "traced")
        setup_wall = time.perf_counter() - t0
        tracer.counters.clear()   # the counts describe the requests only
        replies, _, failures, _, wall = run_requests(
            wl.session(fixture), wl.errors, wl.trace_ops, 0.0, wl.block, tracer)
    tracer.write(spans_path)
    digests = [digest_of(plain_replies), digest_of(replies)]
    failed = _failed(replies)
    if digests[0] != digests[1]:
        failures.append("traced replay produced different outputs")
        failed += 1
    metrics = layer_metrics(tracer, wall, plain_wall, setup_wall)
    record = {"attempted": len(replies), "failed": failed,
              "failures": failures[:20], "digest": digests[1],
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, record


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: the load must fit on one core, and BLAS reads these
    # only when numpy is first imported, which happens below
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "servopb" / "__init__.py").is_file():
        print(f"perfbench: no servopb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    try:
        if args.trace:
            metrics, record = measure_traced(wl, work, OUT / f"{stem}-spans.jsonl")
        else:
            metrics, record = measure(wl, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, environment=environment(),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("# environment " + json.dumps(record["environment"]))
    print("# digest " + record["digest"])
    if "wall_time" in record:
        print("# wall_time " + json.dumps(record["wall_time"]))
    if "detail" in record:
        print("# detail " + json.dumps(record["detail"]))
    for line in record["failures"]:
        print("# failed " + line)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
