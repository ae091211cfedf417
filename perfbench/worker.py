"""One measuring process: set up a workload, time its items, print one JSON line.

``run.py`` starts this script with BLAS pinned to one thread and ``src`` on
PYTHONPATH.  With ``--setup-only`` it stops after set-up, so the launcher can
take the median set-up time of several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import drift

OUT = Path(__file__).resolve().parent / "out"


def run_phase(workload, seconds: float, tracer=None):
    """Whole rounds of items until ``seconds`` have passed; always at least one round.

    Returns (records, roots, factors): one ``[kind, corrected_s, raw_s, ref_s,
    failed, wrong]`` per item, and in a traced phase the item span ids with
    their drift factors.
    """
    records, roots, factors = [], [], {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        for kind, run, check in workload.round(k):
            timed = run if tracer is None else (lambda run=run: tracer.call("item", run))
            try:
                result, interval = drift.measure(timed)
            except Exception:  # one failing item must not stop the run
                traceback.print_exc(file=sys.stderr)
                records.append([kind, None, None, None, True, False])
                interval = None
            if tracer is not None:
                root = None if interval is None else tracer.spans[-1][0]
                adopt_child_traces(workload, tracer, root)
                if root is not None:
                    roots.append(root)
                    factors[root] = interval.factor
            if interval is None:
                continue
            try:
                ok = bool(check(result))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print(f"wrong result: {kind} in round {k}", file=sys.stderr)
            records.append([kind, interval.seconds, interval.raw_s, interval.ref_s, not ok, not ok])
        k += 1
    return records, roots, factors


def adopt_child_traces(workload, tracer, root) -> None:
    """Move the spans a traced CLI child wrote under its item's span; drop them if it raised."""
    paths = getattr(workload, "child_traces", [])
    for path in paths:
        if root is not None and path.exists():
            with open(path, encoding="utf-8") as handle:
                tracer.adopt(json.load(handle), root)
        path.unlink(missing_ok=True)
    paths.clear()


def summarize(records) -> dict:
    timed = sorted(r[1] for r in records if r[1] is not None)
    out = {
        "items": len(timed),
        "item_p50_ms": statistics.median(timed) * 1e3 if timed else None,
        "item_p50_raw_ms": statistics.median(r[2] for r in records if r[2] is not None) * 1e3 if timed else None,
        "ref_p50_ms": statistics.median(r[3] for r in records if r[3] is not None) * 1e3 if timed else None,
    }
    # The highest percentile with at least ten items beyond it; none below forty items.
    if len(timed) >= 40:
        k = len(timed) - 11
        out["item_tail_ms"] = timed[k] * 1e3
        out["item_tail_pct"] = 100 * (k + 1) // len(timed)
    return out


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ref_before = drift.reference_runs()
    start = time.perf_counter()
    import sloccrank  # noqa: F401  (import time is part of set-up)
    import workloads

    workload = workloads.make(args.workload, args.seed, OUT / f"{args.workload}-{args.seed}")
    workload.setup()
    setup = drift.Interval(time.perf_counter() - start,
                           statistics.median(ref_before + drift.reference_runs()))
    result = {"setup_s": setup.seconds, "setup_raw_s": setup.raw_s, "setup_ref_s": setup.ref_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    records, _, _ = run_phase(workload, phase_seconds)
    result.update(summarize(records))
    result["peak_rss_mb"] = peak_rss_mb(args.workload)
    if args.trace:
        import tracing

        OUT.mkdir(exist_ok=True)
        tracer = tracing.Tracer()
        if hasattr(workload, "trace_dir"):
            workload.trace_dir = workload.workdir
        tracer.install()
        try:
            traced, roots, factors = run_phase(workload, phase_seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        layers = tracing.layer_metrics(tracer.spans, roots, factors)
        layers.update(tracing.scalar_probe(workload.probe_values()))
        layers["rank.entry_bits"] = tracer.entry_bits
        layers["trace.overhead"] = summarize(traced)["item_p50_ms"] / result["item_p50_ms"]
        result["per_layer"] = layers
        records += traced
    result["attempted"] = len(records)
    result["failed"] = sum(r[4] for r in records)
    result["wrong"] = sum(r[5] for r in records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
