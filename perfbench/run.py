"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts four set-up-only processes and then one measuring process, one at a
time, each with BLAS pinned to one thread; prints one detail line, then the
result as one JSON object on the last line.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense-signature", "verify-trials", "table-sweep", "cli-calls")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 15
WORKER_TIMEOUT_S = 100
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def worker(args, extra, timeout: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    # A session of its own, so a timeout also ends the CLI child of a worker.
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sloccrank" / "__init__.py").is_file():
        print(f"error: no sloccrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = [worker(args, ["--setup-only"], PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)]
        result = worker(args, [], WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    detail = {key: result.get(key) for key in
              ("items", "item_p50_ms", "item_p50_raw_ms", "ref_p50_ms", "item_tail_ms", "item_tail_pct")}
    detail["setup_s"] = [s["setup_s"] for s in setups]
    detail["setup_raw_s"] = [s["setup_raw_s"] for s in setups]
    detail["wrong"] = result["wrong"]
    print("detail " + json.dumps({"workload": args.workload, "seed": args.seed, **detail}))

    if args.trace:
        import tracing

        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "item_p50_ms": {"value": result["item_p50_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(detail["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
