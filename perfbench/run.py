"""Benchmark of the staircase audit suite, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are taken
from this file).  NAME is one of the workloads in BENCHMARK.json, or
``all`` to run each in turn.  The run

* measures set-up: the median over fresh interpreters of the time to
  import ``staircase`` and build the CLI parser (``setup_s``);
* starts one single-threaded worker process for the workload, which runs
  passes for S seconds and checks every output (see worker.py);
* with ``--trace 0`` prints the end-to-end metrics (median pass time,
  set-up time, the worker's peak resident memory), and with ``--trace 1``
  the per-layer metrics of one extra traced pass.

``pass_s`` and ``setup_s`` are wall seconds scaled to a nominal machine
speed, which is sampled while the timed code runs (calibrate.py); the
raw wall median is printed on stderr beside them.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A readable summary goes to
stderr.  ``--tiny`` shrinks every workload for the smoke test; its
numbers are not measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5
SETUP_SNIPPET = (
    "import time\n"
    "from calibrate import SpeedSampler\n"
    "with SpeedSampler(0.005) as speed:\n"
    "    t = time.perf_counter()\n"
    "    import staircase.cli\n"
    "    staircase.cli.build_parser()\n"
    "    t = time.perf_counter() - t\n"
    "print(t * speed.scale(0))\n"
)
DEADLINE_S = 170  # per workload; a run must end within 180 s


def load_spec() -> dict:
    """Metric units by kind, and the workload names, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def measure_setup(env: dict) -> float:
    """Median import-and-parser time over fresh interpreters (one warm-up)."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples[1:])


def run_workload(name: str, args, env: dict, spec: dict) -> dict:
    started = perf_counter()
    setup_s = measure_setup(env)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", str(HERE / "out" / f"spans-{name}-seed{args.seed}.json")]
    budget = DEADLINE_S - (perf_counter() - started)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=budget, check=True
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    times = res["scaled_pass_times"]
    pass_s = res["pass_s"]
    wall_s = statistics.median(res["pass_times"])
    if args.trace:
        want = spec["per_layer"]
        values = res["per_layer"]
    else:
        want = spec["end_to_end"]
        values = {"pass_s": pass_s, "setup_s": setup_s, "peak_rss_mib": res["peak_rss_mib"]}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in want.items()}

    lo, hi = (min(times), max(times)) if len(times) < 4 else statistics.quantiles(times, n=4)[0::2]
    print(
        f"{name} seed {args.seed}: {len(times)} passes, pass_s {pass_s:.4f} s "
        f"(scaled pass quartiles {lo:.4f}..{hi:.4f}; raw wall median {wall_s:.4f} s); "
        f"attempted {res['attempted']}, failed {res['failed']}, "
        f"failed_ratio {res['failed'] / res['attempted']:.4g}",
        file=sys.stderr,
    )
    for reason in res["reasons"]:
        print(f"  failure: {reason}", file=sys.stderr)
    for k, m in metrics.items():
        share = ""
        if args.trace and k.endswith(".self_s"):
            share = f"  {m['value'] / values['trace.pass_s']:6.1%} of the traced pass"
        print(f"  {k:44s} {m['value']:>14.6g} {m['unit']}{share}", file=sys.stderr)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="shrunken inputs, for the smoke test")
    args = ap.parse_args()

    if not (ROOT / "src" / "staircase" / "cli.py").is_file():
        print(f"error: no staircase package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = spec["workloads"] if args.workload == "all" else [args.workload]
    if not set(names) <= set(spec["workloads"]):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    try:
        results = [run_workload(name, args, env, spec) for name in names]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, result in zip(names, results):
        line = result if len(names) == 1 else {"workload": name, **result}
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
