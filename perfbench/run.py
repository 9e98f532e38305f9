"""acsql benchmark: one seeded workload, timed, checked, one JSON line out.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload model|ablation|score --seed N \
        --seconds S --trace 0|1

The run generates the workload's inputs from the seed under .perfbench/,
times set-up in fresh interpreters, starts the stub chat endpoint for
`ablation`, and runs the measured passes in a child process
(perfbench/workload.py) so that its peak RSS is the workload's alone.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The exit code is 0 only when every output check passed. The
full result (named rates, input properties, failed checks) is kept in
.perfbench/result-<workload>-<seed>-<trace>.json and the traced run's
spans in .perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_RUNS = 11
CHILD_SLACK_S = 120  # warm-up, the last pass and the checks

RATE_NAMES = {
    "model": ("samples_per_s", "trials/s"),
    "ablation": ("tasks_per_s", "tasks/s"),
    "score": ("traces_per_s", "traces/s"),
}

REFERENCE_IMPORTS = "import argparse, csv, json, sqlite3, numpy, requests"
REFERENCE_LAUNCH_S = 0.3

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import acsql.cli
if len(sys.argv) > 2:
    from acsql.spider_data import load_dataset
    load_dataset(*sys.argv[2:])
"""


def measure_setup(manifest: dict) -> dict:
    """Median wall time of a fresh interpreter importing acsql.cli.

    On `ablation` the interpreter also loads the dataset, as `eval
    ablation` does before its first task. Each launch is scaled by the
    launches of a reference interpreter that imports only acsql's
    dependencies, run just before and just after it, to a machine on
    which the reference takes REFERENCE_LAUNCH_S. Interpreter start-up
    slows only about half as much as calib.py's kernel when the machine
    is loaded, so that kernel would over-correct here. One untimed launch
    of each first lets bytecode caches fill. No timeout is passed: with
    one, subprocess polls for the child's exit in sleeps of up to 50 ms,
    which would quantise the times.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    if manifest["workload"] == "ablation":
        argv += [manifest["tasks"], manifest["tables"], manifest["db_dir"]]
    reference = [sys.executable, "-c", REFERENCE_IMPORTS]

    def launch(command: list[str]) -> float:
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    launch(argv)
    before = launch(reference)
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        seconds = launch(argv)
        after = launch(reference)
        raw.append(seconds)
        scaled.append(seconds * 2 * REFERENCE_LAUNCH_S / (before + after))
        before = after
    return {
        "setup_s": statistics.median(scaled),
        "raw_s": statistics.median(raw),
        "slowdown": statistics.median(r / s for r, s in zip(raw, scaled)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(gen.GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "acsql" / "__init__.py").is_file():
        print(f"error: no acsql sources at {SRC}", file=sys.stderr)
        return 2

    name = args.workload
    tag = f"{name}-{args.seed}-{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = None
    try:
        manifest = gen.GENERATORS[name](args.seed, work)
        manifest["workload"] = name
        (work / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        setup = measure_setup(manifest)
        setup_s = setup["setup_s"]

        child = [sys.executable, str(HERE / "workload.py"), "--manifest",
                 str(work / "manifest.json"), "--out", str(work / "result.json"),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if name == "ablation":
            from stub import ChatStub

            stub = ChatStub(manifest["answers"], manifest["stub"]).start()
            child += ["--base-url", stub.base_url]
        subprocess.run(child, check=True, timeout=args.seconds + CHILD_SLACK_S)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if args.trace:
            shutil.move(work / "spans.jsonl", OUT / f"spans-{name}-{args.seed}.jsonl")
    finally:
        if stub is not None:
            stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    result["setup"] = setup
    result["properties"] = manifest["properties"]
    if stub is not None:
        result["stub"] = stub.stats()
    error_share = result["failed"] / result["attempted"]
    rate_name, rate_unit = RATE_NAMES[name]
    lines = [
        f"workload {name}, seed {args.seed}: {result['passes']} passes"
        + (f" + {result['traced_passes']} traced" if args.trace else ""),
        f"  setup_s            {setup_s:.4f} s",
        f"  peak_rss_mb        {result['peak_rss_mb']:.1f} MB",
        f"  {rate_name:<18} {result['throughput']:.6g} {rate_unit}"
        f" (unscaled {result['raw_throughput']:.6g}, machine slowdown {result['slowdown']:.3f})",
    ]
    if "grid_points_per_s" in result:
        lines.append(f"  grid_points_per_s  {result['grid_points_per_s']:.6g} points/s")
    lines.append(f"  error_share        {error_share:.6g} ratio")
    lines.append("  inputs: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                         for k, v in manifest["properties"].items()))
    for failure in result["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    print("\n".join(lines))
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    if args.trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in result["per_layer"].items()}
    else:
        metrics = {
            "throughput": {"value": result["throughput"], "unit": "items/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
