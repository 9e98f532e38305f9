"""Measured passes of one workload, run in a process of its own.

Usage (from run.py): python3 perfbench/workload.py --manifest M --out R
    --seconds S --trace 0|1 [--base-url URL]

One warm-up pass runs first and is checked but not timed. Then passes
repeat until --seconds have passed. With --trace 1 untraced and traced
passes alternate: the untraced ones give the wall time that the traced
ones are compared with, the traced ones give the per-layer numbers.
Every pass is checked; the result file holds the medians, the per-layer
numbers and any check that failed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from acsql import cli, mc_sim, theory  # noqa: E402

from calib import Calibrator, busy_slowdown  # noqa: E402
from tracing import Tracer  # noqa: E402

HOOKS = [
    "theory.expected_prob",
    "theory.contour_grid",
    "theory.write_contour_csv",
    "mc_sim.simulate",
    "spider_data.load_dataset",
    "spider_data.schema_to_ddl",
    "llm_client.complete",
    "agents.LLMActor.respond",
    "agents.LLMJudge.judge",
    "agents.execution_critic",
    "engine.run_ac_loop",
    "engine.write_trace",
    "engine.read_traces",
    "sqlexec.run_query",
    "sqlexec.open_readonly",
    "evalkit.execution_accuracy",
    "evalkit.evaluate_run",
    "evalkit.estimate_pqs",
    "evalkit.run_tasks",
    "cli.main",
]
MIN_PASSES = 3


@dataclass
class PassResult:
    items: int  # units of work timed in this pass
    seconds: float  # time spent in the timed calls
    attempted: int
    failed: int
    wall: float = 0.0  # whole pass, checks included
    grid_points: int = 0
    grid_seconds: float = 0.0
    busy: float = 1.0  # CPU time of this process over wall time, at most 1
    slowdown: float = 1.0  # wall time over wall time at reference speed


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """acsql's CLI in this process: (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


class Workload:
    def __init__(self, manifest: dict, work: Path):
        self.manifest = manifest
        self.work = work
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)


class Model(Workload):
    """Closed form vs simulation over the cell pool, plus contour grids."""

    def __init__(self, manifest: dict, work: Path):
        super().__init__(manifest, work)
        self.passes = 0
        self.estimates: dict[tuple[int, int], tuple[float, ...]] = {}

    def run_pass(self) -> PassResult:
        m = self.manifest
        column = (m["offset"] + self.passes) % len(m["pool"][0])
        self.passes += 1
        cells = [cells_of_z[column] for cells_of_z in m["pool"]]
        failed, sim_seconds = 0, 0.0
        for cell in cells:
            params = theory.ACParams(p=cell["p"], q=cell["q"], s=cell["s"], z=cell["z"])
            config = mc_sim.SimulationConfig(
                params=params, trials=m["trials"], repeats=m["repeats"], seed=cell["seed"]
            )
            start = time.perf_counter()
            report = mc_sim.simulate(config)
            sim_seconds += time.perf_counter() - start
            bound = mc_sim.agreement_bound(report.theory_prob, m["trials"], m["repeats"])
            if not report.abs_difference <= bound:
                failed += 1
                self.check(False, f"cell {cell} outside agreement bound")
            first = self.estimates.setdefault((cell["z"], column), report.per_repeat_estimates)
            self.check(report.per_repeat_estimates == first,
                       f"cell {cell}: estimates differ from its earlier run")

        grid_seconds, points = 0.0, 0
        res = m["resolution"]
        for i, pair in enumerate(m["grids"]):
            path = self.work / f"grid_{i}.csv"
            start = time.perf_counter()
            grid = theory.contour_grid(p=pair["p"], z=pair["z"], resolution=res)
            with open(path, "w", encoding="utf-8") as f:
                rows = theory.write_contour_csv(grid, f)
            grid_seconds += time.perf_counter() - start
            points += res * res
            self.check(rows == res * res, f"grid {pair} wrote {rows} rows")
            for k, (_, _, prob) in enumerate(grid.iter_points()):
                if k // res + k % res == res - 1 and abs(prob - pair["p"]) > 1e-9:
                    self.check(False, f"grid {pair}: q + s = 1 point {k} reads {prob}")
        samples = len(cells) * m["trials"] * m["repeats"]
        return PassResult(samples, sim_seconds, len(cells), failed,
                          grid_points=points, grid_seconds=grid_seconds)


class Ablation(Workload):
    """`acsql eval ablation` over all critic modes against the stub endpoint."""

    def __init__(self, manifest: dict, work: Path, base_url: str):
        super().__init__(manifest, work)
        stub = manifest["stub"]
        endpoint = {"base_url": base_url, "max_retries": 3, "retry_backoff": [0.002],
                    "timeout": 30.0}
        config = {
            "tasks": manifest["tasks"],
            "tables": manifest["tables"],
            "db_dir": manifest["db_dir"],
            "max_iterations": manifest["max_iterations"],
            "concurrency": manifest["concurrency"],
            "actor": {**endpoint, "model": stub["actor_model"]},
            "critic": {**endpoint, "model": stub["critic_model"]},
        }
        self.config_path = work / "run.json"
        self.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        self.passes = 0
        self.first_digest = None

    def run_pass(self) -> PassResult:
        m = self.manifest
        out_dir = self.work / f"ablation_{self.passes}"
        self.passes += 1
        code, stdout, seconds = run_cli(
            ["eval", "ablation", "--config", str(self.config_path), "--out-dir", str(out_dir),
             "--modes", ",".join(m["modes"])]
        )
        self.check(code == 0, f"eval ablation exited {code}")
        reports = json.loads(stdout[stdout.index("\n[") + 1:]) if code == 0 else []
        self.check(len(reports) == len(m["modes"]), "one report per mode")
        failed, digest = 0, hashlib.sha256()
        for mode, report in zip(m["modes"], reports):
            path = out_dir / f"traces_{mode}.jsonl"
            traces = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            traces.sort(key=lambda t: t["task_id"])
            gold_final = sum(t["final_sql"] == t["gold_sql"] for t in traces)
            self.check(report["mode"] == mode, f"report for {mode} names {report['mode']}")
            self.check(report["n_tasks"] == len(traces) and report["n_excluded"] == 0,
                       f"{mode}: {report['n_tasks']} scored of {len(traces)} traces")
            self.check(report["ex"] == gold_final / max(1, len(traces)),
                       f"{mode}: EX {report['ex']} is not the gold-final share")
            failed += m["n_tasks"] - len(traces)
            for t in traces:
                steps = [
                    [it["sql"], [[v["source"], v["accepted"]] for v in it["verdicts"]]]
                    for it in t["iterations"]
                ]
                failed += sum(
                    v["detail"].startswith("transport failure")
                    for it in t["iterations"] for v in it["verdicts"]
                )
                digest.update(json.dumps(
                    [mode, t["task_id"], t["final_sql"], t["stopped_by"], steps]
                ).encode())
        self.first_digest = self.first_digest or digest.hexdigest()
        self.check(digest.hexdigest() == self.first_digest, "trace digest differs from the first pass")
        shutil.rmtree(out_dir)
        attempted = m["n_tasks"] * len(m["modes"])
        return PassResult(attempted, seconds, attempted, failed)


class Score(Workload):
    """`acsql eval report` then `acsql eval estimate-pqs` over a planted log."""

    def run_pass(self) -> PassResult:
        m = self.manifest
        exp = m["expected"]
        args = ["--traces", m["traces"], "--db-dir", m["db_dir"]]
        code1, out1, t1 = run_cli(["eval", "report", *args, "--json"])
        code2, out2, t2 = run_cli(["eval", "estimate-pqs", *args])
        self.check(code1 == 0 and code2 == 0, f"eval report/estimate-pqs exited {code1}/{code2}")
        report = json.loads(out1) if code1 == 0 else {}
        pqs = json.loads(out2) if code2 == 0 else {}
        self.check(report.get("n_tasks") == exp["n_tasks"], f"report scored {report.get('n_tasks')}")
        self.check(report.get("ex") == exp["ex"], f"report EX {report.get('ex')} != {exp['ex']}")
        self.check(report.get("n_excluded") == exp["n_excluded"],
                   f"report excluded {report.get('n_excluded')}")
        self.check(pqs.get("counts") == exp["counts"], f"estimate-pqs counts {pqs.get('counts')}")
        self.check(pqs.get("n_excluded") == exp["n_excluded"],
                   f"estimate-pqs excluded {pqs.get('n_excluded')}")
        failed = sum(
            max(0, out.get("n_excluded", 0) - exp["n_excluded"]) for out in (report, pqs)
        )
        n = m["n_traces"]
        return PassResult(2 * n, t1 + t2, 2 * n, failed)


def stub_stats(base_url: str | None) -> dict:
    if not base_url:
        return {"requests": 0, "connections": 0}
    with urllib.request.urlopen(f"{base_url}/stats", timeout=10) as resp:
        return json.loads(resp.read())


UNIT_BY_SUFFIX = (
    ("_per_s", "points/s"),
    ("_s", "s"),
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("trace_bytes", "bytes"),
    ("calls", "count"),
    ("http_requests", "count"),
    ("retries", "count"),
    ("iterations_per_task", "count"),
    ("", "ratio"),
)


def unit_of(metric: str) -> str:
    return next(unit for suffix, unit in UNIT_BY_SUFFIX if metric.endswith(suffix))


def layer_metrics(tracer: Tracer, n: int, stub: dict, delay_s: float) -> dict:
    """Per-layer numbers per traced pass."""
    spans = tracer.summary()

    def per_pass(name: str, field: str) -> float:
        return spans[name][field] / n if name in spans else 0.0

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    complete_ms = sorted(1000 * d for d in tracer.durations("llm_client.complete"))
    p50 = statistics.median(complete_ms) if complete_ms else 0.0
    p99 = complete_ms[min(len(complete_ms) - 1, int(0.99 * len(complete_ms)))] if complete_ms else 0.0
    calls = spans["llm_client.complete"]["calls"] if "llm_client.complete" in spans else 0
    counts = tracer.counts
    alloc = tracer.values.get("mc_sim.simulate.peak_alloc_mb", [])
    iterations = tracer.values.get("engine.iterations", [])
    metrics = {
        "theory.contour_grid.busy_s": per_pass("theory.contour_grid", "busy_s"),
        "theory.write_contour_csv.busy_s": per_pass("theory.write_contour_csv", "busy_s"),
        "theory.expected_prob.calls": counts["theory.expected_prob"] / n,
        "mc_sim.simulate.busy_s": per_pass("mc_sim.simulate", "busy_s"),
        "mc_sim.simulate.peak_alloc_mb": max(alloc, default=0.0),
        "spider_data.load_dataset.busy_s": per_pass("spider_data.load_dataset", "busy_s"),
        "spider_data.schema_to_ddl.calls": per_pass("spider_data.schema_to_ddl", "calls"),
        "spider_data.schema_to_ddl.busy_s": per_pass("spider_data.schema_to_ddl", "busy_s"),
        "llm_client.complete.calls": calls / n,
        "llm_client.complete.p50_ms": p50,
        "llm_client.complete.p99_ms": p99,
        "llm_client.complete.overhead_ms": p50 - 1000 * delay_s if complete_ms else 0.0,
        "llm_client.http_requests": stub["requests"] / n,
        "llm_client.retries": (stub["requests"] - calls) / n,
        "llm_client.connections_per_call": share(stub["connections"], stub["requests"]),
        "agents.LLMActor.respond.busy_s": per_pass("agents.LLMActor.respond", "busy_s"),
        "agents.LLMJudge.judge.busy_s": per_pass("agents.LLMJudge.judge", "busy_s"),
        "agents.execution_critic.calls": per_pass("agents.execution_critic", "calls"),
        "agents.execution_critic.busy_s": per_pass("agents.execution_critic", "busy_s"),
        "agents.accept_share.execution": share(counts["accepted.execution"],
                                               counts["verdicts.execution"]),
        "agents.accept_share.llm": share(counts["accepted.llm"], counts["verdicts.llm"]),
        "engine.run_ac_loop.self_s": per_pass("engine.run_ac_loop", "self_s"),
        "engine.iterations_per_task": share(sum(iterations), len(iterations)),
        "engine.write_trace.busy_s": per_pass("engine.write_trace", "busy_s"),
        "engine.read_traces.busy_s": per_pass("engine.read_traces", "busy_s"),
        "engine.trace_bytes": counts["engine.trace_bytes"] / n,
        "sqlexec.run_query.calls": per_pass("sqlexec.run_query", "calls"),
        "sqlexec.run_query.busy_s": per_pass("sqlexec.run_query", "busy_s"),
        "sqlexec.open_readonly.calls": per_pass("sqlexec.open_readonly", "calls"),
        "sqlexec.opens_per_query": share(per_pass("sqlexec.open_readonly", "calls"),
                                         per_pass("sqlexec.run_query", "calls")),
        "evalkit.execution_accuracy.calls": per_pass("evalkit.execution_accuracy", "calls"),
        "evalkit.execution_accuracy.busy_s": per_pass("evalkit.execution_accuracy", "busy_s"),
        "evalkit.gold_runs_per_distinct_gold": share(counts["gold_runs"] / n,
                                                     len(tracer.gold_keys)),
        "evalkit.evaluate_run.busy_s": per_pass("evalkit.evaluate_run", "busy_s"),
        "evalkit.estimate_pqs.busy_s": per_pass("evalkit.estimate_pqs", "busy_s"),
        "evalkit.run_tasks.busy_s": per_pass("evalkit.run_tasks", "busy_s"),
        "cli.main.self_s": per_pass("cli.main", "self_s"),
    }
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--base-url")
    args = ap.parse_args()

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    work = Path(args.manifest).parent
    name = manifest["workload"]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"acsql imported from {cli.__file__}, not from {SRC}")
    if name == "ablation":
        workload = Ablation(manifest, work, args.base_url)
        golds = {gold for _, gold in manifest["answers"]}
    else:
        workload = Model(manifest, work) if name == "model" else Score(manifest, work)
        golds = set(manifest.get("golds", []))

    passes: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = Tracer(golds)
    stub = {"requests": 0, "connections": 0}
    missing: list[str] = []

    def run_pass() -> PassResult:
        start, cpu = time.perf_counter(), time.process_time()
        result = workload.run_pass()
        result.wall = time.perf_counter() - start
        result.busy = min(1.0, (time.process_time() - cpu) / result.wall)
        return result

    def timed_pass() -> PassResult:
        result, slowdown = calibrator.scale(run_pass)
        result.slowdown = busy_slowdown(slowdown, result.busy)
        return result

    calibrator = Calibrator()
    warmup = timed_pass()
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(passes) > len(traced):
            before = stub_stats(args.base_url)
            missing = tracer.install(HOOKS)
            try:
                traced.append(timed_pass())
            finally:
                tracer.uninstall()
            after = stub_stats(args.base_url)
            for key in stub:
                stub[key] += after[key] - before[key]
        else:
            passes.append(timed_pass())
        enough = len(passes) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break

    every = [warmup, *passes, *traced]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    calibrator.close()
    rates = [r.items / r.seconds * r.slowdown for r in passes]
    result = {
        "correct": not workload.failures,
        "failures": workload.failures,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "throughput": statistics.median(rates),
        "pass_rates": rates,
        "raw_throughput": statistics.median(r.items / r.seconds for r in passes),
        "slowdown": statistics.median(r.slowdown for r in passes),
        "busy": statistics.median(r.busy for r in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_pass": passes[0].items,
        "pass_wall_s": statistics.median(r.wall / r.slowdown for r in passes),
    }
    if passes[0].grid_points:
        result["grid_points_per_s"] = statistics.median(
            r.grid_points / r.grid_seconds * r.slowdown for r in passes
        )
    if args.trace:
        delay = manifest.get("stub", {}).get("delay_s", 0.0)
        layers = layer_metrics(tracer, len(traced), stub, delay)
        layers["trace.overhead_s"] = (
            statistics.median(r.wall / r.slowdown for r in traced) - result["pass_wall_s"]
        )
        layers["theory.grid_points_per_s"] = result.get("grid_points_per_s", 0.0)
        layers["error_share"] = failed / attempted
        result["per_layer"] = {k: (v, unit_of(k)) for k, v in layers.items()}
        result["missing_hooks"] = missing
        result["spans"] = len(tracer.spans)
        tracer.write_spans(work / "spans.jsonl")
    Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
