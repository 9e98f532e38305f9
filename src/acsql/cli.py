"""Command-line interface binding the model, simulator, and eval harness.

Subcommands:
    theory prob|limit|contour   closed-form numbers and contour CSV grids
    simulate                    Monte-Carlo run, JSON report on stdout
    eval run|report|ablation|estimate-pqs
                                batch execution over a Spider-format
                                dataset, scoring, and rate estimation

Endpoint API keys come only from environment variables (default
LLM_API_KEY); config files and flags never carry secrets. `eval run` and
`eval ablation` share one run path, which checks every requested mode's
settings before the dataset is read, so a bad one exits 2 with no trace
file or directory written, and checks every mode's trace log before the
first mode runs. `eval ablation` scores the logs after every mode ran.
Within one command the modes of a task share the successful replies to
identical chat requests (agents.ReplyTable), which pairs the modes at
temperature > 0. Nothing is kept between commands: a resumed ablation
shares only among the modes that run in it, and separate `eval run`
commands give independent samples. The actor samples at temperature 0.7
and the critic at 0.0 unless their settings set one; a critic with no
base_url takes the actor's settings, an explicit temperature included.
NumPy loads only for `theory prob|contour`, `simulate` and `estimate-pqs`' predicted_prob.
"""

import argparse
import hashlib
import json
import random
import sys
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from . import evalkit, theory
from .agents import (
    CRITIC_MODES,
    BernoulliActor,
    LLMActor,
    LLMJudge,
    ReplyTable,
    StochasticCritic,
    execution_critic,
)
from .engine import ACConfig, TraceFormatError, read_traces
from .llm_client import EndpointConfig
from .spider_data import DatasetFormatError, database_path, load_dataset, read_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NO_TRACES = 4  # a batch mode where tasks failed and none wrote a trace


@dataclass
class RunConfig:
    """Settings for `eval run` / `eval ablation`, mergeable from JSON + flags."""

    tasks: str = ""
    tables: str = ""
    db_dir: str = ""
    out: str = ""
    mode: str = ACConfig.critic_mode
    max_iterations: int = ACConfig.max_iterations
    concurrency: int = 4
    exec_timeout: float = 5.0
    seed: int | None = None
    actor: dict = field(default_factory=dict)
    critic: dict = field(default_factory=dict)


# The keys a config file may hold, each overridden by its namesake flag, and
# those of each actor and critic kind; an `llm` agent's keys are the
# EndpointConfig fields (EndpointConfig holds defaults, checks values).
_RUN_KEYS = tuple(f.name for f in fields(RunConfig))
_ENDPOINT_KEYS = tuple(f.name for f in fields(EndpointConfig))
_AGENT_KEYS = {
    "actor": {"llm": _ENDPOINT_KEYS, "bernoulli": ("p",)},
    "critic": {"llm": _ENDPOINT_KEYS, "stochastic": ("q", "s")},
}


def _agent_settings(config: RunConfig, role: str) -> tuple[dict, tuple[float, ...] | None]:
    """The actor's or critic's settings, and a seeded double's probabilities (else None)."""
    settings = getattr(config, role)
    kind = settings.get("kind", "llm")
    keys = _AGENT_KEYS[role].get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError(f"unknown {role} kind {kind!r}")
    for key in sorted(settings.keys() - {"kind", *keys}):
        raise ValueError(f"unknown key {key!r} in {kind} {role} settings")
    if kind == "llm":
        return settings, None
    if config.seed is None:
        raise ValueError(f"--seed is required with a {kind} {role}")
    for name in keys:
        if not isinstance(settings.get(name), (int, float)):  # missing, quoted or a list
            raise ValueError(f"{kind} {role} needs a number {name}, got {settings.get(name)!r}")
        theory.check_prob(settings[name], name)
    return settings, tuple(float(settings[name]) for name in keys)


def _endpoint_from(settings: dict) -> EndpointConfig:
    kwargs = {"model": "default"}
    for key, value in settings.items():
        if key != "kind":
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    return EndpointConfig(**kwargs)


def _stable_rng(seed: int, task_id: str, role: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{task_id}:{role}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _build_factories(config: RunConfig, mode: str, tables: dict[str, ReplyTable]):
    """Check one mode and its agents' settings; return its ACConfig and per-task agent factories.

    tables maps a task id to the ReplyTable that the task's LLM agents send
    through, shared with the modes built on the same tables.
    """
    loop_config = ACConfig(max_iterations=config.max_iterations, critic_mode=mode)

    def send(task):
        return partial(tables[task.task_id].complete, mode)

    actor_settings, actor_probs = _agent_settings(config, "actor")
    endpoint = None
    if actor_probs is None:
        if not actor_settings.get("base_url"):
            raise ValueError("actor endpoint required (--actor-base-url or config)")
        # Nonzero sampling temperature by default: a deterministic actor
        # would regenerate the identical SQL after every reject.
        endpoint = _endpoint_from({"temperature": 0.7, **actor_settings})

    def actor_factory(task):
        if endpoint is not None:
            return LLMActor(endpoint, send(task))
        return BernoulliActor(*actor_probs, _stable_rng(config.seed, task.task_id, "actor"))

    critic_settings, critic_probs = _agent_settings(config, "critic")
    names = CRITIC_MODES[mode]
    judge_endpoint = None
    if critic_probs is None and "llm" in names:
        judge_settings = critic_settings
        if not critic_settings.get("base_url"):  # the actor's endpoint, the critic's own keys
            judge_settings = {**actor_settings, **critic_settings}
        if not judge_settings.get("base_url"):
            raise ValueError(f"mode {mode!r} requires an LLM critic endpoint")
        judge_endpoint = _endpoint_from(judge_settings)

    def critic_factory(task):
        if not names:
            return ()
        if critic_probs is not None:
            rng = _stable_rng(config.seed, task.task_id, "critic")
            return (StochasticCritic(*critic_probs, rng).judge,)
        database = database_path(config.db_dir, task.db_id)

        def execution(candidate_sql, schema_ddl, question):
            return execution_critic(candidate_sql, database, config.exec_timeout)

        components = {"execution": execution}
        if judge_endpoint is not None:
            components["llm"] = LLMJudge(judge_endpoint, send(task)).judge
        return tuple(components[name] for name in names)

    return loop_config, actor_factory, critic_factory


# ---------------------------------------------------------------------------
# theory subcommands
# ---------------------------------------------------------------------------


def _cmd_theory(args) -> int:
    if args.theory_cmd == "prob":
        params = theory.ACParams(p=args.p, q=args.q, s=args.s, z=args.z)
        print(f"{theory.expected_prob(params):.12g}")
        return EXIT_OK
    if args.theory_cmd == "limit":
        try:
            print(f"{theory.limit_prob(args.p, args.q, args.s):.12g}")
        except ZeroDivisionError as exc:
            raise ValueError(str(exc)) from exc
        return EXIT_OK
    grid = theory.contour_grid(p=args.p, z=args.z, resolution=args.resolution)
    if args.out == "-":
        theory.write_contour_csv(grid, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            rows = theory.write_contour_csv(grid, f)
        print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import mc_sim

    params = theory.ACParams(p=args.p, q=args.q, s=args.s, z=args.z)
    # SimulationConfig holds the defaults of the flags not given.
    given = {name: value for name in ("trials", "repeats", "seed")
             if (value := getattr(args, name)) is not None}
    config = mc_sim.SimulationConfig(params=params, **given)
    print(mc_sim.simulate(config).to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval subcommands
# ---------------------------------------------------------------------------


def _load_run_config(args) -> RunConfig:
    """Merge the JSON config and the flags; check the settings every mode shares."""
    config = RunConfig()
    if args.config:
        payload = read_json(args.config)
        if not isinstance(payload, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        for key, value in payload.items():
            if key not in _RUN_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            setattr(config, key, value)
    for name in _RUN_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    for role in ("actor", "critic"):
        settings = getattr(config, role)
        if not isinstance(settings, dict):
            raise ValueError(f"{role} settings must be a JSON object, got {settings!r}")
        for key in ("base_url", "model", "api_key_env"):
            value = getattr(args, f"{role}_{key}", None)
            if value is not None:
                settings[key] = value
    for name in ("tasks", "tables", "db_dir", "out"):
        if not isinstance(getattr(config, name), str):
            raise ValueError(f"{name} must be a string, got {getattr(config, name)!r}")
        if name != "out" and not getattr(config, name):
            raise ValueError(f"missing required setting: {name}")
    theory.check_int(config.concurrency, "concurrency")
    seed = config.seed
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    # A deadline that has already passed would interrupt every statement.
    theory.check_number(config.exec_timeout, "exec-timeout", positive=True)
    return config


def _run_modes(config: RunConfig, logs: dict[str | Path, str]) -> tuple[int, list[evalkit.RunSummary]]:
    """Run each critic mode over the tasks its trace log lacks, in order.

    logs maps each trace log to the mode that writes it. Every mode's settings
    and every log (evalkit.pending_tasks) are checked before the first mode
    runs, and a log's parent directory is made just before its mode runs.
    The modes share one ReplyTable per task, made here and dropped on
    return. Failed task ids go to stderr. Returns the dataset's size and
    the summaries.
    """
    tables: dict[str, ReplyTable] = defaultdict(ReplyTable)
    runs = {out_path: _build_factories(config, mode, tables) for out_path, mode in logs.items()}
    dataset = load_dataset(config.tasks, config.tables, config.db_dir)
    if dataset.unloadable:
        print(dataset.load_report(), file=sys.stderr)
    pending = {out_path: evalkit.pending_tasks(dataset.tasks, loop_config, out_path)
               for out_path, (loop_config, _, _) in runs.items()}
    summaries = []
    for out_path, (loop_config, actor_factory, critic_factory) in runs.items():
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        summary = evalkit.run_tasks(
            pending[out_path], dataset.schemas, actor_factory, critic_factory, loop_config,
            out_path, concurrency=config.concurrency,
        )
        for task_id, reason in summary.failed:
            print(f"  [{loop_config.critic_mode}] {task_id}: {reason}", file=sys.stderr)
        summaries.append(summary)
    return len(dataset.tasks), summaries


def _exit_status(summaries: list[evalkit.RunSummary]) -> int:
    if any(s.failed and s.written == 0 for s in summaries):
        return EXIT_NO_TRACES
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.eval_cmd == "run":
        config = _load_run_config(args)
        if not config.out:
            raise ValueError("missing required setting: out")
        n_tasks, summaries = _run_modes(config, {config.out: config.mode})
        summary = summaries[0]
        resumed = n_tasks - summary.written - len(summary.failed)
        print(
            f"traces written: {summary.written}, resumed: {resumed}, "
            f"failed: {len(summary.failed)}"
        )
        return _exit_status(summaries)

    if args.eval_cmd == "ablation":
        config = _load_run_config(args)
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        if not modes:
            raise ValueError("--modes must name at least one mode")
        if len(set(modes)) < len(modes):
            raise ValueError(f"--modes names a mode more than once: {args.modes}")
        logs = {evalkit.ablation_log(args.out_dir, mode): mode for mode in modes}
        _, summaries = _run_modes(config, logs)
        name = Path(config.tasks).stem
        reports = evalkit.with_baseline([
            replace(evalkit.evaluate_run(read_traces(path), config.db_dir, dataset_name=name),
                    mode=mode)
            for path, mode in logs.items()
        ])
        print(evalkit.format_reports(reports))
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
        return _exit_status(summaries)

    # report and estimate-pqs
    theory.check_number(args.exec_timeout, "exec-timeout", positive=True)
    if args.eval_cmd == "report" and args.baseline_ex is not None:
        theory.check_prob(args.baseline_ex, "baseline-ex")
    traces = read_traces(args.traces, strict=args.strict)
    if args.eval_cmd == "report":
        report = evalkit.evaluate_run(
            traces,
            args.db_dir,
            dataset_name=args.dataset_name,
            baseline_ex=args.baseline_ex,
            timeout=args.exec_timeout,
        )
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2))
        else:
            print(evalkit.format_reports([report]))
        return EXIT_OK

    estimate = evalkit.estimate_pqs(traces, args.db_dir, timeout=args.exec_timeout)
    payload = estimate.to_json_dict()
    if estimate.p_hat is not None and estimate.q_hat is not None and estimate.s_hat is not None:
        # a p_hat implies a scored trace; read_traces allows one config per log
        z = traces[0].config.max_iterations
        payload["predicted_prob"] = theory.expected_prob(
            theory.ACParams(p=estimate.p_hat, q=estimate.q_hat, s=estimate.s_hat, z=z)
        )
        payload["predicted_prob_z"] = z
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsql",
        description="Actor-critic text-to-SQL toolkit: theory, simulation, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_theory = sub.add_parser("theory", help="closed-form performance numbers")
    theory_sub = p_theory.add_subparsers(dest="theory_cmd", required=True)
    p_prob = theory_sub.add_parser("prob", help="expected correctness at budget z")
    p_limit = theory_sub.add_parser("limit", help="unbounded-budget limit")
    p_contour = theory_sub.add_parser("contour", help="(q, s) lattice as CSV")
    p_sim = sub.add_parser("simulate", help="Monte-Carlo validation run")
    for sp in (p_prob, p_limit, p_contour, p_sim):
        sp.add_argument("--p", type=float, required=True)
    for sp in (p_prob, p_limit, p_sim):
        sp.add_argument("--q", type=float, required=True)
        sp.add_argument("--s", type=float, required=True)
    for sp in (p_prob, p_contour, p_sim):
        sp.add_argument("--z", type=int, required=True)
    p_contour.add_argument("--resolution", type=int, default=101)
    p_contour.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p_theory.set_defaults(handler=_cmd_theory)

    for flag in ("--trials", "--repeats", "--seed"):
        p_sim.add_argument(flag, type=int)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_eval = sub.add_parser("eval", help="dataset runs, scoring, estimation")
    eval_sub = p_eval.add_subparsers(dest="eval_cmd", required=True)

    p_run = eval_sub.add_parser("run", help="run the loop over a dataset")
    p_ablation = eval_sub.add_parser("ablation", help="one run per critic mode")
    for sp in (p_run, p_ablation):
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--tasks")
        sp.add_argument("--tables")
        sp.add_argument("--db-dir")
        sp.add_argument("--max-iterations", type=int)
        sp.add_argument("--concurrency", type=int)
        sp.add_argument("--exec-timeout", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--actor-base-url")
        sp.add_argument("--actor-model")
        sp.add_argument("--actor-api-key-env")
        sp.add_argument("--critic-base-url")
        sp.add_argument("--critic-model")
        sp.add_argument("--critic-api-key-env")
    p_run.add_argument("--mode", choices=CRITIC_MODES)
    p_run.add_argument("--out")
    p_ablation.add_argument("--modes", default=",".join(CRITIC_MODES))
    p_ablation.add_argument("--out-dir", required=True)

    p_report = eval_sub.add_parser("report", help="score a trace log")
    p_pqs = eval_sub.add_parser("estimate-pqs", help="estimate actor/critic rates")
    for sp in (p_report, p_pqs):
        sp.add_argument("--traces", required=True)
        sp.add_argument("--db-dir", required=True)
        sp.add_argument("--exec-timeout", type=float, default=30.0)
        sp.add_argument("--strict", action="store_true", help="abort on bad trace lines")
    p_report.add_argument("--dataset-name", default="")
    p_report.add_argument("--baseline-ex", type=float)
    p_report.add_argument("--json", action="store_true")
    p_eval.set_defaults(handler=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetFormatError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
