"""Command-line interface binding the model, simulator, and eval harness.

Subcommands:
    theory prob|limit|contour   closed-form numbers and contour CSV grids
    simulate                    Monte-Carlo run, JSON report on stdout
    eval run|report|ablation|estimate-pqs
                                batch execution over a Spider-format
                                dataset, scoring, and rate estimation

Endpoint API keys come only from environment variables (default
LLM_API_KEY); config files and flags never carry secrets.
"""

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import evalkit, mc_sim, theory
from .agents import (
    CRITIC_MODES,
    BernoulliActor,
    CompositeCritic,
    LLMActor,
    LLMJudge,
    StochasticCritic,
)
from .engine import ACConfig, TraceFormatError, read_traces
from .llm_client import EndpointConfig, TransportError
from .spider_data import DatasetFormatError, LoadedDataset, database_path, load_dataset
from .sqlexec import DatabaseUnavailable

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_TRANSPORT = 4  # also used when a batch run completes with zero successes


@dataclass
class RunConfig:
    """Settings for `eval run` / `eval ablation`, mergeable from JSON + flags."""

    tasks: str = ""
    tables: str = ""
    db_dir: str = ""
    out: str = ""
    mode: str = "both"
    max_iterations: int = 5
    concurrency: int = 4
    exec_timeout: float = 5.0
    seed: int | None = None
    actor: dict = field(default_factory=dict)
    critic: dict = field(default_factory=dict)

    def validate(self, modes: Sequence[str]) -> None:
        """Check the settings needed to run each of the given critic modes."""
        for name in ("tasks", "tables", "db_dir"):
            if not getattr(self, name):
                raise UsageError(f"missing required setting: {name}")
        if self.max_iterations < 1:
            raise UsageError("max-iterations must be >= 1")
        actor_kind = self.actor.get("kind", "llm")
        if actor_kind == "llm" and not self.actor.get("base_url"):
            raise UsageError("actor endpoint required (--actor-base-url or config)")
        if actor_kind == "bernoulli" and self.seed is None:
            raise UsageError("--seed is required with a bernoulli actor")
        critic_kind = self.critic.get("kind", "llm")
        for mode in modes:
            if mode not in CRITIC_MODES:
                raise UsageError(f"invalid mode {mode!r}")
            if "llm" not in CRITIC_MODES[mode]:
                continue
            if critic_kind == "llm" and not (
                self.critic.get("base_url") or self.actor.get("base_url")
            ):
                raise UsageError(f"mode {mode!r} requires an LLM critic endpoint")
            if critic_kind == "stochastic" and self.seed is None:
                raise UsageError("--seed is required with a stochastic critic")


class UsageError(Exception):
    pass


def _endpoint_from(settings: dict, default_temperature: float) -> EndpointConfig:
    return EndpointConfig(
        base_url=settings["base_url"],
        model_name=settings.get("model", "default"),
        api_key_env_var=settings.get("api_key_env", "LLM_API_KEY"),
        temperature=settings.get("temperature", default_temperature),
        max_tokens=settings.get("max_tokens", 512),
        timeout=settings.get("timeout", 60.0),
        max_retries=settings.get("max_retries", 3),
        retry_backoff=tuple(settings.get("retry_backoff", (0.5, 1.0, 2.0))),
    )


def _stable_rng(seed: int, task_id: str, role: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{task_id}:{role}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _build_factories(config: RunConfig, mode: str):
    """Actor/critic factories for one critic mode; one pair of agents per task."""
    actor_settings = dict(config.actor)
    actor_kind = actor_settings.get("kind", "llm")
    if actor_kind == "llm":
        # Nonzero sampling temperature by default: a deterministic actor
        # would regenerate the identical SQL after every reject.
        endpoint = _endpoint_from(actor_settings, default_temperature=0.7)

        def actor_factory(task):
            return LLMActor(endpoint)

    elif actor_kind == "bernoulli":

        def actor_factory(task):
            return BernoulliActor(
                float(actor_settings["p"]), _stable_rng(config.seed, task.task_id, "actor")
            )

    else:
        raise UsageError(f"unknown actor kind {actor_kind!r}")

    critic_settings = dict(config.critic)
    critic_kind = critic_settings.get("kind", "llm")
    components = CRITIC_MODES[mode]
    llm_judge = None
    if critic_kind == "llm" and "llm" in components:
        judge_settings = critic_settings if critic_settings.get("base_url") else actor_settings
        llm_judge = LLMJudge(_endpoint_from(judge_settings, default_temperature=0.0))

    def critic_factory(task):
        if not components:
            return None
        if critic_kind == "stochastic":
            return StochasticCritic(
                float(critic_settings["q"]),
                float(critic_settings["s"]),
                _stable_rng(config.seed, task.task_id, "critic"),
            )
        database = None
        if "execution" in components:
            database = database_path(config.db_dir, task.db_id)
        return CompositeCritic(
            mode, database=database, llm_judge=llm_judge, timeout=config.exec_timeout
        )

    return actor_factory, critic_factory


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
            raise UsageError(str(exc)) from exc
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
    params = theory.ACParams(p=args.p, q=args.q, s=args.s, z=args.z)
    config = mc_sim.SimulationConfig(
        params=params, trials=args.trials, repeats=args.repeats, seed=args.seed
    )
    print(mc_sim.simulate(config).to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval subcommands
# ---------------------------------------------------------------------------


def _load_run_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, ValueError) as exc:
            raise DatasetFormatError(f"cannot read config {args.config}: {exc}") from exc
        for key, value in payload.items():
            if not hasattr(config, key):
                raise UsageError(f"unknown config key {key!r}")
            setattr(config, key, value)
    for name in (
        "tasks", "tables", "db_dir", "out", "mode", "max_iterations", "concurrency",
        "exec_timeout", "seed",
    ):
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    for prefix, target in (("actor", config.actor), ("critic", config.critic)):
        for key in ("base_url", "model", "api_key_env"):
            value = getattr(args, f"{prefix}_{key}", None)
            if value is not None:
                target[key] = value
    return config


def _run_mode(
    config: RunConfig, dataset: LoadedDataset, mode: str, out_path: str | Path
) -> evalkit.RunSummary:
    """Run one critic mode over the dataset; failed task ids go to stderr."""
    actor_factory, critic_factory = _build_factories(config, mode)
    summary = evalkit.run_tasks(
        dataset.tasks,
        dataset.schemas,
        actor_factory,
        critic_factory,
        ACConfig(max_iterations=config.max_iterations, critic_mode=mode),
        out_path,
        concurrency=config.concurrency,
    )
    for task_id, reason in summary.failed:
        print(f"  [{mode}] {task_id}: {reason}", file=sys.stderr)
    return summary


def _exit_status(summaries: list[evalkit.RunSummary]) -> int:
    # a mode where nothing succeeded is almost certainly an endpoint problem
    if any(s.failed and s.written == 0 for s in summaries):
        return EXIT_TRANSPORT
    return EXIT_OK


def _load_run_dataset(config: RunConfig) -> LoadedDataset:
    dataset = load_dataset(config.tasks, config.tables, config.db_dir)
    if dataset.unloadable:
        print(dataset.load_report(), file=sys.stderr)
    return dataset


def _cmd_eval(args) -> int:
    if args.eval_cmd == "run":
        config = _load_run_config(args)
        if not config.out:
            raise UsageError("missing required setting: out")
        config.validate([config.mode])
        dataset = _load_run_dataset(config)
        summary = _run_mode(config, dataset, config.mode, config.out)
        print(
            f"traces written: {summary.written}, resumed: {summary.resumed}, "
            f"failed: {len(summary.failed)}"
        )
        return _exit_status([summary])

    if args.eval_cmd == "ablation":
        config = _load_run_config(args)
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        if not modes:
            raise UsageError("--modes must name at least one mode")
        config.validate(modes)
        dataset = _load_run_dataset(config)
        summaries = []
        reports = evalkit.run_ablation(
            lambda mode, out_path: summaries.append(_run_mode(config, dataset, mode, out_path)),
            modes,
            args.out_dir,
            config.db_dir,
            dataset_name=Path(config.tasks).stem,
        )
        print(evalkit.format_reports(reports))
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
        return _exit_status(summaries)

    if args.eval_cmd == "report":
        traces = read_traces(args.traces, strict=args.strict)
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

    # estimate-pqs
    traces = read_traces(args.traces, strict=args.strict)
    estimate = evalkit.estimate_pqs(traces, args.db_dir, timeout=args.exec_timeout)
    payload = estimate.to_json_dict()
    if (
        estimate.p_hat is not None
        and estimate.q_hat is not None
        and estimate.s_hat is not None
        and traces
    ):
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


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


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
    for sp in (p_prob, p_limit, p_contour):
        sp.add_argument("--p", type=_probability, required=True)
    for sp in (p_prob, p_limit):
        sp.add_argument("--q", type=_probability, required=True)
        sp.add_argument("--s", type=_probability, required=True)
    p_prob.add_argument("--z", type=_positive_int, required=True)
    p_contour.add_argument("--z", type=_positive_int, required=True)
    p_contour.add_argument("--resolution", type=_positive_int, default=101)
    p_contour.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p_theory.set_defaults(handler=_cmd_theory)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo validation run")
    p_sim.add_argument("--p", type=_probability, required=True)
    p_sim.add_argument("--q", type=_probability, required=True)
    p_sim.add_argument("--s", type=_probability, required=True)
    p_sim.add_argument("--z", type=_positive_int, required=True)
    p_sim.add_argument("--trials", type=_positive_int, default=1_000_000)
    p_sim.add_argument("--repeats", type=_positive_int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_eval = sub.add_parser("eval", help="dataset runs, scoring, estimation")
    eval_sub = p_eval.add_subparsers(dest="eval_cmd", required=True)

    p_run = eval_sub.add_parser("run", help="run the loop over a dataset")
    p_ablation = eval_sub.add_parser("ablation", help="one run per critic mode")
    for sp in (p_run, p_ablation):
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--tasks")
        sp.add_argument("--tables")
        sp.add_argument("--db-dir", dest="db_dir")
        sp.add_argument("--max-iterations", dest="max_iterations", type=_positive_int)
        sp.add_argument("--concurrency", type=_positive_int)
        sp.add_argument("--exec-timeout", dest="exec_timeout", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--actor-base-url", dest="actor_base_url")
        sp.add_argument("--actor-model", dest="actor_model")
        sp.add_argument("--actor-api-key-env", dest="actor_api_key_env")
        sp.add_argument("--critic-base-url", dest="critic_base_url")
        sp.add_argument("--critic-model", dest="critic_model")
        sp.add_argument("--critic-api-key-env", dest="critic_api_key_env")
    p_run.add_argument("--mode", choices=CRITIC_MODES)
    p_run.add_argument("--out")
    p_ablation.add_argument("--modes", default=",".join(CRITIC_MODES))
    p_ablation.add_argument("--out-dir", dest="out_dir", required=True)

    p_report = eval_sub.add_parser("report", help="score a trace log")
    p_pqs = eval_sub.add_parser("estimate-pqs", help="estimate actor/critic rates")
    for sp in (p_report, p_pqs):
        sp.add_argument("--traces", required=True)
        sp.add_argument("--db-dir", dest="db_dir", required=True)
        sp.add_argument("--exec-timeout", dest="exec_timeout", type=float, default=30.0)
        sp.add_argument("--strict", action="store_true", help="abort on bad trace lines")
    p_report.add_argument("--dataset-name", dest="dataset_name", default="")
    p_report.add_argument("--baseline-ex", dest="baseline_ex", type=float)
    p_report.add_argument("--json", action="store_true")
    p_eval.set_defaults(handler=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetFormatError, TraceFormatError, DatabaseUnavailable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
