"""Command-line interface: gen, run-rule, check-axiom, experiment, plot-data.

Exit codes: 0 success, 1 malformed input, 2 contract or configuration error,
3 axiom violated (check-axiom only). Errors print one line to stderr in the
form ``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .axioms import AXIOMS, check_axiom
from .core import (
    ContractError,
    ValidationError,
    budget_from_dict,
    budget_to_dict,
    instance_from_dict,
    instance_to_dict,
)
from .culture import culture_config_from_dict, generate
from .harness import (
    atomic_write_text,
    default_experiment_config,
    emit_plot_data,
    experiment_config_from_dict,
    replay_trial,
    results_from_csv,
    run_experiment,
    write_results_csv,
)
from .rules import APPROVAL, BORDA, DROOP, HARE, RULES


def _load_json(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # not UTF-8, not JSON, nested past the recursion limit, or an int too long to convert
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path} is not readable JSON: {exc}") from None


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(Path(out), text)


def _cmd_gen(args: argparse.Namespace) -> int:
    config = culture_config_from_dict(_load_json(args.config))
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    instance = generate(config, args.trial)
    atomic_write_text(Path(args.out), json.dumps(instance_to_dict(instance), indent=2) + "\n")
    return 0


def _cmd_run_rule(args: argparse.Namespace) -> int:
    instance = instance_from_dict(_load_json(args.instance))
    budget, trace = RULES[args.rule].run(instance, args.scoring, args.quota, args.k)
    _emit(budget_to_dict(budget), args.out)
    if args.trace is not None:
        atomic_write_text(Path(args.trace), json.dumps(trace.to_dict(), indent=2) + "\n")
    return 0


def _cmd_check_axiom(args: argparse.Namespace) -> int:
    instance = instance_from_dict(_load_json(args.instance))
    budget = budget_from_dict(instance, _load_json(args.budget))
    report = check_axiom(instance, budget, args.axiom)
    _emit(report.to_dict(), args.out)
    return 0 if report.satisfied else 3


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.config is None:
        config = default_experiment_config()
    else:
        config = experiment_config_from_dict(_load_json(args.config))
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.timing:
        config = replace(config, record_timing=True)
    if args.replay is not None:
        case_name, _, trial_text = args.replay.partition(":")
        try:
            trial = int(trial_text)
        except ValueError:
            raise ValidationError("--replay expects CASE:TRIAL, e.g. equal:17") from None
        _emit(replay_trial(config, case_name, trial), None)
        return 0
    result = run_experiment(config, workers=args.workers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = write_results_csv(result, out_dir / "results.csv")
    plot_paths = emit_plot_data(result, out_dir)
    for path in [results_path, *plot_paths]:
        print(f"wrote {path}")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    result = results_from_csv(args.results)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in emit_plot_data(result, out_dir):
        print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbelect",
        description="Participatory-budgeting rules, axiom checks, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one random instance")
    gen.add_argument("--config", required=True, help="culture config JSON file")
    gen.add_argument("--trial", type=int, required=True, help="trial index to draw")
    gen.add_argument("--out", required=True, help="output instance JSON file")
    gen.add_argument("--seed", type=int, default=None, help="override the master seed")
    gen.set_defaults(handler=_cmd_gen)

    run = sub.add_parser("run-rule", help="run a budgeting rule on an instance")
    run.add_argument("--rule", required=True, choices=tuple(RULES))
    run.add_argument("--instance", required=True, help="instance JSON file")
    run.add_argument("--scoring", choices=(APPROVAL, BORDA), default=APPROVAL)
    run.add_argument("--quota", choices=(HARE, DROOP), default=HARE)
    run.add_argument("--k", type=int, default=None, help="stv committee size (default: from the limit)")
    run.add_argument("--out", default=None, help="budget JSON file (default: stdout)")
    run.add_argument("--trace", default=None, help="also write the rule trace JSON here")
    run.set_defaults(handler=_cmd_run_rule)

    check = sub.add_parser("check-axiom", help="check a budget against an axiom")
    check.add_argument("--axiom", required=True, choices=AXIOMS)
    check.add_argument("--instance", required=True, help="instance JSON file")
    check.add_argument("--budget", required=True, help="budget JSON file")
    check.add_argument("--out", default=None, help="report JSON file (default: stdout)")
    check.set_defaults(handler=_cmd_check_axiom)

    experiment = sub.add_parser("experiment", help="run the satisfaction-probability study")
    experiment.add_argument("--config", default=None, help="experiment config JSON (default: built in)")
    experiment.add_argument("--out-dir", default="out", help="directory for CSV outputs")
    experiment.add_argument("--workers", type=int, default=None, help="parallel worker processes (N >= 1)")
    experiment.add_argument("--seed", type=int, default=None, help="override the master seed")
    experiment.add_argument("--timing", action="store_true", help="record wall time per row")
    experiment.add_argument(
        "--replay", default=None, metavar="CASE:TRIAL",
        help="re-run one trial and print its verdicts instead of the study",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    plot = sub.add_parser("plot-data", help="re-emit per-case figure CSVs from results")
    plot.add_argument("--results", required=True, help="results CSV file")
    plot.add_argument("--out-dir", default="out", help="directory for plot CSVs")
    plot.set_defaults(handler=_cmd_plot_data)
    return parser


def _fail(code: int, kind: str, message: object) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        return _fail(1, "invalid-input", exc)
    except OSError as exc:
        return _fail(1, "io-error", exc)
    except ContractError as exc:
        return _fail(2, "contract", exc)


if __name__ == "__main__":
    raise SystemExit(main())
