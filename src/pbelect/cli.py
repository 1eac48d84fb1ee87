"""Command-line interface: gen, run-rule, check-axiom, experiment, plot-data.

Exit codes: 0 success, 1 malformed input, 2 usage, contract or configuration
error, 3 axiom violated (check-axiom only). Errors print one line to stderr in
the form ``error: <kind>: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NoReturn

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
    ResultRow,
    atomic_write_texts,
    default_experiment_config,
    emit_plot_data,
    experiment_config_from_dict,
    replay_trial,
    results_from_csv,
    run_experiment,
    write_study_csvs,
)
from .rules import APPROVAL, BORDA, DROOP, HARE, RULES


def _load_json(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # not UTF-8, not JSON, nested past the recursion limit, or an int too long to convert
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path} is not readable JSON: {exc}") from None


class _Digits(dict):
    """The text of an int: from the table for 0..1023, every id and voter index of
    an instance with up to 1,024 projects and voters, else from ``int.__repr__``.
    Look up only ints of type int: ``True`` would find ``"1"``."""

    def __missing__(self, value: int) -> str:
        return int.__repr__(value)


_DIGITS = _Digits({value: str(value) for value in range(1024)})


def _json_text(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for ``value`` nested at ``indent``.

    With an indent, ``json.dumps`` runs the pure-Python encoder, so this lays
    out by ``str.join``: non-empty dicts with str keys, non-empty lists, a
    list of plain ints in one ``join``, and a list of non-empty plain-int rows
    (ballots, rankings) in one comprehension with one ``join`` per row. An
    int is written as itself. Anything else goes to ``json.dumps`` and is
    re-indented: an encoded string holds no raw newline, so each newline it
    writes starts a line.
    """
    kind = type(value)
    if kind is int:
        return _DIGITS[value]
    inner = indent + "  "
    glue = ",\n" + inner
    if value and kind is dict and set(map(type, value)) == {str}:
        body = glue.join([
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in value.items()
        ])
        return "{\n" + inner + body + "\n" + indent + "}"
    if value and (kind is list or kind is tuple):
        kinds = set(map(type, value))
        text = _DIGITS.__getitem__
        if kinds == {int}:  # not bool: type(True) is bool
            body = glue.join(map(text, value))
        elif (
            kinds <= {list, tuple}
            and all(value)
            and set(map(type, chain.from_iterable(value))) == {int}
        ):
            head = "[\n" + inner + "  "
            sep = ",\n" + inner + "  "
            tail = "\n" + inner + "]"
            body = glue.join([head + sep.join(map(text, row)) + tail for row in value])
        else:
            body = glue.join([_json_text(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _emit(data: object, out: str | None, *more: tuple[object, str]) -> None:
    """Write ``data`` as ``json.dumps(data, indent=2)`` plus a newline to the
    file ``out``, or to stdout when ``out`` is None, and each further
    ``(data, path)`` pair to its file, all or nothing: every text is rendered
    first, stdout is one more output of the ``atomic_write_texts`` commit, and
    a failure, stdout's included (a full disk, a closed pipe), leaves no file."""
    atomic_write_texts([(path, _json_text(value) + "\n") for value, path in ((data, out), *more)])


def _cmd_gen(args: argparse.Namespace) -> int:
    config = culture_config_from_dict(_load_json(args.config))
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    instance = generate(config, args.trial)
    _emit(instance_to_dict(instance), args.out)
    return 0


def _given(args: argparse.Namespace, what: str, names: tuple[str, ...], takes: tuple = ()) -> dict:
    """Options in ``names`` (default None) given; a usage error names any not in ``takes``."""
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    refused = [f"--{name.replace('_', '-')}" for name in given if name not in takes]
    if refused:
        raise _UsageError(f"{what} does not take {', '.join(refused)}")
    return given


def _cmd_run_rule(args: argparse.Namespace) -> int:
    rule = RULES[args.rule]
    options = _given(args, f"--rule {args.rule}", ("scoring", "quota", "k"), rule.options)
    if None not in (args.out, args.trace) and os.path.realpath(args.out) == os.path.realpath(args.trace):
        raise _UsageError(f"--out {args.out} and --trace {args.trace} name one file")
    instance = instance_from_dict(_load_json(args.instance))
    budget, trace = rule.run(instance, **options)
    trace_output = () if args.trace is None else ((trace.to_dict(), args.trace),)
    _emit(budget_to_dict(budget), args.out, *trace_output)
    return 0


def _cmd_check_axiom(args: argparse.Namespace) -> int:
    instance = instance_from_dict(_load_json(args.instance))
    budget = budget_from_dict(instance, _load_json(args.budget))
    report = check_axiom(instance, budget, args.axiom)
    _emit(report.to_dict(), args.out)
    return 0 if report.satisfied else 3


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.replay is not None:
        _given(args, "--replay", ("workers", "timing", "out_dir"))
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
    rows = run_experiment(config, workers=args.workers)
    write_study_csvs(rows, "out" if args.out_dir is None else args.out_dir, tail=_table(rows))
    return 0


def _table(rows: tuple[ResultRow, ...]) -> str:
    """A blank line, then one column per (case, rule) and one line per trial
    count, each cell that row's probability_pct."""
    columns = ["trials", *dict.fromkeys(f"{row.case}/{row.rule}" for row in rows)]
    widths = [max(8, len(column) + 2) for column in columns]
    lines: dict[int, list[str]] = {}
    for row in rows:
        lines.setdefault(row.trial_count, [str(row.trial_count)]).append(row.probability_pct)
    grid = [columns, *lines.values()]
    return "\n" + "".join(["".join(map(str.rjust, cells, widths)) + "\n" for cells in grid])


def _cmd_plot_data(args: argparse.Namespace) -> int:
    emit_plot_data(results_from_csv(args.results), args.out_dir, tail="")
    return 0


class _UsageError(Exception):
    """The parser refused the command line."""


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line instead of printing usage and exiting, so
    ``main`` reports it in one line; subparsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


@functools.cache  # built on the first main() call, then shared: parse_args leaves it as it is
def _build_parser() -> _Parser:
    parser = _Parser(
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
    run.add_argument("--scoring", choices=(APPROVAL, BORDA), help="sccr, smr (default: approval)")
    run.add_argument("--quota", choices=(HARE, DROOP), help="stv (default: hare)")
    run.add_argument("--k", type=int, help="stv committee size (default: from the limit)")
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
    experiment.add_argument("--out-dir", help="directory for CSV outputs (default: out)")
    experiment.add_argument("--workers", type=int, default=None, help="parallel worker processes (N >= 1)")
    experiment.add_argument("--seed", type=int, default=None, help="override the master seed")
    experiment.add_argument("--timing", action="store_true", default=None, help="record wall time per row")
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


# every line boundary of str.splitlines(), as its Python escape
_LINE_BREAKS = str.maketrans({
    char: char.encode("unicode_escape").decode("ascii")
    for char in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
})


def _fail(code: int, kind: str, message: object) -> int:
    # one line even when a message repeats an argument that holds a line break
    print(f"error: {kind}: {message}".translate(_LINE_BREAKS), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        return _fail(2, "usage", exc)
    except ValidationError as exc:
        return _fail(1, "invalid-input", exc)
    except OSError as exc:
        return _fail(1, "io-error", exc)
    except ContractError as exc:
        return _fail(2, "contract", exc)

