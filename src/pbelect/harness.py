"""Monte Carlo experiment runner: generate instances, run rules, check axioms.

Trial t uses the same instance in every row that includes it (seed streams are
nested), aggregation is a commutative count, and timing is off by default, so
the emitted CSVs are byte-identical no matter how many workers run the trials.
With ``record_timing`` the elapsed_ms column carries measured wall time per
row (cumulative over that row's trials) and is the one scheduling-dependent
output; it reads 0 when timing is off.
"""

from __future__ import annotations

import csv
import io
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal
from functools import partial
from pathlib import Path

from .axioms import AXIOMS, UJR, check_axiom
from .core import ContractError, ValidationError, budget_to_dict, instance_to_dict
from .culture import (
    PREFIX,
    UNIT,
    CultureConfig,
    culture_config_from_dict,
    culture_config_to_dict,
    equal_valued_culture,
    general_case_culture,
    generate,
)
from .rules import RULES

PAPER_TRIAL_COUNTS = (100, 300, 500, 1000, 3000, 5000)

RESULTS_HEADER = ("trial_count", "case", "rule", "probability_pct", "elapsed_ms")
PLOT_HEADER = ("trial_count", "rule", "probability")

# A case name becomes part of plot_<case>.csv, a CSV field and --replay CASE:TRIAL.
_CASE_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _check_case_name(name: object) -> None:
    if not isinstance(name, str) or not _CASE_NAME.fullmatch(name):
        raise ValidationError(f"case name {name!r} must match {_CASE_NAME.pattern}")


@dataclass(frozen=True)
class CaseConfig:
    name: str
    rules: tuple[str, ...]
    culture: CultureConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        _check_case_name(self.name)
        if not self.rules:
            raise ValidationError(f"case {self.name!r} needs at least one rule")
        for name in self.rules:
            rule = RULES.get(name) if isinstance(name, str) else None
            if rule is None:
                raise ValidationError(f"unknown rule {name!r}; expected one of {tuple(RULES)}")
            if rule.needs_unit_cost and self.culture.cost_model != UNIT:
                raise ValidationError(f"rule {name!r} needs unit costs (cost_model {UNIT!r})")
            if rule.needs_rankings and self.culture.ballot_model != PREFIX:
                raise ValidationError(f"rule {name!r} needs rankings (ballot_model {PREFIX!r})")
        if len(set(self.rules)) != len(self.rules):
            raise ValidationError(f"case {self.name!r} repeats a rule")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full study description; master_seed overrides every case's culture seed."""

    trial_counts: tuple[int, ...]
    cases: tuple[CaseConfig, ...]
    axiom: str = UJR
    master_seed: int = 0
    record_timing: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "trial_counts", tuple(self.trial_counts))
        object.__setattr__(self, "cases", tuple(self.cases))
        if not self.trial_counts:
            raise ValidationError("trial_counts must not be empty")
        for count in self.trial_counts:
            if type(count) is not int or count < 1:
                raise ValidationError("every trial count must be a positive integer")
        if len(set(self.trial_counts)) != len(self.trial_counts):
            raise ValidationError("trial_counts repeats a value")
        if not self.cases:
            raise ValidationError("at least one case is required")
        names = [case.name for case in self.cases]
        if len(set(names)) != len(names):
            raise ValidationError("case names must be unique")
        if self.axiom not in AXIOMS:
            raise ValidationError(f"unknown axiom {self.axiom!r}")
        if type(self.master_seed) is not int:
            raise ValidationError("master_seed must be an integer")


@dataclass(frozen=True)
class ResultRow:
    trial_count: int
    case: str
    rule: str
    probability_pct: str
    elapsed_ms: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ResultRow, ...]

    def probability(self, case: str, rule: str, trial_count: int) -> Decimal:
        for row in self.rows:
            if (row.case, row.rule, row.trial_count) == (case, rule, trial_count):
                return Decimal(row.probability_pct)
        raise LookupError(f"no row for ({case}, {rule}, {trial_count})")


def default_experiment_config(
    master_seed: int = 0, trial_counts: tuple[int, ...] = PAPER_TRIAL_COUNTS
) -> ExperimentConfig:
    """The satisfaction-probability study: equal-valued three-rule case plus
    the general-cost coverage-greedy case, checked under the basic axiom."""
    return ExperimentConfig(
        trial_counts=trial_counts,
        cases=(
            CaseConfig("equal", ("sccr", "smr", "stv"), equal_valued_culture()),
            CaseConfig("general", ("sccr",), general_case_culture()),
        ),
        master_seed=master_seed,
    )


def _evaluate_trial(
    case: CaseConfig, axiom: str, record_timing: bool, trial: int
) -> tuple[int, dict[str, bool], dict[str, int]]:
    try:
        instance = generate(case.culture, trial)
        verdicts: dict[str, bool] = {}
        nanos: dict[str, int] = {}
        for rule in case.rules:
            started = time.perf_counter_ns() if record_timing else 0
            budget = RULES[rule].run(instance)[0]
            report = check_axiom(instance, budget, axiom)
            nanos[rule] = time.perf_counter_ns() - started if record_timing else 0
            verdicts[rule] = report.satisfied
        return trial, verdicts, nanos
    except (ValidationError, ContractError) as exc:
        raise ContractError(
            f"case {case.name!r} trial {trial} "
            f"(master_seed {case.culture.master_seed}) failed: {exc}"
        ) from exc


def _format_probability(satisfied: int, count: int) -> str:
    pct = (Decimal(100 * satisfied) / Decimal(count)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_EVEN
    )
    return str(pct)


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run every (case, rule) over max(trial_counts) trials and aggregate rows.

    Trial seeds depend only on (master_seed, trial index), and counts are
    prefix sums over the shared trial stream, so the result is independent of
    evaluation order and of ``workers``.
    """
    if workers is not None and (type(workers) is not int or workers < 1):
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    counts = sorted(config.trial_counts)
    max_trials = counts[-1]
    per_case: dict[str, tuple[CaseConfig, dict[str, list[bool]], dict[str, list[int]]]] = {}
    for case in config.cases:
        effective = replace(case, culture=replace(case.culture, master_seed=config.master_seed))
        job = partial(_evaluate_trial, effective, config.axiom, config.record_timing)
        if workers is not None and workers > 1:
            chunk = max(1, max_trials // (workers * 8))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                evaluated = list(pool.map(job, range(max_trials), chunksize=chunk))
        else:
            evaluated = [job(t) for t in range(max_trials)]
        evaluated.sort(key=lambda item: item[0])
        verdicts = {rule: [e[1][rule] for e in evaluated] for rule in case.rules}
        nanos = {rule: [e[2][rule] for e in evaluated] for rule in case.rules}
        per_case[case.name] = (effective, verdicts, nanos)
    rows: list[ResultRow] = []
    for count in counts:
        for case in config.cases:
            _, verdicts, nanos = per_case[case.name]
            for rule in case.rules:
                satisfied = sum(verdicts[rule][:count])
                elapsed_ms = sum(nanos[rule][:count]) // 1_000_000
                rows.append(
                    ResultRow(count, case.name, rule, _format_probability(satisfied, count), elapsed_ms)
                )
    return ExperimentResult(tuple(rows))


def replay_trial(config: ExperimentConfig, case_name: str, trial: int) -> dict:
    """Re-execute a single trial and report instance, budgets, and verdicts."""
    for case in config.cases:
        if case.name == case_name:
            break
    else:
        raise ValidationError(f"config has no case named {case_name!r}")
    if type(trial) is not int or trial < 0:
        raise ValidationError("trial index must be a non-negative integer")
    instance = generate(replace(case.culture, master_seed=config.master_seed), trial)
    results = {}
    for rule in case.rules:
        budget = RULES[rule].run(instance)[0]
        report = check_axiom(instance, budget, config.axiom)
        results[rule] = {"budget": budget_to_dict(budget), "report": report.to_dict()}
    return {
        "case": case_name,
        "trial": trial,
        "master_seed": config.master_seed,
        "axiom": config.axiom,
        "instance": instance_to_dict(instance),
        "results": results,
    }


# --- file emission --------------------------------------------------------------

def atomic_write_text(path: Path | str, text: str) -> Path:
    """Write via a uniquely named sibling temp file and rename, so concurrent
    writers do not collide and failures leave no partial or temp file. The temp
    file gets mode 0o666 less the umask, as ``open(path, "w")`` would give it."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_results_csv(result: ExperimentResult, path: Path | str) -> Path:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for row in result.rows:
        writer.writerow(
            (row.trial_count, row.case, row.rule, row.probability_pct, row.elapsed_ms)
        )
    return atomic_write_text(path, buf.getvalue())


def emit_plot_data(result: ExperimentResult, out_dir: Path | str) -> list[Path]:
    """One CSV per case with (trial_count, rule, probability), by trial count."""
    if not result.rows:
        raise ContractError("cannot emit plot data for an empty result")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    case_order: list[str] = []
    for row in result.rows:
        if row.case not in case_order:
            case_order.append(row.case)
    written = []
    for case in case_order:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(PLOT_HEADER)
        for row in result.rows:
            if row.case == case:
                writer.writerow((row.trial_count, row.rule, row.probability_pct))
        written.append(atomic_write_text(out_dir / f"plot_{case}.csv", buf.getvalue()))
    return written


def results_from_csv(path: Path | str) -> ExperimentResult:
    text = Path(path).read_text()
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ValidationError("results CSV is empty") from None
    if header != RESULTS_HEADER:
        raise ValidationError(f"unexpected results CSV header {header!r}")
    rows = []
    for lineno, record in enumerate(reader, start=2):
        if len(record) != len(RESULTS_HEADER):
            raise ValidationError(f"line {lineno}: expected {len(RESULTS_HEADER)} fields")
        count_s, case, rule, prob, elapsed_s = record
        try:
            _check_case_name(case)
            count = int(count_s)
            elapsed = int(elapsed_s)
            Decimal(prob)
        except (ValueError, ArithmeticError) as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
        rows.append(ResultRow(count, case, rule, prob, elapsed))
    return ExperimentResult(tuple(rows))


# --- config (de)serialization ------------------------------------------------------

def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "trial_counts": list(config.trial_counts),
        "axiom": config.axiom,
        "master_seed": config.master_seed,
        "record_timing": config.record_timing,
        "cases": [
            {
                "name": case.name,
                "rules": list(case.rules),
                "culture": culture_config_to_dict(case.culture),
            }
            for case in config.cases
        ],
    }


def experiment_config_from_dict(data: object) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValidationError("experiment config JSON must be an object")
    unknown = set(data) - {"trial_counts", "axiom", "master_seed", "record_timing", "cases"}
    if unknown:
        raise ValidationError(f"unknown experiment config fields: {sorted(unknown)}")
    if "trial_counts" not in data or "cases" not in data:
        raise ValidationError("experiment config needs 'trial_counts' and 'cases'")
    if not isinstance(data["trial_counts"], list):
        raise ValidationError("'trial_counts' must be a list")
    if not isinstance(data["cases"], list):
        raise ValidationError("'cases' must be a list")
    cases = []
    for entry in data["cases"]:
        if not isinstance(entry, dict) or "name" not in entry or "rules" not in entry:
            raise ValidationError("each case needs 'name' and 'rules'")
        if not isinstance(entry["rules"], list):
            raise ValidationError("case 'rules' must be a list")
        culture = culture_config_from_dict(entry.get("culture", {}))
        cases.append(CaseConfig(entry["name"], tuple(entry["rules"]), culture))
    record_timing = data.get("record_timing", False)
    if not isinstance(record_timing, bool):
        raise ValidationError("'record_timing' must be a boolean")
    return ExperimentConfig(
        trial_counts=tuple(data["trial_counts"]),
        cases=tuple(cases),
        axiom=data.get("axiom", UJR),
        master_seed=data.get("master_seed", 0),
        record_timing=record_timing,
    )
