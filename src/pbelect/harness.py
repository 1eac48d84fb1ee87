"""Monte Carlo experiment runner: generate instances, run rules, check axioms.

Trial t uses the same instance in every row that includes it (seed streams are
nested) and aggregation is a commutative count. Every trial is timed, but only
with ``record_timing`` does the elapsed_ms column show the measured wall time
(cumulative over the row's trials), the one scheduling-dependent output; off by
default it reads 0, so the CSVs are byte-identical whatever the worker count.
"""

from __future__ import annotations

import errno
import os
import re
import sys
import time
from collections.abc import Iterable, Iterator
from contextlib import suppress
from dataclasses import astuple, dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal
from functools import partial
from itertools import islice
from operator import attrgetter
from pathlib import Path

from .axioms import AXIOMS, UJR, check_axiom
from .core import (
    ContractError,
    ValidationError,
    as_tuple,
    budget_to_dict,
    instance_to_dict,
    json_object,
)
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
        _check_case_name(self.name)
        object.__setattr__(self, "rules", as_tuple(self.rules, f"case {self.name!r} rules"))
        if not isinstance(self.culture, CultureConfig):
            raise ValidationError(f"case {self.name!r} culture must be a CultureConfig")
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
    """Full study description; master_seed replaces every case's culture seed."""

    trial_counts: tuple[int, ...]
    cases: tuple[CaseConfig, ...]
    axiom: str = UJR
    master_seed: int = 0
    record_timing: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "trial_counts", as_tuple(self.trial_counts, "trial_counts"))
        object.__setattr__(self, "cases", as_tuple(self.cases, "cases"))
        if not self.trial_counts:
            raise ValidationError("trial_counts must not be empty")
        for count in self.trial_counts:
            if type(count) is not int or count < 1:
                raise ValidationError("every trial count must be a positive integer")
        if len(set(self.trial_counts)) != len(self.trial_counts):
            raise ValidationError("trial_counts repeats a value")
        if not self.cases:
            raise ValidationError("at least one case is required")
        if not all(isinstance(case, CaseConfig) for case in self.cases):
            raise ValidationError("every case must be a CaseConfig")
        # each case's CultureConfig checks master_seed
        object.__setattr__(self, "cases", tuple(
            replace(case, culture=replace(case.culture, master_seed=self.master_seed))
            for case in self.cases
        ))
        names = [case.name for case in self.cases]
        if len(set(names)) != len(names):
            raise ValidationError("case names must be unique")
        if self.axiom not in AXIOMS:
            raise ValidationError(f"unknown axiom {self.axiom!r}")
        if type(self.record_timing) is not bool:
            raise ValidationError("record_timing must be a boolean")


@dataclass(frozen=True)
class ResultRow:
    trial_count: int
    case: str
    rule: str
    probability_pct: str
    elapsed_ms: int

    def __post_init__(self) -> None:
        if type(self.trial_count) is not int or self.trial_count < 1:
            raise ValidationError(f"trial_count {self.trial_count!r} is not a positive integer")
        _check_case_name(self.case)
        if self.rule not in RULES:
            raise ValidationError(f"unknown rule {self.rule!r}; expected one of {tuple(RULES)}")
        # a rendering is within 0.005 of 100k/count: the k nearest pct * count / 100 will do
        try:
            share = Decimal(self.probability_pct) * self.trial_count / 100
            k = int(share.to_integral_value()) if 0 <= share <= self.trial_count else -1
        except (ArithmeticError, TypeError, ValueError):  # not a decimal, or NaN
            k = -1
        if k < 0 or _format_probability(k, self.trial_count) != self.probability_pct:
            raise ValidationError(f"probability {self.probability_pct!r} is not k/{self.trial_count} in %")
        if type(self.elapsed_ms) is not int or self.elapsed_ms < 0:
            raise ValidationError(f"elapsed_ms {self.elapsed_ms!r} is not a non-negative integer")


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


def _run_trial(case: CaseConfig, trial: int, axiom: str):
    """The trial's instance and, per rule of the case in its order, the rule's
    budget, axiom report and nanoseconds, always measured; a failing rule
    raises ContractError with the trial's ``--replay`` coordinates."""
    instance = generate(case.culture, trial)
    results = []
    try:
        for rule in case.rules:
            started = time.perf_counter_ns()
            budget = RULES[rule].run(instance)[0]
            report = check_axiom(instance, budget, axiom)
            results.append((budget, report, time.perf_counter_ns() - started))
    except (ValidationError, ContractError) as exc:
        raise ContractError(
            f"case {case.name!r} trial {trial} "
            f"(master_seed {case.culture.master_seed}) failed: {exc}"
        ) from exc
    return instance, results


def _evaluate_trial(axiom: str, job: tuple[CaseConfig, int]) -> tuple[tuple[bool, int], ...]:
    """A ``(satisfied, ns)`` pair per rule of the case, in its rule order; the
    ns is always measured, and ``_aggregate`` decides whether a row shows it."""
    return tuple([(report.satisfied, ns) for _, report, ns in _run_trial(*job, axiom)[1]])


def _format_probability(satisfied: int, count: int) -> str:
    pct = (Decimal(100 * satisfied) / Decimal(count)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_EVEN
    )
    return str(pct)


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> tuple[ResultRow, ...]:
    """Run every (case, rule) over max(trial_counts) trials and aggregate rows.

    Trial seeds depend only on (master_seed, trial index), and counts are
    prefix sums over the shared trial stream, so the result is independent of
    evaluation order and of ``workers``. Trials are folded into running counts
    as they arrive, so memory does not grow with the number of trials. A
    worker process that dies ends the run in ContractError.
    """
    if workers is not None and (type(workers) is not int or workers < 1):
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    max_trials = max(config.trial_counts)
    jobs = ((case, trial) for case in config.cases for trial in range(max_trials))
    job = partial(_evaluate_trial, config.axiom)
    # a pool starts all its processes at the first submit: no more than CPUs, and none for one
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # one pool for every case; map returns results in job order
        chunk = max(1, len(config.cases) * max_trials // (workers * 8))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return _aggregate(config, pool.map(job, jobs, chunksize=chunk))
        except BrokenProcessPool as exc:
            raise ContractError(f"a worker process died: {exc}") from exc
    return _aggregate(config, map(job, jobs))


def _aggregate(config: ExperimentConfig, evaluated: Iterator) -> tuple[ResultRow, ...]:
    """Rows ordered by (trial count, case, rule) from ``evaluated``, the
    trials' ``_evaluate_trial`` pairs in job order, read once: each case keeps
    a running count and ns sum per rule and snapshots them at every trial
    count; elapsed_ms shows the ns sum only with ``record_timing``."""
    rows = []
    counts = sorted(config.trial_counts)
    for case in config.cases:
        satisfied = [0] * len(case.rules)
        nanos = [0] * len(case.rules)
        done = 0
        for count in counts:
            for pairs in islice(evaluated, count - done):
                for r, (verdict, ns) in enumerate(pairs):
                    satisfied[r] += verdict
                    nanos[r] += ns
            done = count
            elapsed = [ns // 1_000_000 if config.record_timing else 0 for ns in nanos]
            rows.extend(
                ResultRow(count, case.name, rule, _format_probability(satisfied[r], count), elapsed[r])
                for r, rule in enumerate(case.rules)
            )
    return tuple(sorted(rows, key=attrgetter("trial_count")))  # stable: case and rule order stay


def replay_trial(config: ExperimentConfig, case_name: str, trial: int) -> dict:
    """Re-execute a single trial and report instance, budgets, and verdicts."""
    for case in config.cases:
        if case.name == case_name:
            break
    else:
        raise ValidationError(f"config has no case named {case_name!r}")
    instance, results = _run_trial(case, trial, config.axiom)
    return {
        "case": case_name,
        "trial": trial,
        "master_seed": config.master_seed,
        "axiom": config.axiom,
        "instance": instance_to_dict(instance),
        "results": {
            rule: {"budget": budget_to_dict(budget), "report": report.to_dict()}
            for rule, (budget, report, _) in zip(case.rules, results)
        },
    }


# --- file emission --------------------------------------------------------------

def atomic_write_texts(outputs: Iterable[tuple[Path | str | None, str]]) -> list[Path]:
    """Write each ``(path, text)``, all or none, a None path being stdout: every
    file text goes to a uniquely named sibling temp file before any is renamed
    over its target, so concurrent writers do not collide, and a target that is
    a directory is refused before any rename. Before the renames, each target
    that was there before gets a hard link beside it, ``pbelect.<16 hex>.bak``;
    after them, the stdout texts are written and flushed. A failure, stdout's
    included, removes every temp file and every target the call created and
    renames each backup back over its target; success removes the backups.
    Where the file system refuses the hard link (OSError), that target has no
    backup: a failure keeps it, with the new bytes if its own rename succeeded
    before a later step failed. Temp files get mode 0o666 less the umask, as
    ``open(path, "w")`` would give them."""
    staged: list[tuple[Path, Path]] = []
    existing: set[Path] = set()  # targets there before the call, which a failure keeps
    backups: dict[Path, Path] = {}  # existing target -> its hard link
    replaced: list[Path] = []
    stdout: list[str] = []
    try:
        for path, text in outputs:
            if path is None:
                stdout.append(text)
                continue
            if path == "":  # Path("") is ".", a directory the caller never named
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            path = Path(path)
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            if os.path.lexists(path):
                existing.add(path)
            # not the target's name, which may already be as long as a name can be
            tmp = path.parent / f"pbelect.{os.urandom(8).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, path))
            with open(fd, "w") as fh:
                fh.write(text)
        for path in existing:
            backup = path.parent / f"pbelect.{os.urandom(8).hex()}.bak"
            try:
                os.link(path, backup, follow_symlinks=False)
            except OSError:
                continue
            backups[path] = backup
        for tmp, path in staged:
            os.replace(tmp, path)
            replaced.append(path)
        if stdout:
            if sys.stdout is None:  # Python's stdout when descriptor 1 is closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.writelines(stdout)
            sys.stdout.flush()
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for path in replaced:
            if path in backups:
                os.replace(backups.pop(path), path)
            elif path not in existing:
                path.unlink(missing_ok=True)
        # a target never renamed over still is its backup's file, which
        # os.replace would leave under both names
        for backup in backups.values():
            backup.unlink(missing_ok=True)
        raise
    for backup in backups.values():
        backup.unlink()
    return [path for _, path in staged]


def _csv_line(fields: tuple) -> str:
    """One CSV line: no field this module writes holds a comma, quote or newline."""
    return ",".join(map(str, fields)) + "\n"


def _results_text(rows: tuple[ResultRow, ...]) -> str:
    """results.csv for ``rows``; refuses what ``results_from_csv`` would
    refuse to read back."""
    if not rows:
        raise ContractError("cannot write results.csv for an empty result")
    if len({(row.trial_count, row.case, row.rule) for row in rows}) != len(rows):
        raise ContractError("cannot write results.csv: a (trial_count, case, rule) row repeats")
    return _csv_line(RESULTS_HEADER) + "".join([_csv_line(astuple(row)) for row in rows])


def _plot_outputs(rows: tuple[ResultRow, ...]) -> list[tuple[str, str]]:
    """One ``(plot_<case>.csv, text)`` per case, each with
    (trial_count, rule, probability) by trial count."""
    if not rows:
        raise ContractError("cannot emit plot data for an empty result")
    outputs = []
    for case in dict.fromkeys(row.case for row in rows):
        series = sorted([row for row in rows if row.case == case], key=attrgetter("trial_count"))
        text = _csv_line(PLOT_HEADER) + "".join(
            [_csv_line((row.trial_count, row.rule, row.probability_pct)) for row in series]
        )
        outputs.append((f"plot_{case}.csv", text))
    return outputs


def write_results_csv(rows: tuple[ResultRow, ...], path: Path | str) -> Path:
    """Write ``rows`` as results.csv; refuses, before any file exists, what
    ``results_from_csv`` would refuse to read back."""
    return atomic_write_texts([(path, _results_text(rows))])[0]


def _write_in_dir(out_dir: Path | str, outputs: list[tuple[str, str]], tail: str | None = None) -> list[Path]:
    """``atomic_write_texts`` of each ``(name, text)`` as ``out_dir``/name and,
    given a ``tail``, of one ``wrote <path>`` line per file and then ``tail``
    to stdout, after making ``out_dir`` and its missing parents; a failure
    removes the directories that were missing, deepest first, so it leaves
    none behind. An empty ``out_dir`` is refused as ``mkdir ""`` refuses it."""
    if out_dir == "":  # Path("") is ".", a directory the caller never named
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_dir)
    out_dir = Path(out_dir)
    missing = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    writes = [(out_dir / name, text) for name, text in outputs]
    if tail is not None:
        writes.append((None, "".join([f"wrote {path}\n" for path, _ in writes]) + tail))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return atomic_write_texts(writes)
    except BaseException:
        for path in missing:
            with suppress(OSError):  # not made, or no longer empty
                path.rmdir()
        raise


def emit_plot_data(rows: tuple[ResultRow, ...], out_dir: Path | str, tail: str | None = None) -> list[Path]:
    """One CSV per case with (trial_count, rule, probability), by trial count;
    all of them or none, with the stdout ``tail`` of ``_write_in_dir``."""
    return _write_in_dir(out_dir, _plot_outputs(rows), tail)


def write_study_csvs(rows: tuple[ResultRow, ...], out_dir: Path | str, tail: str | None = None) -> list[Path]:
    """``out_dir``/results.csv, then the plot CSVs, all of them or none, with
    the stdout ``tail`` of ``_write_in_dir``."""
    return _write_in_dir(out_dir, [("results.csv", _results_text(rows)), *_plot_outputs(rows)], tail)


def results_from_csv(path: Path | str) -> tuple[ResultRow, ...]:
    """The rows of a results CSV that ``write_results_csv`` writes back byte
    for byte: a row per line between the header and the final newline."""
    try:
        text = Path(path).read_bytes().decode("utf-8")  # not read_text: it turns \r\n into \n
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    lines = text.split("\n")
    rows = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        try:  # a wrong field count, a bad int() and a ValidationError are ValueErrors
            count, case, rule, prob, elapsed = line.split(",")
            rows.append(ResultRow(int(count), case, rule, prob, int(elapsed)))
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    try:
        written = _results_text(tuple(rows)).split("\n")
    except ContractError as exc:  # no rows, or a repeated row
        raise ValidationError(f"{path}: {exc}") from None
    # equal lengths: the header, a line per row, then what follows the last newline
    for lineno, (line, expected) in enumerate(zip(lines, written), start=1):
        if line != expected:
            raise ValidationError(f"line {lineno}: {line!r} is not written as {expected!r}")
    return tuple(rows)


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
    data = json_object(
        data, "experiment config", ("trial_counts", "cases"), ("axiom", "master_seed", "record_timing")
    )
    cases = data["cases"]
    if type(cases) is list:  # anything else is left for ExperimentConfig to reject
        cases = [_case_from_dict(entry, data.get("master_seed", 0)) for entry in cases]
    return ExperimentConfig(**{**data, "cases": cases})


def _case_from_dict(data: object, master_seed: object) -> CaseConfig:
    data = json_object(data, "case", ("name", "rules"), ("culture",))
    culture = culture_config_from_dict(data.get("culture", {}))
    # a stated seed must be the experiment's: ExperimentConfig replaces it without a word
    if "master_seed" in data.get("culture", {}) and culture.master_seed != master_seed:
        raise ValidationError(
            f"case {data['name']!r} culture master_seed {culture.master_seed} "
            f"is not the experiment's master_seed {master_seed!r}"
        )
    return CaseConfig(data["name"], data["rules"], culture)
