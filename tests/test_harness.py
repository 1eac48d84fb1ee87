"""Experiment runner: config validation, nesting, determinism, CSV emission."""

from __future__ import annotations

import errno
import json
import os
import stat
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

from pbelect import harness
from pbelect.axioms import AXIOMS
from pbelect.core import ContractError, Instance, ValidationError, instance_to_dict
from pbelect.culture import BERNOULLI, CultureConfig, UNIFORM, equal_valued_culture, generate
from pbelect.harness import (
    CaseConfig,
    ExperimentConfig,
    ResultRow,
    _format_probability,
    atomic_write_texts,
    default_experiment_config,
    emit_plot_data,
    experiment_config_from_dict,
    experiment_config_to_dict,
    replay_trial,
    results_from_csv,
    run_experiment,
    write_results_csv,
)

from conftest import forbid_ballot_builds, probability


def small_config(**overrides) -> ExperimentConfig:
    settings = {
        "trial_counts": (5, 12),
        "cases": (
            CaseConfig("equal", ("sccr", "smr", "stv"), equal_valued_culture()),
            CaseConfig(
                "general",
                ("sccr",),
                CultureConfig(
                    cost_model=UNIFORM, limit_model="budget", m_range=(4, 8)
                ),
            ),
        ),
        "master_seed": 31,
    }
    settings.update(overrides)
    return ExperimentConfig(**settings)


# --- config validation -----------------------------------------------------------

def test_rejects_zero_trial_count():
    with pytest.raises(ValidationError):
        small_config(trial_counts=(0,))


def test_rejects_empty_trial_counts():
    with pytest.raises(ValidationError):
        small_config(trial_counts=())


def test_rejects_duplicate_trial_counts():
    with pytest.raises(ValidationError):
        small_config(trial_counts=(5, 5))


def test_rejects_smr_under_general_costs():
    with pytest.raises(ValidationError):
        CaseConfig(
            "general",
            ("sccr", "smr"),
            CultureConfig(cost_model=UNIFORM, limit_model="budget"),
        )


def test_rejects_stv_under_general_costs():
    with pytest.raises(ValidationError):
        CaseConfig(
            "general",
            ("stv",),
            CultureConfig(cost_model=UNIFORM, limit_model="budget"),
        )


def test_rejects_smr_on_non_unit_culture():
    with pytest.raises(ValidationError):
        CaseConfig(
            "equal", ("smr",), CultureConfig(cost_model=UNIFORM, limit_model="budget")
        )


def test_rejects_stv_without_rankings():
    with pytest.raises(ValidationError):
        CaseConfig("equal", ("stv",), CultureConfig(ballot_model=BERNOULLI))


def test_rejects_unknown_case_name():
    for name in ("", "a/b", "a:b", "a,b", "a b", "equal\n", 3):
        with pytest.raises(ValidationError, match="case name"):
            CaseConfig(name, ("sccr",), equal_valued_culture())


def test_rejects_unknown_or_malformed_rule():
    for rules in (("ejr",), (["sccr"],), ("sccr", "sccr"), ()):
        with pytest.raises(ValidationError):
            CaseConfig("equal", rules, equal_valued_culture())
    data = experiment_config_to_dict(small_config())
    data["cases"][0]["rules"] = [["sccr"]]
    with pytest.raises(ValidationError, match="unknown rule"):
        experiment_config_from_dict(data)


def test_cases_are_any_name_checked_against_rule_capabilities():
    cases = (
        CaseConfig("general", ("smr",), CultureConfig()),
        CaseConfig("mixed_2", ("stv", "sccr"), CultureConfig(limit_model="budget")),
    )
    rows = run_experiment(small_config(cases=cases, trial_counts=(4,)))
    assert [(row.case, row.rule) for row in rows] == [
        ("general", "smr"), ("mixed_2", "stv"), ("mixed_2", "sccr"),
    ]
    uniform = CultureConfig(cost_model=UNIFORM, limit_model="budget")
    for rule in ("smr", "stv"):
        with pytest.raises(ValidationError, match=f"rule '{rule}' needs unit costs"):
            CaseConfig("equal", (rule,), uniform)
    with pytest.raises(ValidationError, match="rule 'stv' needs rankings"):
        CaseConfig("equal", ("stv",), CultureConfig(ballot_model=BERNOULLI))


def test_rejects_unknown_axiom():
    with pytest.raises(ValidationError):
        small_config(axiom="ejr")


def test_config_dict_round_trip():
    config = small_config()
    assert experiment_config_from_dict(experiment_config_to_dict(config)) == config


def test_config_dict_rejects_unknown_field():
    data = experiment_config_to_dict(small_config())
    data["threads"] = 4
    with pytest.raises(ValidationError):
        experiment_config_from_dict(data)


# --- probability rendering ----------------------------------------------------------

@pytest.mark.parametrize(
    "satisfied,count,expected",
    [
        (1, 3, "33.33"),
        (2, 3, "66.67"),
        (1, 8, "12.50"),
        (0, 7, "0.00"),
        (7, 7, "100.00"),
        (9439, 10000, "94.39"),
        (1, 3000, "0.03"),
    ],
)
def test_probability_rendering(satisfied, count, expected):
    assert _format_probability(satisfied, count) == expected


# --- running ---------------------------------------------------------------------

def test_row_shape_and_bounds():
    rows = run_experiment(small_config())
    assert len(rows) == 2 * (3 + 1)
    for row in rows:
        assert Decimal("0") <= Decimal(row.probability_pct) <= Decimal("100")
        assert row.elapsed_ms == 0  # timing off by default


def test_rows_nest_across_trial_counts():
    config = small_config()
    rows = run_experiment(config)
    for case, rules in (("equal", ("sccr", "smr", "stv")), ("general", ("sccr",))):
        for rule in rules:
            verdicts = [
                replay_trial(config, case, t)["results"][rule]["report"]["satisfied"]
                for t in range(12)
            ]
            for count in (5, 12):
                expected = Decimal(100 * sum(verdicts[:count])) / Decimal(count)
                got = probability(rows, case, rule, count)
                assert abs(got - expected) <= Decimal("0.005")


def test_worker_count_never_changes_output(tmp_path):
    config = small_config()
    sequential = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    assert sequential == parallel
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(sequential, a)
    write_results_csv(parallel, b)
    assert a.read_bytes() == b.read_bytes()
    plots_a = emit_plot_data(sequential, tmp_path / "pa")
    plots_b = emit_plot_data(parallel, tmp_path / "pb")
    for pa, pb in zip(plots_a, plots_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_three_workers_give_the_serial_rows():
    config = small_config()
    assert run_experiment(config, workers=3) == run_experiment(config)


@pytest.mark.parametrize("workers, pools", [(None, 0), (1, 0), (2, 1)])
def test_one_pool_for_the_whole_study_and_none_when_serial(workers, pools, monkeypatch):
    import concurrent.futures

    created = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = small_config(trial_counts=(5,))
    assert len(config.cases) == 2
    run_experiment(config, workers=workers)
    assert len(created) == pools


def test_the_pool_has_no_more_processes_than_cpus(monkeypatch):
    """A process pool starts every one of its ``max_workers`` at the first
    submit, so a pool sized by ``workers`` alone would start 10**6 here; and
    a pool of one process would only add start-up, so one CPU runs serially."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = small_config(trial_counts=(5,))
    serial = run_experiment(config)
    for cpus, pools in ((4, [4]), (1, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_experiment(config, workers=10**6) == serial
        assert sizes == pools


def test_serial_commands_never_load_the_process_pool():
    src = str(Path(harness.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "import pbelect, pbelect.cli\n"
        "from pbelect.harness import default_experiment_config, run_experiment\n"
        "run_experiment(default_experiment_config(trial_counts=(5,)))\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_serial_study_folds_each_trial_as_it_arrives(monkeypatch):
    """Live trial results stay O(1), and elapsed_ms floors the summed ns, not
    each trial's share."""
    live = {"now": 0, "peak": 0}

    class Result(tuple):
        def __new__(cls, value):
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
            return super().__new__(cls, value)

        def __del__(self):
            live["now"] -= 1

    def stub(axiom, record_timing, job):
        rules = len(job[0].rules)
        return Result(((True,) * rules, (400_000,) * rules))

    monkeypatch.setattr(harness, "_evaluate_trial", stub)
    rows = run_experiment(small_config(trial_counts=(1000, 3, 7)))
    assert live["peak"] <= 2
    assert [(row.trial_count, row.case, row.rule) for row in rows] == [
        (count, case.name, rule)
        for count in (3, 7, 1000) for case in small_config().cases for rule in case.rules
    ]
    assert {row.probability_pct for row in rows} == {"100.00"}
    assert {(row.trial_count, row.elapsed_ms) for row in rows} == {(3, 1), (7, 2), (1000, 400)}


def test_timing_mode_fills_elapsed():
    config = small_config(record_timing=True, trial_counts=(5,))
    rows = run_experiment(config)
    assert all(row.elapsed_ms >= 0 for row in rows)


def test_master_seed_changes_general_outcomes():
    probs = set()
    for seed in range(6):
        rows = run_experiment(small_config(master_seed=seed, trial_counts=(12,)))
        probs.add(probability(rows, "general", "sccr", 12))
    assert len(probs) > 1


def test_master_seed_is_every_case_culture_seed():
    stray = CaseConfig("stray", ("sccr",), CultureConfig(master_seed=99))
    config = ExperimentConfig((5,), (stray,), master_seed=3)
    assert config.cases[0].culture.master_seed == 3
    assert experiment_config_to_dict(config)["cases"][0]["culture"]["master_seed"] == 3
    reseeded = replace(config, master_seed=4)
    assert reseeded.cases[0].culture.master_seed == 4
    assert replay_trial(reseeded, "stray", 2)["instance"] == instance_to_dict(
        generate(CultureConfig(master_seed=4), 2)
    )


def test_replay_unknown_case():
    with pytest.raises(ValidationError):
        replay_trial(small_config(), "nope", 0)


def test_the_study_and_replay_build_no_trace(monkeypatch):
    """A trial reads only each rule's budget, so no trace's entries are ever
    built: with every read of a trace's entries made to fail, the study and
    --replay return what they returned before."""
    from pbelect.rules import RuleTrace

    config = default_experiment_config(trial_counts=(50,))
    rows = run_experiment(config)
    replays = [replay_trial(config, case.name, 7) for case in config.cases]

    def unbuildable(trace: RuleTrace):
        raise AssertionError(f"a {trace.rule} trace's entries were built")

    monkeypatch.setattr(RuleTrace, "entries", property(unbuildable))
    assert run_experiment(config) == rows
    assert [replay_trial(config, case.name, 7) for case in config.cases] == replays


def test_the_study_replay_and_gen_build_no_ballots(monkeypatch, tmp_path):
    """The rules and the axiom check read an instance's approver masks and
    ``instance_to_dict`` writes its ballots from them, so no ballot set is
    ever built: with every read of an instance's ballots, generated or read
    from JSON, made to fail, the study, --replay, gen, run-rule under both scorings and
    both check-axioms return and write what they did before."""
    from pbelect.cli import main
    from pbelect.culture import culture_config_to_dict

    config = default_experiment_config(trial_counts=(50,))
    culture = tmp_path / "culture.json"
    culture.write_text(json.dumps(culture_config_to_dict(config.cases[1].culture)))

    def outputs(name: str) -> tuple:
        instance, budget, out = (tmp_path / f"{name}.{kind}.json" for kind in ("i", "b", "o"))
        assert main(["gen", "--config", str(culture), "--trial", "7", "--out", str(instance)]) == 0
        written = [instance.read_bytes()]
        for scoring in ("approval", "borda"):
            assert main([
                "run-rule", "--rule", "sccr", "--scoring", scoring, "--instance", str(instance),
                "--out", str(budget), "--trace", str(out),
            ]) == 0
            written += [budget.read_bytes(), out.read_bytes()]
            for axiom in AXIOMS:
                code = main([
                    "check-axiom", "--axiom", axiom, "--instance", str(instance),
                    "--budget", str(budget), "--out", str(out),
                ])
                written += [code, out.read_bytes()]
        replays = [replay_trial(config, case.name, 7) for case in config.cases]
        return run_experiment(config), replays, written

    before = outputs("before")
    forbid_ballot_builds(monkeypatch)
    assert outputs("after") == before
    with pytest.raises(AssertionError, match="an Instance's ballots were built"):
        generate(config.cases[0].culture, 7).ballots
    with pytest.raises(AssertionError, match="an Instance's ballots were built"):
        Instance([1, 1], [[0], [1]], 1).ballots


def test_trial_failure_reports_replay_coordinates(monkeypatch):
    from dataclasses import replace

    from pbelect.rules import RULES

    def boom(instance, *args):
        raise ContractError("synthetic failure")

    monkeypatch.setitem(RULES, "sccr", replace(RULES["sccr"], run=boom))
    with pytest.raises(ContractError, match=r"case 'equal' trial 0 \(master_seed 31\)"):
        run_experiment(small_config(trial_counts=(1,)))
    with pytest.raises(ContractError, match=r"case 'equal' trial 4 \(master_seed 31\)"):
        replay_trial(small_config(), "equal", 4)


# --- CSV emission -----------------------------------------------------------------

def test_results_csv_round_trip(tmp_path):
    rows = run_experiment(small_config())
    path = write_results_csv(rows, tmp_path / "results.csv")
    assert results_from_csv(path) == rows


def test_atomic_write_keeps_umask_mode(tmp_path):
    old = os.umask(0o027)
    try:
        [path] = atomic_write_texts([(tmp_path / "out.txt", "text\n")])
    finally:
        os.umask(old)
    assert path.read_text() == "text\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_over_an_existing_target_leaves_no_backup(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("OLD\n")
    atomic_write_texts([(target, "new\n")])
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _fail_renames_onto(monkeypatch, target: Path) -> None:
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == target:
            raise OSError("synthetic rename failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("before", ["", "file", "symlink"], ids=["new", "pre-existing", "symlink"])
def test_failed_rename_removes_only_the_targets_the_write_made(before, tmp_path, monkeypatch):
    """The second rename fails after the first succeeded: a first target the
    write made is removed, and one that was there before, a dangling symlink
    too, is put back from its backup."""
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    if before == "file":
        first.write_text("OLD\n")
    elif before == "symlink":
        first.symlink_to("elsewhere")
    _fail_renames_onto(monkeypatch, second)
    with pytest.raises(OSError, match="synthetic rename failure"):
        atomic_write_texts([(first, "new\n"), (second, "new\n")])
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == (["a.txt"] if before else [])
    if before == "file":
        assert first.read_text() == "OLD\n"
    elif before == "symlink":
        assert os.readlink(first) == "elsewhere"


def test_failed_rename_without_hard_links_keeps_the_new_bytes(tmp_path, monkeypatch):
    """Where the file system refuses a hard link, a target that was there
    before has no backup: it stays, with the bytes of its own rename."""
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("OLD\n")

    def link(*args, **kwargs):
        raise OSError(errno.EPERM, "synthetic link failure")

    monkeypatch.setattr(os, "link", link)
    _fail_renames_onto(monkeypatch, second)
    with pytest.raises(OSError, match="synthetic rename failure"):
        atomic_write_texts([(first, "new\n"), (second, "new\n")])
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    assert first.read_text() == "new\n"


@pytest.mark.parametrize(
    "rows",
    [(), (ResultRow(5, "a", "sccr", "40.00", 0), ResultRow(5, "a", "sccr", "60.00", 0))],
    ids=["empty", "repeated-row"],
)
def test_results_csv_refuses_what_it_could_not_read_back(rows, tmp_path):
    with pytest.raises(ContractError):
        write_results_csv(rows, tmp_path / "results.csv")
    assert list(tmp_path.iterdir()) == []


def test_results_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError):
        results_from_csv(path)


def test_plot_data_shape(tmp_path):
    config = default_experiment_config(trial_counts=(2, 3, 4, 5, 6, 7))
    rows = run_experiment(config)
    paths = emit_plot_data(rows, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["plot_equal.csv", "plot_general.csv"]
    equal_lines = (tmp_path / "plot_equal.csv").read_text().splitlines()
    general_lines = (tmp_path / "plot_general.csv").read_text().splitlines()
    assert equal_lines[0] == "trial_count,rule,probability"
    assert len(equal_lines) == 1 + 6 * 3  # six counts x three rules
    assert len(general_lines) == 1 + 6  # single series
    counts = [int(line.split(",")[0]) for line in equal_lines[1:]]
    assert counts == sorted(counts)


GOOD_ROW = {"trial_count": 5, "case": "a", "rule": "sccr", "probability_pct": "40.00", "elapsed_ms": 0}
# Each value results_from_csv rejects in a line, given to ResultRow directly.
BAD_ROW_VALUES = {
    "count-zero": {"trial_count": 0},
    "count-bool": {"trial_count": True},
    "count-str": {"trial_count": "5"},
    "case-colon": {"case": "a:b"},
    "case-empty": {"case": ""},
    "rule-empty": {"rule": ""},
    "rule-unknown": {"rule": "borda"},
    **{
        f"probability-{pct}": {"probability_pct": pct}
        for pct in ("040.00", "40.0000", "40", "40.0", " 40.00", "50.00", "-0.00", "100.01",
                    "NaN", "sNaN", "Infinity", "1e999999", "4e1")
    },
    "probability-float": {"probability_pct": 40.0},
    "probability-none": {"probability_pct": None},
    "elapsed-negative": {"elapsed_ms": -1},
    "elapsed-float": {"elapsed_ms": 0.0},
}


@pytest.mark.parametrize("change", list(BAD_ROW_VALUES.values()), ids=list(BAD_ROW_VALUES))
def test_result_row_rejects_what_results_csv_rejects(change):
    ResultRow(**GOOD_ROW)
    with pytest.raises(ValidationError):
        ResultRow(**{**GOOD_ROW, **change})


@pytest.mark.parametrize("count", [1, 3, 7, 300])
def test_result_row_takes_exactly_the_rendered_probabilities(count):
    rendered = {_format_probability(k, count) for k in range(count + 1)}
    for hundredths in range(10_001):
        pct = f"{hundredths // 100}.{hundredths % 100:02d}"
        try:
            ResultRow(count, "a", "sccr", pct, 0)
        except ValidationError:
            assert pct not in rendered
        else:
            assert pct in rendered


def test_result_row_takes_every_rendering_of_large_counts():
    for count in (9_999, 10_000, 10_001, 123_457):
        for k in range(0, count + 1, 7):
            ResultRow(count, "a", "sccr", _format_probability(k, count), 0)


def test_plot_data_sorts_each_case_by_trial_count(tmp_path):
    rows = tuple(
        ResultRow(count, case, rule, "100.00", 0)
        for count in (9, 2, 5) for case in ("b", "a") for rule in ("stv", "sccr")
    )
    emit_plot_data(rows, tmp_path)
    expected = "".join(f"{count},{rule},100.00\n" for count in (2, 5, 9) for rule in ("stv", "sccr"))
    for case in ("a", "b"):
        assert (tmp_path / f"plot_{case}.csv").read_text() == "trial_count,rule,probability\n" + expected


def test_plot_data_refuses_empty_result(tmp_path):
    with pytest.raises(ContractError):
        emit_plot_data((), tmp_path)


def test_plot_data_writes_every_case_or_none(tmp_path):
    """A target that cannot be replaced takes back the files already in place."""
    rows = tuple(ResultRow(1, case, "sccr", "100.00", 0) for case in ("a", "b"))
    (tmp_path / "plot_b.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        emit_plot_data(rows, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["plot_b.csv"]
    assert list((tmp_path / "plot_b.csv").iterdir()) == []
