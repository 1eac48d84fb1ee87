"""Experiment runner: config validation, nesting, determinism, CSV emission."""

from __future__ import annotations

import os
import stat
from decimal import Decimal

import pytest

from pbelect.core import ContractError, ValidationError
from pbelect.culture import BERNOULLI, CultureConfig, UNIFORM, equal_valued_culture
from pbelect.harness import (
    CaseConfig,
    ExperimentConfig,
    _format_probability,
    atomic_write_text,
    default_experiment_config,
    emit_plot_data,
    experiment_config_from_dict,
    experiment_config_to_dict,
    replay_trial,
    results_from_csv,
    run_experiment,
    write_results_csv,
)


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
    result = run_experiment(small_config(cases=cases, trial_counts=(4,)))
    assert [(row.case, row.rule) for row in result.rows] == [
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
    result = run_experiment(small_config())
    assert len(result.rows) == 2 * (3 + 1)
    for row in result.rows:
        assert Decimal("0") <= Decimal(row.probability_pct) <= Decimal("100")
        assert row.elapsed_ms == 0  # timing off by default


def test_rows_nest_across_trial_counts():
    config = small_config()
    result = run_experiment(config)
    for case, rules in (("equal", ("sccr", "smr", "stv")), ("general", ("sccr",))):
        for rule in rules:
            verdicts = [
                replay_trial(config, case, t)["results"][rule]["report"]["satisfied"]
                for t in range(12)
            ]
            for count in (5, 12):
                expected = Decimal(100 * sum(verdicts[:count])) / Decimal(count)
                got = result.probability(case, rule, count)
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


def test_timing_mode_fills_elapsed():
    config = small_config(record_timing=True, trial_counts=(5,))
    result = run_experiment(config)
    assert all(row.elapsed_ms >= 0 for row in result.rows)


def test_master_seed_changes_general_outcomes():
    probs = set()
    for seed in range(6):
        result = run_experiment(small_config(master_seed=seed, trial_counts=(12,)))
        probs.add(result.probability("general", "sccr", 12))
    assert len(probs) > 1


def test_replay_unknown_case():
    with pytest.raises(ValidationError):
        replay_trial(small_config(), "nope", 0)


def test_trial_failure_reports_replay_coordinates(monkeypatch):
    from dataclasses import replace

    from pbelect.rules import RULES

    def boom(instance, *args):
        raise ContractError("synthetic failure")

    monkeypatch.setitem(RULES, "sccr", replace(RULES["sccr"], run=boom))
    with pytest.raises(ContractError, match=r"case 'equal' trial 0 \(master_seed 31\)"):
        run_experiment(small_config(trial_counts=(1,)))


# --- CSV emission -----------------------------------------------------------------

def test_results_csv_round_trip(tmp_path):
    result = run_experiment(small_config())
    path = write_results_csv(result, tmp_path / "results.csv")
    assert results_from_csv(path) == result


def test_atomic_write_keeps_umask_mode(tmp_path):
    old = os.umask(0o027)
    try:
        path = atomic_write_text(tmp_path / "out.txt", "text\n")
    finally:
        os.umask(old)
    assert path.read_text() == "text\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_results_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError):
        results_from_csv(path)


def test_plot_data_shape(tmp_path):
    config = default_experiment_config(trial_counts=(2, 3, 4, 5, 6, 7))
    result = run_experiment(config)
    paths = emit_plot_data(result, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["plot_equal.csv", "plot_general.csv"]
    equal_lines = (tmp_path / "plot_equal.csv").read_text().splitlines()
    general_lines = (tmp_path / "plot_general.csv").read_text().splitlines()
    assert equal_lines[0] == "trial_count,rule,probability"
    assert len(equal_lines) == 1 + 6 * 3  # six counts x three rules
    assert len(general_lines) == 1 + 6  # single series
    counts = [int(line.split(",")[0]) for line in equal_lines[1:]]
    assert counts == sorted(counts)


def test_plot_data_refuses_empty_result(tmp_path):
    from pbelect.harness import ExperimentResult

    with pytest.raises(ContractError):
        emit_plot_data(ExperimentResult(()), tmp_path)
