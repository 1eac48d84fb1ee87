"""End-to-end CLI flows, exit codes, and file-format round trips."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pytest

from pbelect.cli import _build_parser, main
from pbelect.core import (
    ContractError,
    budget_to_dict,
    instance_from_dict,
    instance_to_dict,
    make_instance,
)
from pbelect.culture import culture_config_to_dict, equal_valued_culture
from pbelect.harness import experiment_config_to_dict
from pbelect.rules import RULES, committee_size, seq_chamberlin_courant, seq_monroe, stv
from test_harness import small_config


@pytest.fixture
def instance_file(tmp_path, i_a):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_dict(i_a)))
    return path


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


# --- gen ------------------------------------------------------------------------

def test_gen_writes_valid_instance(tmp_path):
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(equal_valued_culture()))
    out = tmp_path / "instance.json"
    assert main(["gen", "--config", str(config), "--trial", "5", "--out", str(out)]) == 0
    inst = instance_from_dict(json.loads(out.read_text()))
    assert inst.n >= 1


def test_gen_is_reproducible(tmp_path):
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(equal_valued_culture()))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--config", str(config), "--trial", "5", "--out", str(a)])
    main(["gen", "--config", str(config), "--trial", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_seed_override_changes_draw(tmp_path):
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(equal_valued_culture()))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--config", str(config), "--trial", "5", "--out", str(a)])
    main(["gen", "--config", str(config), "--trial", "5", "--seed", "99", "--out", str(b)])
    assert a.read_text() != b.read_text()


def test_gen_rejects_bad_config(tmp_path, capsys):
    config = write_json(tmp_path / "culture.json", {"m_range": [1, 2]})
    code = main(["gen", "--config", str(config), "--trial", "0", "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid-input:")
    assert not (tmp_path / "x.json").exists()


# --- run-rule ----------------------------------------------------------------------

def test_run_rule_sccr_stdout(instance_file, capsys):
    assert main(["run-rule", "--rule", "sccr", "--instance", str(instance_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"selected": [0, 1], "total_cost": 2}


def test_run_rule_writes_trace(tmp_path, instance_file):
    out = tmp_path / "budget.json"
    trace = tmp_path / "trace.json"
    code = main([
        "run-rule", "--rule", "smr", "--instance", str(instance_file),
        "--out", str(out), "--trace", str(trace),
    ])
    assert code == 0
    payload = json.loads(trace.read_text())
    assert payload["rule"] == "smr"
    assert "assignment" in payload
    assert json.loads(out.read_text())["selected"] == [0, 1]


def test_run_rule_stv_with_quota(tmp_path, i_d, capsys):
    path = write_json(tmp_path / "ranked.json", instance_to_dict(i_d))
    code = main(["run-rule", "--rule", "stv", "--instance", str(path), "--quota", "droop"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["selected"] == [0, 1]


def test_run_rule_borda_without_rankings_is_config_error(instance_file, capsys):
    code = main([
        "run-rule", "--rule", "sccr", "--instance", str(instance_file),
        "--scoring", "borda",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: contract:")


# Each rule called directly, returning its budget and the trace JSON that
# run-rule has always written for it.

def _sccr_direct(instance):
    budget, trace = seq_chamberlin_courant(instance)
    return budget, trace.to_dict()


def _smr_direct(instance):
    budget, assignment, trace = seq_monroe(instance)
    payload = trace.to_dict()
    payload["assignment"] = {
        "capacity": assignment.capacity,
        "rep": {str(v): p for v, p in sorted(assignment.rep.items())},
    }
    return budget, payload


def _stv_direct(instance):
    budget, trace = stv(instance, committee_size(instance))
    return budget, trace.to_dict()


DIRECT = {"sccr": _sccr_direct, "smr": _smr_direct, "stv": _stv_direct}


def test_rule_choices_are_the_registry():
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    rule = next(a for a in subparsers.choices["run-rule"]._actions if a.dest == "rule")
    assert tuple(rule.choices) == tuple(RULES) == tuple(DIRECT)


@pytest.mark.parametrize("fixture", ["i_a", "i_b", "i_c", "i_d", "i_e"])
@pytest.mark.parametrize("rule", list(RULES))
def test_run_rule_matches_direct_call(rule, fixture, request, tmp_path, capsys):
    instance = request.getfixturevalue(fixture)
    path = write_json(tmp_path / "inst.json", instance_to_dict(instance))
    out, trace = tmp_path / "budget.json", tmp_path / "trace.json"
    code = main([
        "run-rule", "--rule", rule, "--instance", str(path),
        "--out", str(out), "--trace", str(trace),
    ])
    try:
        budget, payload = DIRECT[rule](instance)
    except ContractError:
        assert code == 2
        assert not out.exists() and not trace.exists()
        return
    assert code == 0
    assert out.read_text() == json.dumps(budget_to_dict(budget), indent=2) + "\n"
    assert trace.read_text() == json.dumps(payload, indent=2) + "\n"


def test_run_rule_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run-rule", "--rule", "sccr", "--instance", str(bad)]) == 1
    assert "error: invalid-input:" in capsys.readouterr().err


def test_run_rule_missing_file(tmp_path, capsys):
    missing = tmp_path / "nothing.json"
    assert main(["run-rule", "--rule", "sccr", "--instance", str(missing)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_failed_write_leaves_no_temp_file(tmp_path, instance_file, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    code = main(["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--out", str(target)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io-error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instance.json", "taken"]
    assert list(target.iterdir()) == []


# --- check-axiom ----------------------------------------------------------------------

def test_check_axiom_violation_exits_3(tmp_path, i_e, capsys):
    inst = write_json(tmp_path / "inst.json", instance_to_dict(i_e))
    budget = write_json(tmp_path / "budget.json", {"selected": [2, 3], "total_cost": 2})
    code = main(["check-axiom", "--axiom", "ujr", "--instance", str(inst), "--budget", str(budget)])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["witness"] == {"project": 0, "voters": [0, 1]}


def test_check_axiom_satisfied_exits_0(tmp_path, i_e, capsys):
    inst = write_json(tmp_path / "inst.json", instance_to_dict(i_e))
    budget = write_json(tmp_path / "budget.json", {"selected": [0, 1]})
    code = main(["check-axiom", "--axiom", "strong-bjr", "--instance", str(inst), "--budget", str(budget)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["satisfied"] is True


def test_check_axiom_no_partial_output_on_contract_error(tmp_path, capsys):
    infeasible = make_instance([2, 2], [{0}, {1}], 2)
    inst = write_json(tmp_path / "inst.json", instance_to_dict(infeasible))
    budget = write_json(tmp_path / "budget.json", {"selected": [0, 1]})
    out = tmp_path / "report.json"
    code = main([
        "check-axiom", "--axiom", "ujr", "--instance", str(inst),
        "--budget", str(budget), "--out", str(out),
    ])
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: contract:")


# --- malformed input values ------------------------------------------------------------

I_A = instance_to_dict(make_instance([1, 1, 1], [{0}, {0}, {1}, {2}], 2))

# Each command that reads a JSON file, with that file as {a} and its output as {out}.
JSON_READERS = {
    "run-rule": ["run-rule", "--rule", "sccr", "--instance", "{a}", "--out", "{out}"],
    "check-axiom": [
        "check-axiom", "--axiom", "ujr", "--instance", "{a}", "--budget", "{a}", "--out", "{out}",
    ],
    "gen": ["gen", "--config", "{a}", "--trial", "0", "--out", "{out}"],
    "experiment": ["experiment", "--config", "{a}", "--out-dir", "{out}"],
}
# Files that json cannot read: not UTF-8, nested past the recursion limit, an
# integer past the digit limit of int().
UNREADABLE_JSON = {
    "not-utf8": b"\xff\xfe{}",
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    "long-int": b'{"limit": ' + b"9" * 5000 + b"}",
}
MALFORMED = {
    "ballot-of-lists": (
        JSON_READERS["run-rule"], {"a": {**I_A, "ballots": [[[0]]]}},
    ),
    "project-id-string": (
        JSON_READERS["run-rule"],
        {"a": {**I_A, "projects": [{"id": 0, "cost": 1}, {"id": "a", "cost": 1}]}},
    ),
    "ranking-of-lists": (
        JSON_READERS["run-rule"], {"a": {**I_A, "rankings": [[[0], 1, 2]] * 4}},
    ),
    "selected-of-lists": (
        ["check-axiom", "--axiom", "ujr", "--instance", "{a}", "--budget", "{b}", "--out", "{out}"],
        {"a": I_A, "b": {"selected": [[0]]}},
    ),
    "cost-min-string": (
        JSON_READERS["gen"],
        {"a": {"cost_model": "uniform", "limit_model": "budget", "cost_min": "a"}},
    ),
    "approval-prob-string": (
        JSON_READERS["gen"], {"a": {"ballot_model": "bernoulli", "approval_prob": "x"}},
    ),
    **{
        f"{command}-{name}": (argv, {"a": raw})
        for command, argv in JSON_READERS.items()
        for name, raw in UNREADABLE_JSON.items()
    },
    "plot-data-not-utf8": (
        ["plot-data", "--results", "{a}", "--out-dir", "{out}"],
        {"a": b"trial_count,case,rule,probability_pct,elapsed_ms\n5,a,sccr,\xff,0\n"},
    ),
}


@pytest.mark.parametrize("argv, inputs", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_values_exit_1_with_one_error_line(argv, inputs, tmp_path, capsys):
    paths = {}
    for key, data in inputs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    code = main([arg.format(out=tmp_path / "out", **paths) for arg in argv])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-input:")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{key}.json" for key in inputs)


# --- gen | run-rule | check-axiom round trip ----------------------------------------------

def test_generated_instances_flow_through_unmodified(tmp_path):
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(equal_valued_culture()))
    inst = tmp_path / "inst.json"
    budget = tmp_path / "budget.json"
    report = tmp_path / "report.json"
    assert main(["gen", "--config", str(config), "--trial", "3", "--out", str(inst)]) == 0
    assert main(["run-rule", "--rule", "stv", "--instance", str(inst), "--out", str(budget)]) == 0
    code = main([
        "check-axiom", "--axiom", "ujr", "--instance", str(inst),
        "--budget", str(budget), "--out", str(report),
    ])
    assert code in (0, 3)
    assert json.loads(report.read_text())["axiom"] == "ujr"


# --- experiment and plot-data ---------------------------------------------------------

def test_experiment_and_plot_data_round_trip(tmp_path, capsys):
    config = write_json(
        tmp_path / "exp.json", experiment_config_to_dict(small_config(trial_counts=(4, 9)))
    )
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    results = out_dir / "results.csv"
    lines = results.read_text().splitlines()
    assert lines[0] == "trial_count,case,rule,probability_pct,elapsed_ms"
    assert len(lines) == 1 + 2 * 4  # two counts x (3 equal rules + 1 general)
    capsys.readouterr()

    replot = tmp_path / "replot"
    assert main(["plot-data", "--results", str(results), "--out-dir", str(replot)]) == 0
    for name in ("plot_equal.csv", "plot_general.csv"):
        assert (replot / name).read_bytes() == (out_dir / name).read_bytes()


def test_experiment_replay_prints_verdicts(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", experiment_config_to_dict(small_config()))
    code = main(["experiment", "--config", str(config), "--replay", "equal:3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trial"] == 3
    assert set(payload["results"]) == {"sccr", "smr", "stv"}


def test_experiment_rejects_bad_replay_spec(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", experiment_config_to_dict(small_config()))
    assert main(["experiment", "--config", str(config), "--replay", "equal"]) == 1
    assert "CASE:TRIAL" in capsys.readouterr().err


def test_experiment_rejects_invalid_config(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", {"trial_counts": [0], "cases": []})
    assert main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: invalid-input:")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_experiment_rejects_workers_below_one(workers, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["experiment", "--workers", workers, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid-input:")
    assert not out_dir.exists()


# Unsafe case names, then impossible counts, times and probabilities.
BAD_ROWS = {
    "a:b": "5,a:b,sccr,40.00,0",
    "a/b": "5,a/b,sccr,40.00,0",
    "count-zero": "0,a,sccr,40.00,0",
    "elapsed-negative": "5,a,sccr,40.00,-1",
    **{
        f"probability-{prob}": f"5,a,sccr,{prob},0"
        for prob in ("NaN", "sNaN", "Infinity", "-5", "100.01", "1e1")
    },
}


@pytest.mark.parametrize("row", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_plot_data_rejects_unsafe_case_names(row, tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(f"trial_count,case,rule,probability_pct,elapsed_ms\n{row}\n")
    out_dir = tmp_path / "plots"
    assert main(["plot-data", "--results", str(results), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid-input:")
    assert not out_dir.exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pbelect", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "run-rule" in proc.stdout
