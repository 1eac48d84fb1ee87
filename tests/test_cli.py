"""End-to-end CLI flows, exit codes, and file-format round trips."""

from __future__ import annotations

import argparse
import io
import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbelect import harness
from pbelect.axioms import AXIOMS, check_axiom
from pbelect.cli import _build_parser, _emit, main
from pbelect.core import (
    ContractError,
    Instance,
    budget_to_dict,
    instance_from_dict,
    instance_to_dict,
)
from pbelect.culture import (
    PREFIX,
    UNIFORM,
    CultureConfig,
    culture_config_to_dict,
    equal_valued_culture,
    general_case_culture,
    generate,
)
from pbelect.harness import (
    experiment_config_to_dict,
    replay_trial,
    results_from_csv,
    run_experiment,
    write_results_csv,
)
from pbelect.rules import (
    APPROVAL,
    BORDA,
    RULES,
    RuleTrace,
    committee_size,
    seq_chamberlin_courant,
    seq_monroe,
    stv,
)
from conftest import CLOSED, FullStdout, refused
from test_harness import small_config

FIXTURES = ["i_a", "i_b", "i_c", "i_d", "i_e"]


@pytest.fixture
def instance_file(tmp_path, i_a):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_dict(i_a)))
    return path


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


def indent2(data) -> bytes:
    """The bytes every JSON file or stdout document of the CLI must be."""
    return (json.dumps(data, indent=2) + "\n").encode()


# --- the JSON writer ---------------------------------------------------------------

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(st.integers() | st.booleans(), max_size=6)  # bools inside int lists
        | st.lists(st.integers(), max_size=6).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
        | st.dictionaries(st.integers() | st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_writer_is_json_dumps_indent2(value):
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(value, None)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


# Int matrices: rows of ints the digit table holds, rows with ints it does not
# (bools, negatives, 1024 and up, ints of many digits), empty rows, tuple rows,
# and rows mixed with non-int rows.
TABLE_INTS = st.integers(0, 1023)
OTHER_INTS = st.booleans() | st.integers(max_value=-1) | st.integers(1024, 1100) | st.integers(
    10**18, 10**4000
)
INT_ROWS = st.lists(TABLE_INTS, min_size=1, max_size=5) | st.lists(
    TABLE_INTS | OTHER_INTS, min_size=1, max_size=5
)
ROWS = INT_ROWS | INT_ROWS.map(tuple) | st.just([]) | st.just(()) | st.lists(SCALARS, max_size=3)
MATRICES = st.lists(INT_ROWS, min_size=1, max_size=6) | st.lists(ROWS, max_size=6).map(tuple) | (
    st.lists(ROWS, max_size=6)
)
MATRIX_DOCUMENTS = MATRICES | st.dictionaries(st.text(max_size=3), MATRICES, max_size=3) | st.lists(
    MATRICES, max_size=3
)


@settings(max_examples=300, deadline=None)
@given(MATRIX_DOCUMENTS)
def test_writer_lays_out_int_matrices_as_json_dumps_indent2(value):
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(value, None)
    assert out.getvalue() == json.dumps(value, indent=2) + "\n"


# --- gen ------------------------------------------------------------------------

def test_gen_writes_valid_instance(tmp_path):
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(equal_valued_culture()))
    out = tmp_path / "instance.json"
    assert main(["gen", "--config", str(config), "--trial", "5", "--out", str(out)]) == 0
    inst = instance_from_dict(json.loads(out.read_text()))
    assert inst.n >= 1


@pytest.mark.parametrize("culture", [equal_valued_culture(), general_case_culture()])
def test_gen_writes_indent2_json(culture, tmp_path):
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(culture))
    out = tmp_path / "instance.json"
    for trial in range(3):
        assert main(["gen", "--config", str(config), "--trial", str(trial), "--out", str(out)]) == 0
        assert out.read_bytes() == indent2(instance_to_dict(generate(culture, trial)))


def test_gen_writes_a_large_instance_as_indent2_json(tmp_path):
    culture = CultureConfig(
        n_range=(900, 1000), m_range=(35, 40), cost_model=UNIFORM, cost_min=1, cost_max=2000,
        limit_model="budget", ballot_model=PREFIX,
    )
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(culture))
    out = tmp_path / "instance.json"
    assert main(["gen", "--config", str(config), "--trial", "0", "--out", str(out)]) == 0
    data = instance_to_dict(generate(culture, 0))
    assert 900 <= len(data["rankings"]) <= 1000
    assert out.read_bytes() == indent2(data)


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


def _huge_cost_culture(cost):
    return {
        "n_range": [3, 3], "m_range": [20, 20], "cost_model": "uniform",
        "cost_min": cost, "cost_max": cost, "limit_model": "budget",
    }


def test_cultures_that_could_draw_unwritable_values_are_refused(tmp_path):
    """With 20 projects of cost 10**4300 - 1 the limit could reach 4,301 digits."""
    culture = _huge_cost_culture(10**4300 - 1)
    gen_config = write_json(tmp_path / "culture.json", culture)
    study = {"trial_counts": [1], "cases": [{"name": "h", "rules": ["sccr"], "culture": culture}]}
    study_config = write_json(tmp_path / "study.json", study)
    for argv in (
        ["gen", "--config", str(gen_config), "--trial", "0", "--out", str(tmp_path / "i.json")],
        ["experiment", "--config", str(study_config), "--replay", "h:0"],
    ):
        assert refused(argv, 1, tmp_path) == (
            "error: invalid-input: cost_max and m_range allow a cost or limit of over 4300 digits"
        )


def test_gen_writes_the_largest_values_a_culture_allows(tmp_path):
    """(20 * (10**4299 - 1) + 1) // 2 has 4,300 digits, which run-rule reads."""
    config = write_json(tmp_path / "culture.json", _huge_cost_culture(10**4299 - 1))
    inst, out = tmp_path / "i.json", tmp_path / "b.json"
    assert main(["gen", "--config", str(config), "--trial", "0", "--out", str(inst)]) == 0
    assert main(["run-rule", "--rule", "sccr", "--instance", str(inst), "--out", str(out)]) == 0


def test_gen_rejects_bad_config(tmp_path):
    config = write_json(tmp_path / "culture.json", {"m_range": [1, 2]})
    argv = ["gen", "--config", str(config), "--trial", "0", "--out", str(tmp_path / "x.json")]
    assert refused(argv, 1, tmp_path) == "error: invalid-input: m_range must be a pair of integers 3 <= lo <= hi"


def test_gen_refuses_a_culture_whose_ballots_are_almost_never_non_empty(tmp_path):
    """At approval_prob 1e-300 a ballot draw approves nothing but when random()
    returns 0.0, so gen would redraw the first voter's ballot without end."""
    culture = {"ballot_model": "bernoulli", "approval_prob": 1e-300}
    config = write_json(tmp_path / "culture.json", culture)
    argv = ["gen", "--config", str(config), "--trial", "0", "--out", str(tmp_path / "x.json")]
    assert refused(argv, 1, tmp_path) == "error: invalid-input: approval_prob gives a voter over 2**20 expected draws"


@pytest.mark.parametrize("key", ["n_range", "m_range"])
def test_gen_refuses_a_culture_too_large_to_draw(tmp_path, key):
    """m = 10**20 overflowed at ``costs = [1] * m`` in a traceback, and n = 10**20
    drew voters until the process was killed."""
    config = write_json(tmp_path / "culture.json", {key: [10**20, 10**20]})
    argv = ["gen", "--config", str(config), "--trial", "0", "--out", str(tmp_path / "x.json")]
    assert refused(argv, 1, tmp_path) == (
        "error: invalid-input: n_range and m_range allow over 2**24 voter-project pairs"
    )


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


def test_run_rule_writes_an_out_name_as_long_as_a_name_can_be(tmp_path, instance_file):
    name = "b" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".json")) + ".json"
    code = main(["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--out", str(tmp_path / name)])
    assert code == 0
    assert json.loads((tmp_path / name).read_text())["selected"] == [0, 1]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([instance_file.name, name])


@pytest.mark.parametrize("out, trace", [("X", "X"), ("./X", "X")], ids=["same", "dot-slash"])
def test_run_rule_refuses_out_and_trace_in_one_file(out, trace, tmp_path, instance_file):
    argv = ["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--out", out, "--trace", trace]
    assert refused(argv, 2, tmp_path) == f"error: usage: --out {out} and --trace {trace} name one file"


def test_run_rule_stv_with_quota(tmp_path, i_d, capsys):
    path = write_json(tmp_path / "ranked.json", instance_to_dict(i_d))
    code = main(["run-rule", "--rule", "stv", "--instance", str(path), "--quota", "droop"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["selected"] == [0, 1]


def test_run_rule_stv_with_k_zero_is_invalid_input(tmp_path, i_d):
    path = write_json(tmp_path / "ranked.json", instance_to_dict(i_d))
    out = str(tmp_path / "budget.json")
    argv = ["run-rule", "--rule", "stv", "--instance", str(path), "--k", "0", "--out", out]
    assert refused(argv, 1, tmp_path) == "error: invalid-input: k must be a positive integer"


def test_run_rule_stv_with_k_over_the_committee_size_is_invalid_input(tmp_path, i_d):
    path = write_json(tmp_path / "ranked.json", instance_to_dict(i_d))
    k = committee_size(i_d) + 1
    out = str(tmp_path / "budget.json")
    argv = ["run-rule", "--rule", "stv", "--instance", str(path), "--k", str(k), "--out", out]
    assert refused(argv, 1, tmp_path) == (
        f"error: invalid-input: k={k} exceeds the committee size {k - 1} the limit affords"
    )


def test_run_rule_stv_with_k_on_costed_instance_is_config_error(tmp_path):
    inst = Instance([1, 2, 1], [{0}, {0, 1}, {2}], 2, rankings=[(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    path = write_json(tmp_path / "costed.json", instance_to_dict(inst))
    argv = ["run-rule", "--rule", "stv", "--instance", str(path), "--k", "1"]
    assert refused(argv, 2, tmp_path) == "error: contract: this rule supports only equal project costs"


def test_run_rule_smr_on_zero_unit_cost_is_config_error(tmp_path):
    inst = Instance([0, 0], [{0}, {1}], 1, allow_zero_cost=True)
    path = write_json(tmp_path / "zero.json", instance_to_dict(inst))
    argv = ["run-rule", "--rule", "smr", "--instance", str(path)]
    assert refused(argv, 2, tmp_path) == "error: contract: equal-cost rules need a positive unit cost"


def test_run_rule_borda_without_rankings_is_config_error(tmp_path, instance_file):
    argv = ["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--scoring", "borda"]
    assert refused(argv, 2, tmp_path) == "error: contract: borda scoring requires rankings on the instance"


def test_run_rule_refuses_a_second_voter_that_repeats_an_id(tmp_path):
    """A repeated id in voter 1's ranking, then in its ballot, is one error line
    and no budget file."""
    projects = [{"id": p, "cost": 1} for p in range(3)]
    ranked = write_json(
        tmp_path / "ranked.json",
        {"limit": 2, "projects": projects, "ballots": [[0], [1]], "rankings": [[0, 1, 2], [0, 1, 1]]},
    )
    approval = write_json(tmp_path / "approval.json", {"limit": 2, "projects": projects, "ballots": [[0], [1, 1]]})
    out = str(tmp_path / "budget.json")
    argv = ["run-rule", "--rule", "stv", "--instance", str(ranked), "--out", out]
    assert refused(argv, 1, tmp_path) == (
        "error: invalid-input: voter 1's ranking is not a permutation of all project ids"
    )
    argv = ["run-rule", "--rule", "sccr", "--instance", str(approval), "--out", out]
    assert refused(argv, 1, tmp_path) == "error: invalid-input: voter 1's ballot repeats a project id"


# Each rule called directly, returning its budget and the trace JSON that
# run-rule has always written for it.

def _sccr_direct(instance):
    budget, trace = seq_chamberlin_courant(instance)
    return budget, trace.to_dict()


def _smr_direct(instance):
    budget, trace = seq_monroe(instance)
    return budget, trace.to_dict()


def _stv_direct(instance):
    budget, trace = stv(instance, committee_size(instance))
    return budget, trace.to_dict()


DIRECT = {"sccr": _sccr_direct, "smr": _smr_direct, "stv": _stv_direct}


def test_rule_choices_are_the_registry():
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    rule = next(a for a in subparsers.choices["run-rule"]._actions if a.dest == "rule")
    assert tuple(rule.choices) == tuple(RULES) == tuple(DIRECT)
    options = {name: rule.options for name, rule in RULES.items()}
    assert options == {"sccr": ("scoring",), "smr": ("scoring",), "stv": ("quota", "k")}


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("rule", list(RULES))
def test_run_rule_matches_direct_call(rule, fixture, request, tmp_path):
    instance = request.getfixturevalue(fixture)
    path = write_json(tmp_path / "inst.json", instance_to_dict(instance))
    out, trace = tmp_path / "budget.json", tmp_path / "trace.json"
    argv = ["run-rule", "--rule", rule, "--instance", str(path), "--out", str(out), "--trace", str(trace)]
    try:
        budget, payload = DIRECT[rule](instance)
    except ContractError as exc:
        assert refused(argv, 2, tmp_path) == f"error: contract: {exc}"
        return
    assert main(argv) == 0
    assert out.read_text() == json.dumps(budget_to_dict(budget), indent=2) + "\n"
    assert trace.read_text() == json.dumps(payload, indent=2) + "\n"


def test_parser_is_reused_without_keeping_options(tmp_path, capsys):
    """One process, one parser: options of an earlier call do not carry over."""
    instance = Instance([1, 1, 1], [{0}, {0}, {1}], 2, rankings=[(1, 2, 0)] * 3)
    path = write_json(tmp_path / "inst.json", instance_to_dict(instance))
    trace = tmp_path / "trace.json"

    def run(*options):
        assert main(["run-rule", "--instance", str(path), *options]) == 0
        return json.loads(capsys.readouterr().out)["selected"]

    assert run("--rule", "sccr", "--scoring", "borda", "--trace", str(trace)) == [1, 2]
    assert run("--rule", "stv", "--k", "1") == [1]
    trace.unlink()
    assert run("--rule", "sccr") == sorted(seq_chamberlin_courant(instance)[0].selected) == [0, 1]
    assert run("--rule", "stv") == sorted(stv(instance, committee_size(instance))[0].selected)
    assert len(run("--rule", "stv")) == committee_size(instance) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]
    args = _build_parser().parse_args(["run-rule", "--rule", "sccr", "--instance", str(path)])
    assert (args.scoring, args.k, args.trace, args.out) == (None, None, None, None)
    assert _build_parser() is _build_parser()


# The five rule/option pairs that run-rule once accepted and ignored.
REFUSED_OPTIONS = {
    "sccr-quota": ("sccr", "--quota", "droop"),
    "sccr-k": ("sccr", "--k", "99"),
    "smr-quota": ("smr", "--quota", "hare"),
    "smr-k": ("smr", "--k", "1"),
    "stv-scoring": ("stv", "--scoring", "borda"),
}


@pytest.mark.parametrize("rule, option, value", list(REFUSED_OPTIONS.values()), ids=list(REFUSED_OPTIONS))
def test_run_rule_rejects_options_the_rule_does_not_take(rule, option, value, tmp_path):
    """Refused before the instance is read: the file does not even exist."""
    argv = [
        "run-rule", "--rule", rule, option, value, "--instance", str(tmp_path / "none.json"),
        "--out", str(tmp_path / "budget.json"),
    ]
    assert refused(argv, 2, tmp_path) == f"error: usage: --rule {rule} does not take {option}"


def test_run_rule_traces_stv_scores_of_any_size(tmp_path):
    """Trial 1752 of the default equal culture has stv score terms over the
    4,300-digit int-to-str limit."""
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(equal_valued_culture(0)))
    inst, out, trace = tmp_path / "i.json", tmp_path / "b.json", tmp_path / "t.json"
    assert main(["gen", "--config", str(config), "--trial", "1752", "--out", str(inst)]) == 0
    code = main([
        "run-rule", "--rule", "stv", "--instance", str(inst), "--out", str(out), "--trace", str(trace),
    ])
    assert code == 0
    budget, expected = stv(instance_from_dict(json.loads(inst.read_text())))
    assert out.read_bytes() == indent2(budget_to_dict(budget))

    def parse(score):  # Fraction(str) would refuse the long terms; Decimal reads any length
        if type(score) is int:
            return Fraction(score)
        numerator, denominator = score.split("/")
        return Fraction(int(Decimal(numerator)), int(Decimal(denominator)))

    scores = [entry["score"] for entry in json.loads(trace.read_text())["entries"]]
    assert [parse(score) for score in scores] == [entry.score for entry in expected.entries]
    assert max(len(score) for score in scores if type(score) is str) > 4300


@pytest.mark.parametrize("scoring", [APPROVAL, BORDA])
@pytest.mark.parametrize("trial, k", [(0, 3), (1, 2)], ids=["trial0", "trial1"])
def test_run_rule_smr_trace_gives_each_voter_one_representative(trial, k, scoring, tmp_path):
    """No voter in two entries, no entry over the capacity, the entries fund the
    budget, and ``assignment.rep`` is the entries' voters in ascending order."""
    culture = equal_valued_culture()
    assert committee_size(generate(culture, trial)) == k
    config = write_json(tmp_path / "culture.json", culture_config_to_dict(culture))
    inst, out, trace = tmp_path / "i.json", tmp_path / "b.json", tmp_path / "t.json"
    assert main(["gen", "--config", str(config), "--trial", str(trial), "--out", str(inst)]) == 0
    argv = ["run-rule", "--rule", "smr", "--scoring", scoring, "--instance", str(inst), "--out", str(out)]
    assert main([*argv, "--trace", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    entries, assignment = payload["entries"], payload["assignment"]
    voters = [v for entry in entries for v in entry["voters"]]
    assert len(voters) == len(set(voters))
    assert all(len(entry["voters"]) <= assignment["capacity"] for entry in entries)
    assert sorted(entry["project"] for entry in entries) == json.loads(out.read_text())["selected"]
    assert assignment["rep"] == {str(v): entry["project"] for entry in entries for v in entry["voters"]}
    assert list(assignment["rep"]) == sorted(assignment["rep"], key=int)


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out-file", "stdout"])
def test_run_rule_writes_nothing_when_an_output_cannot_be_rendered(
    to_stdout, tmp_path, instance_file, monkeypatch
):
    def fail(self):
        raise ContractError("synthetic render failure")

    monkeypatch.setattr(RuleTrace, "to_dict", fail)
    argv = ["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--trace", str(tmp_path / "t.json")]
    if not to_stdout:
        argv += ["--out", str(tmp_path / "b.json")]
    assert refused(argv, 2, tmp_path) == "error: contract: synthetic render failure"


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out-file", "stdout"])
@pytest.mark.parametrize("trace", ["missing/t.json", "taken"], ids=["missing-dir", "dir-target"])
def test_run_rule_writes_nothing_when_an_output_cannot_be_written(to_stdout, trace, tmp_path, instance_file):
    """Every temp file exists before any target is replaced, a failed rename
    takes back the targets already replaced, and stdout comes last."""
    (tmp_path / "taken").mkdir()
    argv = ["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--trace", str(tmp_path / trace)]
    if not to_stdout:
        argv += ["--out", str(tmp_path / "b.json")]
    line = refused(argv, 1, tmp_path)
    if trace == "taken":
        assert line == f"error: io-error: [Errno 21] Is a directory: '{tmp_path / 'taken'}'"
    else:  # the temp file beside the trace cannot be made
        temp = re.escape(str(tmp_path / "missing")) + r"/pbelect\.[0-9a-f]{16}\.tmp"
        assert re.fullmatch(rf"error: io-error: \[Errno 2\] No such file or directory: '{temp}'", line), line


def test_failed_run_rule_keeps_an_earlier_output(tmp_path, instance_file):
    """A trace target that is a directory is refused before any rename, so
    the budget file of an earlier run keeps its bytes."""
    (tmp_path / "b.json").write_text("OLD\n")
    (tmp_path / "d").mkdir()
    argv = [
        "run-rule", "--rule", "sccr", "--instance", str(instance_file),
        "--out", str(tmp_path / "b.json"), "--trace", str(tmp_path / "d"),
    ]
    assert refused(argv, 1, tmp_path) == f"error: io-error: [Errno 21] Is a directory: '{tmp_path / 'd'}'"


def test_run_rule_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert refused(["run-rule", "--rule", "sccr", "--instance", str(bad)], 1, tmp_path) == (
        f"error: invalid-input: {bad} is not readable JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )


def test_run_rule_missing_file(tmp_path):
    missing = tmp_path / "nothing.json"
    assert refused(["run-rule", "--rule", "sccr", "--instance", str(missing)], 1, tmp_path) == (
        f"error: io-error: [Errno 2] No such file or directory: '{missing}'"
    )


def test_failed_write_leaves_no_temp_file(tmp_path, instance_file):
    target = tmp_path / "taken"
    target.mkdir()
    argv = ["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--out", str(target)]
    assert refused(argv, 1, tmp_path) == f"error: io-error: [Errno 21] Is a directory: '{target}'"


@pytest.mark.parametrize(
    "out, line",
    [
        ("", "error: io-error: [Errno 2] No such file or directory: ''"),  # as open("", "w") says
        (".", "error: io-error: [Errno 21] Is a directory: '.'"),
    ],
    ids=["empty", "dot"],
)
def test_output_path_without_a_name_is_an_io_error(out, line, tmp_path, instance_file):
    argv = ["run-rule", "--rule", "sccr", "--instance", str(instance_file), "--out", out]
    assert refused(argv, 1, tmp_path) == line

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


@pytest.mark.parametrize("fixture", FIXTURES)
def test_rule_and_axiom_outputs_are_indent2_json(fixture, request, tmp_path):
    """Budget, trace and report files of every rule under both scorings, and of
    both axioms on each budget, are the objects' ``json.dumps(indent=2)``."""
    instance = request.getfixturevalue(fixture)
    inst = write_json(tmp_path / "inst.json", instance_to_dict(instance))
    budget_path, trace_path, report_path = (tmp_path / f"{k}.json" for k in ("b", "t", "r"))
    for rule, scoring in itertools.product(RULES, (APPROVAL, BORDA)):
        options = {"scoring": scoring} if "scoring" in RULES[rule].options else {}
        try:
            budget, trace = RULES[rule].run(instance, **options)
        except ContractError:
            continue
        code = main([
            "run-rule", "--rule", rule, *(f"--{k}={v}" for k, v in options.items()),
            "--instance", str(inst), "--out", str(budget_path), "--trace", str(trace_path),
        ])
        assert code == 0
        assert budget_path.read_bytes() == indent2(budget_to_dict(budget))
        assert trace_path.read_bytes() == indent2(trace.to_dict())
        for axiom in AXIOMS:
            report = check_axiom(instance, budget, axiom)
            code = main([
                "check-axiom", "--axiom", axiom, "--instance", str(inst),
                "--budget", str(budget_path), "--out", str(report_path),
            ])
            assert code == (0 if report.satisfied else 3)
            assert report_path.read_bytes() == indent2(report.to_dict())


def test_check_axiom_names_a_recomputed_total_cost_over_the_digit_limit(tmp_path):
    """20 costs of 10**4299 - 1 sum to 4,301 digits, past int-to-str's limit;
    a stated total_cost that disagrees is one error line, not a traceback."""
    cost = 10**4299 - 1
    projects = [{"id": p, "cost": cost} for p in range(20)]
    instance = {"limit": 10**4299, "projects": projects, "ballots": [[0]]}
    inst = write_json(tmp_path / "inst.json", instance)
    budget = write_json(tmp_path / "budget.json", {"selected": list(range(20)), "total_cost": 1})
    argv = [
        "check-axiom", "--axiom", "ujr", "--instance", str(inst),
        "--budget", str(budget), "--out", str(tmp_path / "report.json"),
    ]
    recomputed = Decimal(20 * cost)
    assert refused(argv, 1, tmp_path) == (
        f"error: invalid-input: stated total_cost 1 does not match recomputed {recomputed}"
    )


def test_check_axiom_no_partial_output_on_contract_error(tmp_path):
    infeasible = Instance([2, 2], [{0}, {1}], 2)
    inst = write_json(tmp_path / "inst.json", instance_to_dict(infeasible))
    budget = write_json(tmp_path / "budget.json", {"selected": [0, 1]})
    argv = [
        "check-axiom", "--axiom", "ujr", "--instance", str(inst),
        "--budget", str(budget), "--out", str(tmp_path / "report.json"),
    ]
    assert refused(argv, 2, tmp_path) == "error: contract: axiom checks require a feasible budget"


# --- malformed input values ------------------------------------------------------------

I_A = instance_to_dict(Instance([1, 1, 1], [{0}, {0}, {1}, {2}], 2))

# Each command that reads a JSON file, with that file as {a} and its output as {out}.
JSON_READERS = {
    "run-rule": ["run-rule", "--rule", "sccr", "--instance", "{a}", "--out", "{out}"],
    "check-axiom": [
        "check-axiom", "--axiom", "ujr", "--instance", "{a}", "--budget", "{a}", "--out", "{out}",
    ],
    "gen": ["gen", "--config", "{a}", "--trial", "0", "--out", "{out}"],
    "experiment": ["experiment", "--config", "{a}", "--out-dir", "{out}"],
}


def _project_ids(*ids):
    """I_A with its three unit-cost projects under the given ids."""
    return {"a": {**I_A, "projects": [{"id": p, "cost": 1} for p in ids]}}


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
    "ranking-bool": (JSON_READERS["run-rule"], {"a": {**I_A, "rankings": [[0, True, 2]] * 4}}),
    "ranking-float": (JSON_READERS["run-rule"], {"a": {**I_A, "rankings": [[1.0, 0, 2]] * 4}}),
    **{
        f"project-id-{name}": (JSON_READERS["run-rule"], _project_ids(*ids))
        for name, ids in {
            "true": (0, True, 2),
            "float": (0, 1.0, 2),
            "numeric-string": (0, "1", 2),
            "null": (0, None, 2),
            "list": (0, [0], 2),
            "negative": (0, -1, 2),
            "m": (0, 1, 3),
            "repeated": (0, 1, 1),
        }.items()
    },
    "gen-trial-negative": (["gen", "--config", "{a}", "--trial", "-3", "--out", "{out}"], {"a": {}}),
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
def test_malformed_values_exit_1_with_one_error_line(argv, inputs, tmp_path):
    paths = {}
    for key, data in inputs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    argv = [arg.format(out=tmp_path / "out", **paths) for arg in argv]
    assert refused(argv, 1, tmp_path).startswith("error: invalid-input: ")


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
    study = small_config(trial_counts=(4, 9))
    config = write_json(tmp_path / "exp.json", experiment_config_to_dict(study))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    results = out_dir / "results.csv"
    assert results_from_csv(results) == run_experiment(study)  # and so written byte for byte
    lines = results.read_text().splitlines()
    assert lines[0] == "trial_count,case,rule,probability_pct,elapsed_ms"
    assert len(lines) == 1 + 2 * 4  # two counts x (3 equal rules + 1 general)
    wrote, table = capsys.readouterr().out.split("\n\n")
    assert wrote.splitlines() == [
        f"wrote {out_dir / name}" for name in ("results.csv", "plot_equal.csv", "plot_general.csv")
    ]
    header, *rows = (line.split() for line in table.splitlines())
    assert header == ["trials", "equal/sccr", "equal/smr", "equal/stv", "general/sccr"]
    pct = [line.split(",")[3] for line in lines[1:]]
    assert rows == [["4", *pct[:4]], ["9", *pct[4:]]]

    replot = tmp_path / "replot"
    assert main(["plot-data", "--results", str(results), "--out-dir", str(replot)]) == 0
    for name in ("plot_equal.csv", "plot_general.csv"):
        assert (replot / name).read_bytes() == (out_dir / name).read_bytes()


def test_experiment_writes_all_of_its_outputs_or_none(tmp_path):
    config = write_json(
        tmp_path / "exp.json", experiment_config_to_dict(small_config(trial_counts=(3,)))
    )
    out_dir = tmp_path / "out"
    (out_dir / "plot_equal.csv").mkdir(parents=True)
    argv = ["experiment", "--config", str(config), "--out-dir", str(out_dir)]
    assert refused(argv, 1, tmp_path) == (
        f"error: io-error: [Errno 21] Is a directory: '{out_dir / 'plot_equal.csv'}'"
    )


def test_failed_experiment_keeps_the_outputs_of_an_earlier_run(tmp_path):
    config = write_json(
        tmp_path / "exp.json", experiment_config_to_dict(small_config(trial_counts=(3,)))
    )
    out_dir = tmp_path / "out"
    (out_dir / "plot_equal.csv").mkdir(parents=True)
    (out_dir / "results.csv").write_bytes(b"earlier results\n")
    (out_dir / "plot_general.csv").write_bytes(b"earlier plot\n")
    argv = ["experiment", "--config", str(config), "--out-dir", str(out_dir)]
    assert refused(argv, 1, tmp_path) == (
        f"error: io-error: [Errno 21] Is a directory: '{out_dir / 'plot_equal.csv'}'"
    )


# 21 relative directories, 4,075 characters: mkdir makes them, but a file name
# inside the last one passes the 4,096-byte path limit
LONG_OUT_DIR = "/".join(["d" * 193] * 20 + ["d" * 195])


@pytest.mark.parametrize("command", ["experiment", "plot-data"])
def test_failed_study_write_leaves_no_new_directory(command, tmp_path):
    config = small_config(trial_counts=(3,))
    write_json(tmp_path / "exp.json", experiment_config_to_dict(config))
    write_results_csv(run_experiment(config), tmp_path / "results.csv")
    inputs = ["--config", "exp.json"] if command == "experiment" else ["--results", "results.csv"]
    line = refused([command, *inputs, "--out-dir", LONG_OUT_DIR], 1, tmp_path)
    temp = re.escape(LONG_OUT_DIR) + r"/pbelect\.[0-9a-f]{16}\.tmp"
    assert re.fullmatch(rf"error: io-error: \[Errno 36\] File name too long: '{temp}'", line), line


def test_experiment_refuses_a_case_culture_seed_it_would_replace(tmp_path):
    data = experiment_config_to_dict(small_config(trial_counts=(3,)))
    data["cases"][1]["culture"]["master_seed"] = 12345
    config = write_json(tmp_path / "exp.json", data)
    argv = ["experiment", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert refused(argv, 1, tmp_path) == (
        "error: invalid-input: case 'general' culture master_seed 12345 "
        "is not the experiment's master_seed 31"
    )


def test_experiment_timing_fills_elapsed_only(tmp_path, capsys):
    config = write_json(
        tmp_path / "exp.json", experiment_config_to_dict(small_config(trial_counts=(20, 200)))
    )
    studies = {}
    for name, timing in (("plain", []), ("timed", ["--timing"])):
        out_dir = tmp_path / name
        assert main(["experiment", "--config", str(config), "--out-dir", str(out_dir), *timing]) == 0
        studies[name] = results_from_csv(out_dir / "results.csv")
    capsys.readouterr()
    assert {row.elapsed_ms for row in studies["plain"]} == {0}
    assert sum(row.elapsed_ms for row in studies["timed"]) > 0
    assert [replace(row, elapsed_ms=0) for row in studies["timed"]] == list(studies["plain"])


def test_experiment_replay_prints_verdicts(tmp_path, capsys):
    config = write_json(tmp_path / "exp.json", experiment_config_to_dict(small_config()))
    code = main(["experiment", "--config", str(config), "--replay", "equal:3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.encode() == indent2(replay_trial(small_config(), "equal", 3))
    payload = json.loads(out)
    assert payload["trial"] == 3
    assert set(payload["results"]) == {"sccr", "smr", "stv"}


def test_experiment_replay_takes_the_seed_option(capsys):
    assert main(["experiment", "--replay", "equal:3", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["master_seed"] == 5
    assert payload["instance"] == instance_to_dict(generate(equal_valued_culture(5), 3))


def test_experiment_rejects_bad_replay_spec(tmp_path):
    config = write_json(tmp_path / "exp.json", experiment_config_to_dict(small_config()))
    argv = ["experiment", "--config", str(config), "--replay", "equal"]
    assert refused(argv, 1, tmp_path) == "error: invalid-input: --replay expects CASE:TRIAL, e.g. equal:17"


def test_experiment_replay_of_a_negative_trial_is_invalid_input(tmp_path):
    assert refused(["experiment", "--replay", "equal:-1"], 1, tmp_path) == (
        "error: invalid-input: trial index must be a non-negative integer"
    )


@pytest.mark.parametrize(
    "options, refused_option",
    [(["--workers", "0"], "--workers"), (["--timing"], "--timing"), (["--out-dir", "o"], "--out-dir")],
    ids=["workers", "timing", "out-dir"],
)
def test_experiment_replay_rejects_options_it_ignores(options, refused_option, tmp_path):
    assert refused(["experiment", "--replay", "equal:0", *options], 2, tmp_path) == (
        f"error: usage: --replay does not take {refused_option}"
    )


def test_experiment_rejects_invalid_config(tmp_path):
    study = experiment_config_to_dict(small_config(trial_counts=(5,)))
    for changes, message in [
        ({"trial_counts": [0], "cases": []}, "every trial count must be a positive integer"),
        ({"trial_counts": [0]}, "every trial count must be a positive integer"),
        ({"trial_counts": [5, 5]}, "trial_counts repeats a value"),
        ({"trial_counts": [2], "cases": []}, "at least one case is required"),
    ]:
        config = write_json(tmp_path / "exp.json", {**study, **changes})
        argv = ["experiment", "--config", str(config), "--out-dir", str(tmp_path / "o")]
        assert refused(argv, 1, tmp_path) == f"error: invalid-input: {message}"


@pytest.mark.parametrize(
    "workers, config", [("0", False), ("-3", False), ("0", True)], ids=["0", "-3", "config-0"]
)
def test_experiment_rejects_workers_below_one(workers, config, tmp_path):
    argv = ["experiment", "--workers", workers, "--out-dir", str(tmp_path / "out")]
    if config:
        study = experiment_config_to_dict(small_config(trial_counts=(5,)))
        argv += ["--config", str(write_json(tmp_path / "exp.json", study))]
    assert refused(argv, 1, tmp_path) == (
        f"error: invalid-input: workers must be a positive integer, got {int(workers)}"
    )


@pytest.mark.parametrize("command", ["experiment", "plot-data"])
def test_an_empty_out_dir_is_an_io_error(command, tmp_path):
    """``Path("")`` is ``.``, so an empty --out-dir would write into the
    working directory; it is refused as ``mkdir ""`` refuses it."""
    config = small_config(trial_counts=(2,))
    inputs = {
        "experiment": ["--config", str(write_json(tmp_path / "exp.json", experiment_config_to_dict(config)))],
        "plot-data": ["--results", str(write_results_csv(run_experiment(config), tmp_path / "results.csv"))],
    }
    assert refused([command, *inputs[command], "--out-dir", ""], 1, tmp_path) == (
        "error: io-error: [Errno 2] No such file or directory: ''"
    )


# Each command that writes stdout, run where its inputs, an earlier t.json and
# an earlier run's prev/results.csv are, with the stdout calls made to fail or
# stdout closed: a command that writes no file fails at its flush, which only
# a commit that flushes stdout reaches.
STDOUT_COMMANDS = {
    "run-rule": ("run-rule --rule sccr --instance i.json", ["flush", "closed"]),
    "run-rule-trace": ("run-rule --rule sccr --instance i.json --trace t.json", ["write", "flush", "closed"]),
    "check-axiom": ("check-axiom --axiom ujr --instance i.json --budget b.json", ["flush", "closed"]),
    "replay": ("experiment --config exp.json --replay equal:0", ["flush", "closed"]),
    "experiment-new-dir": ("experiment --config exp.json --out-dir new/out", ["write", "flush", "closed"]),
    "experiment-over-results": ("experiment --config exp.json --out-dir prev", ["write", "flush", "closed"]),
    "plot-data": ("plot-data --results prev/results.csv --out-dir plots", ["write", "flush", "closed"]),
}


@pytest.mark.parametrize(
    "argv, fails",
    [
        pytest.param(command.split(), fails, id=f"{name}-{fails}")
        for name, (command, failing) in STDOUT_COMMANDS.items()
        for fails in failing
    ],
)
def test_a_stdout_that_fails_leaves_no_file(argv, fails, tmp_path, i_e):
    """A full disk under stdout, or a closed stdout (descriptor 1 closed, so
    ``sys.stdout`` is None), is one io-error line, and every file the command
    wrote is taken back: no new file or directory, no changed bytes."""
    write_json(tmp_path / "i.json", instance_to_dict(i_e))
    write_json(tmp_path / "b.json", {"selected": [2, 3]})
    (tmp_path / "t.json").write_text("earlier trace\n")
    write_json(tmp_path / "exp.json", experiment_config_to_dict(small_config(trial_counts=(3,))))
    (tmp_path / "prev").mkdir()
    write_results_csv(run_experiment(small_config(trial_counts=(2,))), tmp_path / "prev" / "results.csv")
    if fails == "closed":
        assert refused(argv, 1, tmp_path, CLOSED) == "error: io-error: [Errno 9] Bad file descriptor"
    else:
        line = refused(argv, 1, tmp_path, FullStdout(fails))
        assert line == "error: io-error: [Errno 28] No space left on device"


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched _evaluate_trial reaches the pool's workers only when they are forked",
)
def test_a_dead_worker_is_one_contract_error(tmp_path, monkeypatch):
    """A pool worker that dies at trial 3 of a 40-trial study ends in exit 2
    and one error line, with no file written."""
    evaluate = harness._evaluate_trial
    parent = os.getpid()

    def dying(axiom, job):
        if job[1] == 3 and os.getpid() != parent:
            os._exit(9)
        return evaluate(axiom, job)

    # the pool pickles the job function by this name, which a forked worker resolves to dying
    dying.__module__, dying.__qualname__ = harness.__name__, "_evaluate_trial"
    monkeypatch.setattr(harness, "_evaluate_trial", dying)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = write_json(tmp_path / "exp.json", experiment_config_to_dict(small_config(trial_counts=(40,))))
    argv = ["experiment", "--config", str(config), "--workers", "2", "--out-dir", str(tmp_path / "out")]
    assert refused(argv, 2, tmp_path) == (
        "error: contract: a worker process died: A process in the process pool was terminated "
        "abruptly while the future was running or pending."
    )


# Unsafe case names, then impossible counts, times and probabilities.
BAD_ROWS = {
    "a:b": "5,a:b,sccr,40.00,0",
    "a/b": "5,a/b,sccr,40.00,0",
    "count-zero": "0,a,sccr,40.00,0",
    "count-underscore": "5_0,a,sccr,40.00,0",
    "count-space": " 7,a,sccr,40.00,0",
    "elapsed-negative": "5,a,sccr,40.00,-1",
    "elapsed-plus": "5,a,sccr,40.00,+3",
    **{
        f"probability-{prob}": f"5,a,sccr,{prob},0"
        for prob in ("NaN", "sNaN", "Infinity", "-5", "100.01", "1e1")
    },
    "count-leading-zero": "05,a,sccr,40.00,0",
    "probability-leading-zero": "5,a,sccr,040.00,0",
    "elapsed-leading-zero": "5,a,sccr,40.00,00",
    "all-leading-zeros": "05,a,sccr,040.00,00",
    "count-quoted": '"5",a,sccr,40.00,0',
    "probability-four-decimals": "3,a,sccr,33.3333,0",
    "probability-impossible": "3,a,sccr,50.00,0",
    "rule-empty": "5,a,,40.00,0",
    "rule-unknown": "5,a,borda,40.00,0",
    "row-repeated": "5,a,sccr,40.00,0\n5,a,sccr,60.00,0",
}


@pytest.mark.parametrize("row", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_plot_data_rejects_unsafe_case_names(row, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text(f"trial_count,case,rule,probability_pct,elapsed_ms\n{row}\n")
    argv = ["plot-data", "--results", str(results), "--out-dir", str(tmp_path / "plots")]
    assert refused(argv, 1, tmp_path).startswith("error: invalid-input: ")


GOOD_RESULTS = "trial_count,case,rule,probability_pct,elapsed_ms\n5,a,sccr,40.00,0\n"
BAD_RESULTS = {
    "crlf": GOOD_RESULTS.replace("\n", "\r\n"),
    "no-final-newline": GOOD_RESULTS[:-1],
    "header-only": GOOD_RESULTS.split("\n")[0] + "\n",
    "empty": "",
    "blank-line": GOOD_RESULTS + "\n",
}


@pytest.mark.parametrize("text", list(BAD_RESULTS.values()), ids=list(BAD_RESULTS))
def test_plot_data_reads_only_what_experiment_writes(text, tmp_path):
    results = tmp_path / "results.csv"
    results.write_bytes(text.encode())
    out_dir = tmp_path / "plots"
    argv = ["plot-data", "--results", str(results), "--out-dir", str(out_dir)]
    assert refused(argv, 1, tmp_path).startswith("error: invalid-input: ")
    results.write_text(GOOD_RESULTS)
    assert main(argv) == 0
    assert (out_dir / "plot_a.csv").read_text() == "trial_count,rule,probability\n5,sccr,40.00\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--config", "x", "--trial", "abc", "--out", "y"],
        [],
        ["run-rule", "--rule", "nope", "--instance", "x"],
        ["gen", "--config", "x", "--trial", "1", "--out", "y", "a\nb"],
        *(["gen", "--config", "x", "--trial", "1", "--out", "y", f"a{br}b"]
          for br in ("\r", "\x0b", "\x1c", "\x85", "\u2028")),
    ],
    ids=[
        "gen-trial-not-int", "no-command", "run-rule-unknown-rule", "unrecognized-newline",
        "unrecognized-cr", "unrecognized-vt", "unrecognized-fs", "unrecognized-nel", "unrecognized-ls",
    ],
)
def test_usage_errors_exit_2_with_one_error_line(argv, tmp_path):
    assert refused(argv, 2, tmp_path).startswith("error: usage: ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pbelect", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "run-rule" in proc.stdout
