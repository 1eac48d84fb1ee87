"""The input boundary: constructors own every field check, parsers only shape JSON.

Direct constructor calls with malformed fields raise ValidationError, every
JSON object rejects unknown keys (culture and experiment configs are covered
in their own modules' tests), and arbitrary JSON handed to the parsers or to
the CLI ends in ValidationError or a clean exit code, never a traceback.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from pbelect import cli
from pbelect.cli import main
from pbelect.core import (
    Instance,
    ValidationError,
    budget_from_dict,
    instance_from_dict,
    instance_to_dict,
    make_budget,
)
from pbelect.culture import CultureConfig, culture_config_from_dict, culture_config_to_dict
from pbelect.harness import (
    CaseConfig,
    ExperimentConfig,
    experiment_config_from_dict,
    experiment_config_to_dict,
    results_from_csv,
    run_experiment,
    write_results_csv,
)
from conftest import run_main
from test_harness import small_config

CULTURE = CultureConfig()
CASE = CaseConfig("a", ("sccr",), CULTURE)
ONE = Instance([1, 1], [{0}, {1}], 1)

CONSTRUCTOR_PROBES = {
    "n-range-int": lambda: CultureConfig(n_range=5),
    "n-range-triple": lambda: CultureConfig(n_range=(1, 2, 3)),
    "m-range-string": lambda: CultureConfig(m_range="35"),
    "cost-min-string-unit": lambda: CultureConfig(cost_min="a"),
    "approval-prob-string-prefix": lambda: CultureConfig(approval_prob="x"),
    "cost-string": lambda: Instance((1, "a"), ({0},), 1),
    "project-not-project": lambda: Instance(({"id": 0, "cost": 1},), ({0},), 1),
    "projects-int": lambda: Instance(5, ({0},), 1),
    "ballot-of-lists": lambda: Instance((1,), ([[0]],), 1),
    "ballot-int": lambda: Instance((1,), (0,), 1),
    "ballot-string": lambda: Instance((1,), ("0",), 1),
    "ballots-set": lambda: Instance((1,), {frozenset({0})}, 1),
    "rankings-int": lambda: Instance((1,), ({0},), 1, rankings=5),
    "ranking-of-lists": lambda: Instance((1,), ({0},), 1, rankings=([[0]],)),
    "ranking-bool": lambda: Instance((1, 1, 1), ({0},), 1, rankings=([0, True, 2],)),
    "ranking-float": lambda: Instance((1, 1, 1), ({0},), 1, rankings=([1.0, 0, 2],)),
    "allow-zero-cost-string": lambda: Instance((1,), ({0},), 1, allow_zero_cost="yes"),
    "budget-int": lambda: make_budget(ONE, 5),
    "budget-of-lists": lambda: make_budget(ONE, [[0]]),
    "budget-bool": lambda: make_budget(ONE, [True]),
    "case-rules-int": lambda: CaseConfig("a", 5, CULTURE),
    "case-culture-dict": lambda: CaseConfig("a", ("sccr",), {}),
    "trial-counts-int": lambda: ExperimentConfig(trial_counts=5, cases=(CASE,)),
    "cases-int": lambda: ExperimentConfig(trial_counts=(1,), cases=5),
    "cases-of-dicts": lambda: ExperimentConfig(trial_counts=(1,), cases=({"name": "a"},)),
    "record-timing-string": lambda: ExperimentConfig((1,), (CASE,), record_timing="x"),
}


@pytest.mark.parametrize("probe", list(CONSTRUCTOR_PROBES.values()), ids=list(CONSTRUCTOR_PROBES))
def test_constructors_raise_validation_error(probe):
    with pytest.raises(ValidationError):
        probe()


VOTER_ERRORS = {
    "ballot-unknown-id": (([0], {1}, {2}, [7]), None, "voter 3's ballot names unknown project 7"),
    "ballot-id-m": (([0], [1, 3]), None, "voter 1's ballot names unknown project 3"),
    "ballot-bool": (([0], {True}), None, "voter 1's ballot names unknown project True"),
    # the set of [1, true] is {1}: the entries themselves are checked
    "ballot-int-then-bool": (([1, True], [0]), None, "voter 0's ballot names unknown project True"),
    "ballot-int-then-float": (
        ([0], [0, 1, 1.0]), None, "voter 1's ballot names unknown project 1.0"
    ),
    "ballot-negative": (([0], (1, -1)), None, "voter 1's ballot names unknown project -1"),
    "ballot-empty": (([0], set(), [9]), None, "voter 1 has an empty approval ballot"),
    "ballot-of-lists": (([0], [1], [[0]]), None, "voter 2's ballot must be a list of project ids"),
    "ballot-dict": (([0], {1: 1}), None, "voter 1's ballot must be a list of project ids"),
    "ballot-int": (([0], 1), None, "voter 1's ballot must be a list of project ids"),
    "ranking-short": (
        ([0], [1]), [(0, 1, 2), (0, 1)], "voter 1's ranking is not a permutation of all project ids"
    ),
    "ranking-long": (
        ([0], [1]), [(0, 1, 2), (0, 1, 2, 1)], "voter 1's ranking is not a permutation of all project ids"
    ),
    "ranking-repeat": (
        ([0], [1]), [(0, 1, 2), (0, 1, 1)], "voter 1's ranking is not a permutation of all project ids"
    ),
    "ranking-of-lists": (
        ([0], [1]), [[[0], 1, 2], (0, 1)], "voter 0's ranking is not a permutation of all project ids"
    ),
    "ranking-dict": (
        ([0], [1]), [(0, 1, 2), dict.fromkeys((2, 1, 0))],
        "voter 1's ranking is not a permutation of all project ids",
    ),
    "ranking-set": (
        ([0], [1]), [(0, 1, 2), {0, 1, 2}], "voter 1's ranking is not a permutation of all project ids"
    ),
    "ranking-later-unhashable": (
        ([0], [1]), [(0, 1, 2), ([0], 1, 2)], "voter 1's ranking is not a permutation of all project ids"
    ),
    "ranking-bool": (([0], [1]), [(0, 1, 2), (0, True, 2)], "rankings must list project ids as integers"),
}


@pytest.mark.parametrize(
    "ballots, rankings, message", list(VOTER_ERRORS.values()), ids=list(VOTER_ERRORS)
)
def test_instance_errors_name_the_first_bad_voter(ballots, rankings, message):
    with pytest.raises(ValidationError) as caught:
        Instance((1, 1, 1), ballots, 1, rankings)
    assert str(caught.value) == message


BUDGET_ERRORS = {
    "budget-int-then-bool": ([1, True], "a budget names unknown project True"),
    "budget-int-then-float": ((0, 0.0), "a budget names unknown project 0.0"),
}


@pytest.mark.parametrize("selected, message", list(BUDGET_ERRORS.values()), ids=list(BUDGET_ERRORS))
def test_budget_errors_name_the_bad_id(selected, message):
    with pytest.raises(ValidationError) as caught:
        make_budget(ONE, selected)
    assert str(caught.value) == message


def _with_unknown_key(parse, data, *path):
    """Add the key "extra" to the object at ``path`` inside ``data``, then parse."""
    target = data
    for key in path:
        target = target[key]
    target["extra"] = 1
    return lambda: parse(data)


UNKNOWN_KEY_PROBES = {
    "instance": _with_unknown_key(instance_from_dict, instance_to_dict(ONE)),
    "project": _with_unknown_key(instance_from_dict, instance_to_dict(ONE), "projects", 0),
    "budget": _with_unknown_key(
        lambda data: budget_from_dict(ONE, data), {"selected": [0], "total_cost": 1}
    ),
    "case": _with_unknown_key(
        experiment_config_from_dict, experiment_config_to_dict(small_config()), "cases", 0
    ),
}


@pytest.mark.parametrize("parse", list(UNKNOWN_KEY_PROBES.values()), ids=list(UNKNOWN_KEY_PROBES))
def test_json_objects_reject_unknown_keys(parse):
    with pytest.raises(ValidationError, match="unknown keys 'extra'"):
        parse()


# --- fuzzing ----------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def corrupted(draw, documents):
    """A document from ``documents`` with one value, at any depth, swapped for
    arbitrary JSON."""
    data = node = draw(documents)
    while node:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        else:
            node[key] = draw(JSON)
            break
    return data


def fuzzed(documents: st.SearchStrategy) -> st.SearchStrategy:
    """Arbitrary JSON, plausible documents, and plausible documents with one
    value corrupted, so every layer of a parser sees bad input."""
    return JSON | documents | corrupted(documents)


@st.composite
def instance_documents(draw):
    """Valid instance JSON, with rankings and allow_zero_cost drawn at random."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    costs = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    data = {
        "limit": draw(st.integers(max(costs), sum(costs))),
        "projects": [{"id": i, "cost": cost} for i, cost in enumerate(costs)],
        "ballots": [
            draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
            for _ in range(n)
        ],
    }
    if draw(st.booleans()):
        data["rankings"] = [draw(st.permutations(range(m))) for _ in range(n)]
    if draw(st.booleans()):
        data["allow_zero_cost"] = draw(st.booleans())
    return data


BUDGET_DOCUMENTS = st.fixed_dictionaries(
    {"selected": st.lists(st.integers(0, 3), max_size=4, unique=True)},
    optional={"total_cost": st.integers(0, 6)},
)
CULTURE_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "n_range": st.tuples(st.integers(1, 60), st.integers(0, 9)).map(lambda t: [t[0], sum(t)]),
    "m_range": st.tuples(st.integers(3, 30), st.integers(0, 9)).map(lambda t: [t[0], sum(t)]),
    "cost_model": st.sampled_from(["unit", "uniform"]),
    "cost_min": st.integers(1, 5),
    "cost_max": st.integers(5, 12),
    "limit_model": st.sampled_from(["committee", "budget"]),
    "ballot_model": st.sampled_from(["prefix", "bernoulli"]),
    "approval_prob": st.floats(0, 1.2),
    "master_seed": st.integers(0, 2**64),
})
EXPERIMENT_DOCUMENTS = st.fixed_dictionaries(
    {
        "trial_counts": st.lists(st.integers(0, 5), min_size=1, max_size=3),
        "cases": st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.sampled_from(["a", "b"]),
                    "rules": st.lists(
                        st.sampled_from(["sccr", "smr", "stv"]), min_size=1, max_size=3, unique=True
                    ),
                },
                optional={"culture": CULTURE_DOCUMENTS},
            ),
            min_size=1,
            max_size=3,
        ),
    },
    optional={
        "axiom": st.sampled_from(["ujr", "strong-bjr"]),
        "master_seed": st.integers(0, 2**64),
        "record_timing": st.booleans(),
    },
)
COMMANDS = [
    ["run-rule", "--rule", rule, "--instance", "{inst}", "--out", "{out}", "--trace", "{trace}"]
    for rule in ("sccr", "smr", "stv")
] + [
    ["check-axiom", "--axiom", axiom, "--instance", "{inst}", "--budget", "{budget}", "--out", "{out}"]
    for axiom in ("ujr", "strong-bjr")
]


@settings(max_examples=150, deadline=None)
@given(
    argv=st.sampled_from(COMMANDS),
    instance=fuzzed(instance_documents()),
    budget=fuzzed(BUDGET_DOCUMENTS),
)
def test_cli_ends_every_json_input_with_an_exit_code(argv, instance, budget):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {key: tmp / f"{key}.json" for key in ("inst", "budget", "out", "trace")}
        paths["inst"].write_text(json.dumps(instance))
        paths["budget"].write_text(json.dumps(budget))
        code, _, err = run_main([arg.format(**paths) for arg in argv], tmp)
        event(f"exit code {code}")
        assert code in (0, 1, 2, 3)
        if code in (0, 3):
            assert err == ""
            outputs = {"out.json", "trace.json"} if argv[0] == "run-rule" else {"out.json"}
            assert {p.name for p in tmp.iterdir()} == {"inst.json", "budget.json"} | outputs


@settings(max_examples=300, deadline=None)
@given(fuzzed(CULTURE_DOCUMENTS))
def test_culture_parser_raises_only_validation_error(data):
    try:
        culture_config_from_dict(data)
    except ValidationError:
        pass


@settings(max_examples=300, deadline=None)
@given(fuzzed(EXPERIMENT_DOCUMENTS))
def test_experiment_parser_raises_only_validation_error(data):
    try:
        experiment_config_from_dict(data)
    except ValidationError:
        pass


# --- argv and results.csv bytes ------------------------------------------------------

def _valid_results() -> list[bytes]:
    """The results.csv bytes of two small studies, as write_results_csv writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        texts = []
        for config in (small_config(trial_counts=(1,)), small_config(trial_counts=(3, 7))):
            write_results_csv(run_experiment(config), path)
            texts.append(path.read_bytes())
        return texts


VALID_RESULTS = _valid_results()

# Every command, each with valid inputs: the files below, in the working directory.
ARGV_COMMANDS = [
    ["gen", "--config", "culture.json", "--trial", "0", "--out", "gen.json"],
    [
        "run-rule", "--rule", "stv", "--instance", "inst.json", "--k", "1",
        "--out", "b.json", "--trace", "t.json",
    ],
    ["run-rule", "--rule", "sccr", "--scoring", "borda", "--instance", "inst.json"],
    [
        "check-axiom", "--axiom", "ujr", "--instance", "inst.json", "--budget", "budget.json",
        "--out", "r.json",
    ],
    ["experiment", "--config", "exp.json", "--out-dir", "study", "--seed", "3"],
    ["experiment", "--config", "exp.json", "--replay", "equal:0"],
    ["plot-data", "--results", "results.csv", "--out-dir", "plots"],
]
LINE_BOUNDARIES = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # all that str.splitlines() knows
# What a POSIX argv can hold, as Python decodes it: no NUL, and lone surrogates
# only as the surrogateescape handler gives them for undecodable bytes.
ARGV_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
    | st.sampled_from(LINE_BOUNDARIES)
    | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
    max_size=12,
) | st.sampled_from(sorted({arg for argv in ARGV_COMMANDS for arg in argv}))
TEMP_FILE = re.compile(r"\.[0-9a-f]{16}\.(tmp|bak)$")  # atomic_write_texts' staging and backup names


def _argv_inputs(tmp: Path) -> None:
    small = small_config(trial_counts=(2,))
    (tmp / "culture.json").write_text(json.dumps(culture_config_to_dict(small.cases[0].culture)))
    inst = Instance([1, 1, 1], [{0}, {0, 1}, {2}], 2, rankings=[(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    (tmp / "inst.json").write_text(json.dumps(instance_to_dict(inst)))
    (tmp / "budget.json").write_text(json.dumps({"selected": [0]}))
    (tmp / "exp.json").write_text(json.dumps(experiment_config_to_dict(small)))
    (tmp / "results.csv").write_bytes(VALID_RESULTS[0])


def test_every_argv_command_succeeds_on_its_inputs(tmp_path, monkeypatch):
    _argv_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    codes = [main(argv) for argv in ARGV_COMMANDS]
    assert all(code in (0, 3) for code in codes), codes


@settings(max_examples=200, deadline=None)
@given(
    argv=st.sampled_from(ARGV_COMMANDS),
    at=st.integers(0, 11),
    insert=st.booleans(),
    text=ARGV_TEXT,
)
def test_cli_ends_every_argv_with_an_exit_code(argv, at, insert, text):
    assume(not text.startswith("/") and ".." not in text)  # outputs stay in the temp directory
    assume(os.fsdecode(os.fsencode(text)) == text)  # as Python decodes the bytes of a real argv
    at %= len(argv) + 1
    argv = argv[:at] + [text] + argv[at + (not insert):]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        _argv_inputs(tmp)
        inputs = set(tmp.iterdir())
        # without --config the default study would run its 5,000 trials
        mp.setattr(cli, "default_experiment_config", lambda: small_config(trial_counts=(2,)))
        code, _, err = run_main(argv, tmp)  # a refusal, exit 1 or 2, leaves the tree as it was
        event(f"exit code {code}")
        assert code in (0, 1, 2, 3)
        if code in (0, 3):
            assert err == ""
        made = [path.relative_to(tmp) for path in tmp.rglob("*") if path not in inputs]
        assert not [path for path in made if TEMP_FILE.search(path.name)]
        named = {Path(arg) for arg in argv} | {Path("out")}
        for path in made:  # each output is a path argv names, inside one, or above one
            assert any(path == a or a in path.parents or path in a.parents for a in named), path


RESULTS_PIECES = st.binary(max_size=4) | st.sampled_from(
    [b",", b"\n", b"\r\n", b"\r", b"0", b"1", b"-", b".", b"00", b'"', b" ", b"\xff", b"sccr"]
)


@st.composite
def results_bytes(draw):
    """A results.csv that write_results_csv wrote, with up to three spans
    replaced by a few arbitrary bytes."""
    data = draw(st.sampled_from(VALID_RESULTS))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(data)))
        stop = draw(st.integers(start, min(len(data), start + 4)))
        data = data[:start] + draw(RESULTS_PIECES) + data[stop:]
    return data


@settings(max_examples=300, deadline=None)
@given(results_bytes() | st.binary(max_size=80))
def test_plot_data_reads_only_bytes_write_results_csv_writes(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "results.csv").write_bytes(data)
        argv = ["plot-data", "--results", str(tmp / "results.csv"), "--out-dir", str(tmp / "plots")]
        code, _, err = run_main(argv, tmp)
        event(f"exit code {code}")
        if code == 0:
            write_results_csv(results_from_csv(tmp / "results.csv"), tmp / "again.csv")
            assert (tmp / "again.csv").read_bytes() == data
            assert err == ""
        else:
            assert code == 1 and err.startswith("error: invalid-input: ")
