"""The input boundary: constructors own every field check, parsers only shape JSON.

Direct constructor calls with malformed fields raise ValidationError, every
JSON object rejects unknown keys (culture and experiment configs are covered
in their own modules' tests), and arbitrary JSON handed to the parsers or to
the CLI ends in ValidationError or a clean exit code, never a traceback.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pbelect.cli import main
from pbelect.core import (
    Instance,
    Project,
    ValidationError,
    budget_from_dict,
    instance_from_dict,
    instance_to_dict,
    make_budget,
    make_instance,
)
from pbelect.culture import CultureConfig, culture_config_from_dict
from pbelect.harness import (
    CaseConfig,
    ExperimentConfig,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
from test_harness import small_config

CULTURE = CultureConfig()
CASE = CaseConfig("a", ("sccr",), CULTURE)
ONE = make_instance([1, 1], [{0}, {1}], 1)

CONSTRUCTOR_PROBES = {
    "n-range-int": lambda: CultureConfig(n_range=5),
    "n-range-triple": lambda: CultureConfig(n_range=(1, 2, 3)),
    "m-range-string": lambda: CultureConfig(m_range="35"),
    "cost-min-string-unit": lambda: CultureConfig(cost_min="a"),
    "approval-prob-string-prefix": lambda: CultureConfig(approval_prob="x"),
    "project-id-string": lambda: Instance((Project(0, 1), Project("a", 1)), ({0},), 1),
    "project-not-project": lambda: Instance(({"id": 0, "cost": 1},), ({0},), 1),
    "projects-int": lambda: Instance(5, ({0},), 1),
    "ballot-of-lists": lambda: Instance((Project(0, 1),), ([[0]],), 1),
    "ballot-int": lambda: Instance((Project(0, 1),), (0,), 1),
    "ballot-string": lambda: Instance((Project(0, 1),), ("0",), 1),
    "ballots-set": lambda: Instance((Project(0, 1),), {frozenset({0})}, 1),
    "rankings-int": lambda: Instance((Project(0, 1),), ({0},), 1, rankings=5),
    "ranking-of-lists": lambda: Instance((Project(0, 1),), ({0},), 1, rankings=([[0]],)),
    "allow-zero-cost-string": lambda: Instance((Project(0, 1),), ({0},), 1, allow_zero_cost="yes"),
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
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main([arg.format(**paths) for arg in argv])
        event(f"exit code {code}")
        assert code in (0, 1, 2, 3)
        lines = stderr.getvalue().splitlines()
        assert len(lines) == (code in (1, 2))
        assert all(line.startswith("error: ") for line in lines)
        outputs = set()
        if code in (0, 3):
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
