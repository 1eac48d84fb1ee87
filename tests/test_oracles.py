"""The oracles in ``oracles`` share no code with the fast paths they check: a
broken helper of the library changes the library's answers, not the oracle's."""

from __future__ import annotations

import pytest

from pbelect import axioms
from pbelect.axioms import AXIOMS, check_axiom
from pbelect.core import ContractError, make_budget
from pbelect.rules import RuleTrace, seq_chamberlin_courant

from conftest import criterion_4_cases, criterion_5_instances
from oracles import brute_force_cc_optimal, naive_axiom_oracle, naive_mask, validate_assignment


def test_axiom_oracle_survives_a_broken_represented_helper(monkeypatch):
    cases = list(criterion_4_cases())

    def reports(check):
        return [check(i, budget, axiom).to_dict() for i, budget in cases for axiom in AXIOMS]

    oracle, scan = reports(naive_axiom_oracle), reports(check_axiom)
    monkeypatch.setattr(axioms, "_represented", lambda instance, budget, axiom: 0)
    assert reports(naive_axiom_oracle) == oracle
    assert reports(check_axiom) != scan


def test_cc_oracle_survives_broken_approver_masks(monkeypatch):
    instances = list(criterion_5_instances())

    def optima():
        return [(sorted(b.selected), cov) for b, cov in map(brute_force_cc_optimal, instances)]

    def greedy():
        return [sorted(seq_chamberlin_courant(i)[0].selected) for i in instances]

    oracle, fast = optima(), greedy()
    for instance in instances:  # its ballots, built from the masks by optima(), stay as they were
        monkeypatch.setitem(vars(instance), "approver_masks", (0,) * instance.m)
    assert optima() == oracle
    assert greedy() != fast


# --- the assignment check on smr traces ---------------------------------------------

def _smr_trace(capacity, *groups):
    """An smr trace whose entries fund each ``(project, voters)`` group in order."""
    return RuleTrace("smr", tuple((p, len(vs), naive_mask(vs)) for p, vs in groups), capacity)


def test_validate_assignment_accepts_good(i_c):
    budget = make_budget(i_c, {0, 1})
    validate_assignment(i_c, budget, _smr_trace(2, (0, {0, 1}), (1, {2, 3})))


def test_validate_assignment_rejects_over_capacity(i_c):
    budget = make_budget(i_c, {0, 1})
    with pytest.raises(ContractError, match="represents 3 voters, over capacity 2"):
        validate_assignment(i_c, budget, _smr_trace(2, (0, {0, 1, 2}), (1, {3})))


def test_validate_assignment_rejects_unselected_project(i_c):
    budget = make_budget(i_c, {0})
    with pytest.raises(ContractError, match="the entries fund \\[1\\], not the budget's \\[0\\]"):
        validate_assignment(i_c, budget, _smr_trace(2, (1, {0})))


@pytest.mark.parametrize(
    "trace, message",
    [
        (_smr_trace(0, (0, {0})), "capacity must be positive"),
        (_smr_trace(None, (0, {0})), "capacity must be positive"),
        (_smr_trace(2, (0, {0}), (1, {4})), "unknown voter 4"),
        (_smr_trace(2, (0, {0, 1}), (1, {1})), "voter 1 is assigned twice"),
    ],
    ids=["capacity-0", "capacity-none", "voter-n", "voter-twice"],
)
def test_validate_assignment_rejects_capacity_and_voters(trace, message, i_c):
    with pytest.raises(ContractError, match=message):
        validate_assignment(i_c, make_budget(i_c, {0, 1}), trace)
