"""Axiom checkers vs. the exhaustive oracle, plus the definitional properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbelect import axioms
from pbelect.axioms import (
    AXIOMS,
    STRONG_BJR,
    UJR,
    AxiomReport,
    check_axiom,
    verify_witness,
)
from pbelect.core import (
    ContractError,
    Instance,
    ValidationError,
    make_budget,
)

from conftest import random_costed_instance, random_feasible_budget, random_unit_instance
from oracles import naive_axiom_oracle


# --- worked examples ---------------------------------------------------------------

def test_ujr_satisfied_when_everyone_covered():
    inst = Instance([1, 1, 1], [{0}, {1}, {2}, {0, 2}], 3)
    report = check_axiom(inst, make_budget(inst, {0, 1, 2}), UJR)
    assert report.satisfied and report.witness is None


def test_ujr_violation_on_i_e(i_e):
    report = check_axiom(i_e, make_budget(i_e, {2, 3}), UJR)
    assert not report.satisfied
    assert report.witness == (0, frozenset({0, 1}))


def test_ujr_rational_threshold_just_below():
    # n=5, limit=2: a deprived pair fails 2*2 >= 5.
    inst = Instance([1, 1, 1], [{0}, {0}, {1}, {1}, {2}], 2)
    report = check_axiom(inst, make_budget(inst, {1, 2}), UJR)
    assert report.satisfied


def test_strong_bjr_equals_ujr_with_positive_costs(i_e):
    budget = make_budget(i_e, {2, 3})
    strong = check_axiom(i_e, budget, STRONG_BJR)
    basic = check_axiom(i_e, budget, UJR)
    assert (strong.satisfied, strong.witness) == (basic.satisfied, basic.witness)


def test_strong_bjr_zero_cost_funding_does_not_count():
    inst = Instance([1, 0], [{1}, {1}], 1, allow_zero_cost=True)
    budget = make_budget(inst, {1})
    assert check_axiom(inst, budget, UJR).satisfied
    report = check_axiom(inst, budget, STRONG_BJR)
    assert not report.satisfied
    assert report.witness == (1, frozenset({0, 1}))


def test_axiom_checks_reject_infeasible_budget(i_b):
    with pytest.raises(ContractError):
        check_axiom(i_b, make_budget(i_b, {0, 1}), UJR)


def test_check_axiom_rejects_unknown_name(i_a):
    with pytest.raises(ValidationError):
        check_axiom(i_a, make_budget(i_a, set()), "pjr")


def test_verify_witness_survives_a_broken_represented_helper(i_e, monkeypatch):
    monkeypatch.setattr(axioms, "_represented", lambda instance, budget, axiom: 0)
    # voters 0 and 1 approve the funded p0, so they are no deprived group
    forged = AxiomReport(UJR, False, (0, frozenset({0, 1})))
    assert not verify_witness(i_e, make_budget(i_e, {0}), forged)
    # a zero-cost funded project represents under ujr only
    inst = Instance([1, 0], [{1}, {1}], 1, allow_zero_cost=True)
    budget = make_budget(inst, {1})
    assert verify_witness(inst, budget, AxiomReport(STRONG_BJR, False, (1, frozenset({0, 1}))))
    assert not verify_witness(inst, budget, AxiomReport(UJR, False, (1, frozenset({0, 1}))))


@pytest.mark.parametrize(
    "forged",
    [
        AxiomReport(UJR, True, (0, frozenset({0, 1}))),
        AxiomReport(UJR, False),
        AxiomReport(UJR, False, (0, frozenset())),
        AxiomReport(UJR, False, (0, frozenset({0, 1, 4}))),  # n is 4
        AxiomReport(UJR, False, (0, frozenset({0, 1, 2}))),  # voter 2 approves only p1
        AxiomReport(UJR, False, (0, frozenset({0}))),  # 1 * limit 2 < n 4
    ],
    ids=[
        "satisfied-with-witness", "violated-without-witness", "empty-group",
        "voter-out-of-range", "voter-not-approving", "group-too-small",
    ],
)
def test_verify_witness_refuses_forged_reports(forged, i_e):
    budget = make_budget(i_e, {2, 3})
    assert verify_witness(i_e, budget, check_axiom(i_e, budget, UJR))
    assert not verify_witness(i_e, budget, forged)


# --- oracle ------------------------------------------------------------------------

def test_oracle_agrees_on_i_e(i_e):
    budget = make_budget(i_e, {2, 3})
    assert not naive_axiom_oracle(i_e, budget, UJR).satisfied


def test_oracle_satisfied_when_everyone_covered():
    inst = Instance([1, 1, 1], [{0}, {1}, {2}, {0, 2}], 3)
    budget = make_budget(inst, {0, 1, 2})
    assert naive_axiom_oracle(inst, budget, UJR).satisfied


def test_oracle_singleton_voter_empty_budget():
    inst = Instance([1], [{0}], 1)
    budget = make_budget(inst, set())
    assert not naive_axiom_oracle(inst, budget, UJR).satisfied
    assert not check_axiom(inst, budget, UJR).satisfied


def test_oracle_refuses_many_voters():
    inst = Instance([1], [{0}] * 17, 1)
    with pytest.raises(ContractError):
        naive_axiom_oracle(inst, make_budget(inst, set()), UJR)


def _zero_cost_instance(rng: random.Random) -> Instance:
    m = rng.randint(2, 5)
    costs = [rng.randint(0, 3) for _ in range(m)]
    costs[rng.randrange(m)] = 0  # keep the zero-cost clause exercised
    limit = rng.randint(max(costs + [1]), sum(costs) + 2)
    n = rng.randint(1, 8)
    ballots = [frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
    return Instance(costs, ballots, limit, allow_zero_cost=True)


def test_checkers_match_oracle_on_random_batches():
    rng = random.Random(2024)
    for trial in range(300):
        if trial % 3 == 0:
            inst = random_unit_instance(rng)
        elif trial % 3 == 1:
            inst = random_costed_instance(rng)
        else:
            inst = _zero_cost_instance(rng)
        budget = random_feasible_budget(rng, inst)
        for axiom in AXIOMS:
            fast = check_axiom(inst, budget, axiom)
            slow = naive_axiom_oracle(inst, budget, axiom)
            assert fast.satisfied == slow.satisfied, (inst, sorted(budget.selected))
            assert verify_witness(inst, budget, fast)
            assert verify_witness(inst, budget, slow)


# --- definitional properties ----------------------------------------------------------

@st.composite
def instance_and_budget(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    costs = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    limit = draw(st.integers(max(costs), sum(costs) + 3))
    ballots = [
        draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m)) for _ in range(n)
    ]
    inst = Instance(costs, ballots, limit)
    picks = draw(st.sets(st.integers(0, m - 1)))
    chosen: set[int] = set()
    spent = 0
    for p in sorted(picks):
        if spent + costs[p] <= limit:
            chosen.add(p)
            spent += costs[p]
    return inst, make_budget(inst, chosen)


@settings(max_examples=120, deadline=None)
@given(instance_and_budget())
def test_strong_bjr_implies_ujr(pair):
    inst, budget = pair
    if check_axiom(inst, budget, STRONG_BJR).satisfied:
        assert check_axiom(inst, budget, UJR).satisfied


@settings(max_examples=120, deadline=None)
@given(instance_and_budget(), st.integers(1, 10))
def test_raising_limit_never_repairs_a_violation(pair, extra):
    inst, budget = pair
    relaxed = Instance(
        list(inst.costs),
        [set(b) for b in inst.ballots],
        inst.limit + extra,
        rankings=inst.rankings,
    )
    if not check_axiom(inst, budget, UJR).satisfied:
        assert not check_axiom(relaxed, budget, UJR).satisfied


@settings(max_examples=120, deadline=None)
@given(instance_and_budget())
def test_witnesses_reverify(pair):
    inst, budget = pair
    for axiom in AXIOMS:
        assert verify_witness(inst, budget, check_axiom(inst, budget, axiom))
