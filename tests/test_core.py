"""Domain model: validation, cost/feasibility/coverage operations, JSON I/O."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbelect.core import (
    Assignment,
    ContractError,
    ValidationError,
    budget_from_dict,
    budget_to_dict,
    coverage,
    instance_from_dict,
    instance_to_dict,
    is_exhaustive,
    is_feasible,
    make_budget,
    make_instance,
    prefix_coherent,
    total_cost,
    validate_assignment,
    voter_satisfied,
)

from conftest import random_costed_instance


# --- total_cost ---------------------------------------------------------------

def test_total_cost_hand_sum():
    inst = make_instance([5, 3, 3], [{0}], 6)
    assert total_cost(inst, {0, 2}) == 8


def test_total_cost_empty_set_is_zero(i_a):
    assert total_cost(i_a, set()) == 0


def test_total_cost_unit_costs():
    inst = make_instance([1] * 5, [{0}], 5)
    assert total_cost(inst, {0, 1, 2, 3}) == 4


def test_total_cost_unknown_id(i_a):
    with pytest.raises(ValidationError):
        total_cost(i_a, {0, 7})


# --- feasibility ----------------------------------------------------------------

def test_feasible_city_example():
    # Bank, Park, Nursery, School under a 200 limit; School + Park fits.
    inst = make_instance([80, 90, 150, 100], [{3}, {1}, {3}, {0}], 200)
    assert is_feasible(inst, make_budget(inst, {1, 3}))


def test_empty_budget_always_feasible(i_b):
    assert is_feasible(i_b, make_budget(i_b, set()))


def test_infeasible_budget(i_b):
    assert not is_feasible(i_b, make_budget(i_b, {0, 1}))  # 8 > 6


# --- exhaustiveness ---------------------------------------------------------------

def test_exhaustive_when_nothing_fits(i_b):
    assert is_exhaustive(i_b, make_budget(i_b, {0}))  # slack 1 < 3


def test_not_exhaustive_when_a_project_fits(i_b):
    assert not is_exhaustive(i_b, make_budget(i_b, {1}))  # p2 still fits


def test_exhaustive_unit_costs_full_limit():
    inst = make_instance([1] * 4, [{0}], 3)
    assert is_exhaustive(inst, make_budget(inst, {0, 1, 2}))


def test_exhaustive_rejects_infeasible_budget(i_b):
    with pytest.raises(ContractError):
        is_exhaustive(i_b, make_budget(i_b, {0, 1}))


# --- satisfaction and coverage ------------------------------------------------------

def test_voter_satisfied_membership(i_a):
    budget = make_budget(i_a, {0, 1})
    assert voter_satisfied(frozenset({0}), budget)
    assert not voter_satisfied(frozenset({2}), budget)
    assert voter_satisfied(frozenset({1, 2}), budget)


def test_coverage_hand_count(i_a):
    assert coverage(i_a, make_budget(i_a, {0, 1})) == 3


def test_coverage_empty_budget(i_a):
    assert coverage(i_a, make_budget(i_a, set())) == 0


def test_coverage_all_projects(i_a):
    assert coverage(i_a, make_budget(i_a, {0, 1, 2})) == i_a.n


# --- validation -----------------------------------------------------------------

def test_rejects_empty_ballot():
    with pytest.raises(ValidationError):
        make_instance([1, 1], [{0}, set()], 2)


def test_rejects_zero_cost_without_flag():
    with pytest.raises(ValidationError):
        make_instance([1, 0], [{0}], 1)


def test_zero_cost_allowed_with_flag():
    inst = make_instance([1, 0], [{0}], 1, allow_zero_cost=True)
    assert inst.costs == (1, 0)


def test_rejects_negative_cost():
    with pytest.raises(ValidationError):
        make_instance([1, -2], [{0}], 2)


def test_rejects_limit_below_max_cost():
    with pytest.raises(ValidationError):
        make_instance([5, 3], [{0}], 4)


def test_rejects_nonpositive_limit():
    with pytest.raises(ValidationError):
        make_instance([1], [{0}], 0)


def test_rejects_unknown_ballot_id():
    with pytest.raises(ValidationError):
        make_instance([1, 1], [{0, 5}], 2)


def test_rejects_no_projects():
    with pytest.raises(ValidationError):
        make_instance([], [{0}], 1)


def test_rejects_no_voters():
    with pytest.raises(ValidationError):
        make_instance([1], [], 1)


def test_rejects_short_rankings():
    with pytest.raises(ValidationError):
        make_instance([1, 1], [{0}, {1}], 2, rankings=[(0, 1)])


def test_rejects_non_permutation_ranking():
    with pytest.raises(ValidationError):
        make_instance([1, 1], [{0}], 2, rankings=[(0, 0)])


def test_rejects_duplicate_project_ids():
    from pbelect.core import Instance, Project

    with pytest.raises(ValidationError):
        Instance((Project(0, 1), Project(0, 1)), (frozenset({0}),), 1)


def test_prefix_coherence_detection():
    inst = make_instance(
        [1, 1, 1], [{1}, {0, 2}], 2, rankings=[(1, 0, 2), (2, 0, 1)]
    )
    assert prefix_coherent(inst)
    askew = make_instance([1, 1, 1], [{0}], 2, rankings=[(1, 0, 2)])
    assert not prefix_coherent(askew)


# --- assignment validation ------------------------------------------------------------

def test_validate_assignment_accepts_good(i_c):
    budget = make_budget(i_c, {0, 1})
    validate_assignment(i_c, budget, Assignment({0: 0, 1: 0, 2: 1, 3: 1}, 2))


def test_validate_assignment_rejects_over_capacity(i_c):
    budget = make_budget(i_c, {0, 1})
    with pytest.raises(ContractError):
        validate_assignment(i_c, budget, Assignment({0: 0, 1: 0, 2: 0}, 2))


def test_validate_assignment_rejects_unselected_project(i_c):
    budget = make_budget(i_c, {0})
    with pytest.raises(ContractError):
        validate_assignment(i_c, budget, Assignment({0: 1}, 2))


# --- JSON round trips -------------------------------------------------------------

def test_instance_json_round_trip(i_d):
    assert instance_from_dict(instance_to_dict(i_d)) == i_d


def test_instance_json_accepts_shuffled_projects():
    data = {
        "limit": 6,
        "projects": [{"id": 2, "cost": 3}, {"id": 0, "cost": 5}, {"id": 1, "cost": 3}],
        "ballots": [[0], [1, 2]],
    }
    inst = instance_from_dict(data)
    assert inst.costs == (5, 3, 3)


def test_instance_json_rejects_missing_fields():
    with pytest.raises(ValidationError):
        instance_from_dict({"projects": [], "ballots": []})


def test_instance_json_rejects_duplicate_ballot_entry():
    data = {"limit": 1, "projects": [{"id": 0, "cost": 1}], "ballots": [[0, 0]]}
    with pytest.raises(ValidationError):
        instance_from_dict(data)


def test_budget_json_round_trip(i_a):
    budget = make_budget(i_a, {0, 2})
    assert budget_from_dict(i_a, budget_to_dict(budget)) == budget


def test_budget_json_rejects_wrong_total(i_a):
    for stated in (9, True, 1.0, "1"):
        with pytest.raises(ValidationError):
            budget_from_dict(i_a, {"selected": [0], "total_cost": stated})


def test_budget_json_rejects_duplicates(i_a):
    with pytest.raises(ValidationError):
        budget_from_dict(i_a, {"selected": [0, 0]})


def test_budget_json_computes_missing_total(i_a):
    assert budget_from_dict(i_a, {"selected": [0, 1]}).total_cost == 2


# --- algebraic properties ----------------------------------------------------------

@st.composite
def cost_instances(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    costs = draw(st.lists(st.integers(1, 8), min_size=m, max_size=m))
    limit = draw(st.integers(max(costs), sum(costs) + 2))
    ballots = [
        draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m))
        for _ in range(n)
    ]
    return make_instance(costs, ballots, limit)


@settings(max_examples=80, deadline=None)
@given(cost_instances(), st.data())
def test_total_cost_monotone_under_inclusion(inst, data):
    subset = data.draw(st.sets(st.integers(0, inst.m - 1)))
    superset = subset | data.draw(st.sets(st.integers(0, inst.m - 1)))
    assert total_cost(inst, subset) <= total_cost(inst, superset)


@settings(max_examples=80, deadline=None)
@given(cost_instances(), st.data())
def test_exhaustive_budget_admits_no_addition(inst, data):
    # Grow a feasible budget greedily in a random order until nothing fits.
    order = data.draw(st.permutations(range(inst.m)))
    chosen: set[int] = set()
    spent = 0
    for p in order:
        if spent + inst.costs[p] <= inst.limit:
            chosen.add(p)
            spent += inst.costs[p]
    budget = make_budget(inst, chosen)
    assert is_exhaustive(inst, budget)
    for p in range(inst.m):
        if p not in chosen:
            assert not is_feasible(inst, make_budget(inst, chosen | {p}))


@settings(max_examples=80, deadline=None)
@given(cost_instances(), st.data())
def test_coverage_monotone_and_bounded(inst, data):
    subset = data.draw(st.sets(st.integers(0, inst.m - 1)))
    superset = subset | data.draw(st.sets(st.integers(0, inst.m - 1)))
    small = coverage(inst, make_budget(inst, subset))
    large = coverage(inst, make_budget(inst, superset))
    assert small <= large <= inst.n


def test_random_costed_instances_validate():
    rng = random.Random(11)
    for _ in range(50):
        inst = random_costed_instance(rng)
        assert inst.n >= 1 and inst.m >= 1
        assert inst.limit >= max(inst.costs)
