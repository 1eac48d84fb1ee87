"""Rule behavior: hand-traced elections, tie-breaks, oracles, and invariants."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbelect import rules
from pbelect.axioms import UJR, check_axiom
from pbelect.core import (
    ConfigurationError,
    ContractError,
    Instance,
    ValidationError,
    is_exhaustive,
    is_feasible,
    voter_ids,
)
from pbelect.culture import CultureConfig, equal_valued_culture, generate
from pbelect.harness import default_experiment_config, run_experiment
from pbelect.rules import (
    APPROVAL,
    BORDA,
    DROOP,
    HARE,
    RULES,
    RuleTrace,
    _lowest_bits,
    committee_size,
    seq_chamberlin_courant,
    seq_monroe,
    stv,
)

from conftest import coverage, random_unit_instance
from oracles import brute_force_cc_optimal, brute_force_monroe_optimal, rep_picks, validate_assignment


# --- coverage greedy ------------------------------------------------------------

def test_sccr_i_a(i_a):
    budget, trace = seq_chamberlin_courant(i_a)
    assert sorted(budget.selected) == [0, 1]
    assert coverage(i_a, budget) == 3
    assert is_exhaustive(i_a, budget)
    assert [(e.project, e.score) for e in trace.entries] == [(0, 2), (1, 1)]
    assert trace.entries[0].voters == frozenset({0, 1})


def test_sccr_matches_oracle_on_i_a(i_a):
    _, optimum = brute_force_cc_optimal(i_a)
    budget, _ = seq_chamberlin_courant(i_a)
    assert coverage(i_a, budget) == optimum == 3


def test_sccr_i_b_stops_when_nothing_fits(i_b):
    budget, trace = seq_chamberlin_courant(i_b)
    assert sorted(budget.selected) == [0]
    assert coverage(i_b, budget) == 2
    assert len(trace.entries) == 1


def test_sccr_single_project():
    inst = Instance([3], [{0}, {0}], 5)
    budget, _ = seq_chamberlin_courant(inst)
    assert budget.selected == frozenset({0})


def test_sccr_keeps_filling_after_everyone_satisfied():
    inst = Instance([1, 1, 1], [{0, 1, 2}, {0, 1, 2}], 2)
    budget, trace = seq_chamberlin_courant(inst)
    assert sorted(budget.selected) == [0, 1]  # second pick scores 0, lowest id
    assert trace.entries[1].score == 0


def test_sccr_borda_scoring():
    inst = Instance(
        [1, 1, 1], [{0}, {1}], 1, rankings=[(0, 1, 2), (1, 0, 2)]
    )
    budget, trace = seq_chamberlin_courant(inst, BORDA)
    assert budget.selected == frozenset({0})  # p0 and p1 tie at 5, lowest id
    assert trace.entries[0].score == 5


def test_sccr_borda_requires_rankings(i_a):
    with pytest.raises(ConfigurationError):
        seq_chamberlin_courant(i_a, BORDA)


# --- assignment greedy -----------------------------------------------------------

def _rep(trace: RuleTrace) -> dict[int, int]:
    """smr's assignment: each voter of an entry to the entry's project."""
    return {v: e.project for e in trace.entries for v in e.voters}


def test_smr_i_c_exact_pair(i_c):
    budget, trace = seq_monroe(i_c)
    assert sorted(budget.selected) == [0, 1]
    assert trace.capacity == 2
    assert _rep(trace) == {0: 0, 1: 0, 2: 1, 3: 1}


def test_smr_single_consensus_project():
    inst = Instance([1, 1, 1], [{0}] * 5, 1)
    budget, trace = seq_monroe(inst)
    assert budget.selected == frozenset({0})
    assert _rep(trace) == {v: 0 for v in range(5)}


def test_smr_k2_enumeration_example():
    inst = Instance([1, 1, 1], [{0, 1}, {0}, {1}, {2}], 2)
    budget, trace = seq_monroe(inst)
    assert sorted(budget.selected) == [0, 1]
    oracle_budget, _, _, score = brute_force_monroe_optimal(inst, 2)
    assert score == 3
    assert oracle_budget.selected == budget.selected


def test_smr_greedy_path_hand_trace():
    inst = Instance(
        [1, 1, 1, 1], [{0}, {0}, {0}, {1}, {1}, {2}], 3
    )
    budget, trace = seq_monroe(inst)
    assert sorted(budget.selected) == [0, 1, 2]
    assert trace.capacity == 2
    assert [(e.project, e.score) for e in trace.entries] == [(0, 2), (1, 2), (2, 1)]
    assert _rep(trace) == {0: 0, 1: 0, 3: 1, 4: 1, 2: 2, 5: 2}


SMR_PINNED = {
    # i_c: k = 2, the enumerated pair
    "k2": (
        lambda: Instance([1, 1], [{0}, {0}, {1}, {1}], 2),
        ((0, 2, 0b0011), (1, 2, 0b1100)),
        {"0": 0, "1": 0, "2": 1, "3": 1},
    ),
    # the greedy hand trace: k = 3, voter 2 topped up to project 2
    "k3": (
        lambda: Instance([1, 1, 1, 1], [{0}, {0}, {0}, {1}, {1}, {2}], 3),
        ((0, 2, 0b000011), (1, 2, 0b011000), (2, 1, 0b100100)),
        {"0": 0, "1": 0, "2": 2, "3": 1, "4": 1, "5": 2},
    ),
}


@pytest.mark.parametrize("case", list(SMR_PINNED))
def test_smr_trace_json_writes_the_assignment_by_voter(case):
    """smr's trace JSON writes its entries' voter sets as one map keyed in
    ascending voter order; a trace of the same picks and capacity equals the
    rule's and pickles and deep-copies equal."""
    instance, picks, rep = SMR_PINNED[case]
    expected = RuleTrace("smr", picks, 2)
    assignment = seq_monroe(instance())[1].to_dict()["assignment"]
    assert assignment == {"capacity": 2, "rep": rep}
    assert list(assignment["rep"]) == sorted(rep, key=int)
    assert seq_monroe(instance())[1] == expected
    assert expected.to_dict() == seq_monroe(instance())[1].to_dict()
    for trace in (expected, seq_monroe(instance())[1]):
        assert pickle.loads(pickle.dumps(trace)) == expected
        assert copy.deepcopy(trace) == expected


def test_smr_rejects_unequal_costs(i_b):
    with pytest.raises(ConfigurationError):
        seq_monroe(i_b)


def test_smr_borda_exact_pair():
    inst = Instance(
        [1, 1, 1], [{0}, {1}], 2, rankings=[(0, 1, 2), (1, 2, 0)]
    )
    budget, trace = seq_monroe(inst, BORDA)
    assert sorted(budget.selected) == [0, 1]
    assert _rep(trace) == {0: 0, 1: 1}


def test_smr_approval_path_builds_no_score_vector(monkeypatch):
    """Under approval scoring smr works on approver masks alone: with the
    borda helpers made to raise, it returns what it returned before on
    seed-0 trials with k = 1, 2 and 3 or more, and so does a serial study,
    while borda still reaches both helpers."""
    cultures = (equal_valued_culture(), CultureConfig(cost_model="unit", limit_model="budget"))
    instances = [generate(culture, t) for culture in cultures for t in range(300)]
    assert {min(committee_size(instance), 3) for instance in instances} == {1, 2, 3}
    config = default_experiment_config(trial_counts=(50,))
    outputs = [seq_monroe(instance, APPROVAL) for instance in instances]
    rows = run_experiment(config)

    def refuse(name):
        def helper(*args):
            raise RuntimeError(f"smr called {name}")

        return helper

    score_vectors = rules._score_vectors
    monkeypatch.setattr(rules, "_score_vectors", refuse("_score_vectors"))
    monkeypatch.setattr(rules, "_best_pair", refuse("_best_pair"))
    assert [seq_monroe(instance, APPROVAL) for instance in instances] == outputs
    assert run_experiment(config) == rows
    pair = Instance([1] * 3, [{0}, {1}, {2}], 2, rankings=[(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    greedy = Instance([1] * 3, [{0}, {1}, {2}], 3, rankings=[(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    for instance in (pair, greedy):
        with pytest.raises(RuntimeError, match="_score_vectors"):
            seq_monroe(instance, BORDA)
    monkeypatch.setattr(rules, "_score_vectors", score_vectors)
    with pytest.raises(RuntimeError, match="_best_pair"):
        seq_monroe(pair, BORDA)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(0), st.integers(1, 2**64), st.integers(2**64, 2**260)),
    st.integers(0, 300),
)
def test_lowest_bits_keeps_the_first_voters(mask, c):
    """``_lowest_bits(mask, c)`` is the mask of the first c ids of
    ``voter_ids(mask)``: all of them when c reaches the popcount, none when c is 0."""
    expected = sum(1 << v for v in itertools.islice(voter_ids(mask), c))
    assert _lowest_bits(mask, c) == expected
    assert _lowest_bits(mask, 0) == 0
    assert _lowest_bits(mask, mask.bit_count()) == _lowest_bits(mask, mask.bit_count() + c) == mask


# --- single transferable vote -------------------------------------------------------

def test_stv_i_d_hand_trace(i_d):
    budget, trace = stv(i_d, 2)
    assert sorted(budget.selected) == [0, 1]
    first = trace.entries[0]
    assert first.project == 0
    assert first.score == Fraction(2)
    assert first.voters == frozenset({0, 1})


def test_stv_shortcut_on_entry():
    inst = Instance([1, 1], [{0}, {1}], 2, rankings=[(0, 1), (1, 0)])
    budget, _ = stv(inst, 2)
    assert sorted(budget.selected) == [0, 1]


def test_stv_unanimous_top_with_quota_n():
    inst = Instance(
        [1, 1], [{0}] * 3, 1, rankings=[(0, 1)] * 3
    )
    budget, _ = stv(inst, 1, quota="hare")
    assert budget.selected == frozenset({0})


def test_stv_hare_vs_droop_paths():
    rankings = [(0, 1)] * 3 + [(1, 0)]
    inst = Instance([1, 1], [{0}] * 3 + [{1}], 1, rankings=rankings)
    droop_budget, droop_trace = stv(inst, 1, quota="droop")
    hare_budget, _ = stv(inst, 1, quota="hare")
    assert droop_budget.selected == hare_budget.selected == frozenset({0})
    assert droop_trace.entries[0].score == Fraction(3)  # elected at quota 3


def test_stv_surplus_transfer_changes_outcome():
    # Without the (support - quota) / support rescale, p1 would beat p2.
    rankings = [(0, 1, 2)] * 4 + [(2, 1, 0)] * 2
    ballots = [{0}] * 4 + [{2}] * 2
    inst = Instance([1, 1, 1], ballots, 2, rankings=rankings)
    budget, trace = stv(inst, 2)
    assert sorted(budget.selected) == [0, 2]
    assert trace.entries[0].score == Fraction(4)


def test_stv_elimination_tie_removes_highest_id(i_d):
    # After p0's election both remaining candidates sit at support 1.
    budget, _ = stv(i_d, 2)
    assert 2 not in budget.selected


def test_stv_requires_rankings(i_a):
    with pytest.raises(ConfigurationError):
        stv(i_a, 2)


def test_stv_rejects_k_over_m(i_d):
    with pytest.raises(ValidationError):
        stv(i_d, 4)


@pytest.mark.parametrize("k", [0, -1, True])
def test_stv_rejects_k_under_one(i_d, k):
    with pytest.raises(ValidationError, match="k must be a positive integer"):
        stv(i_d, k)


@pytest.mark.parametrize("rule", [seq_chamberlin_courant, seq_monroe])
def test_greedy_rules_reject_an_unknown_scoring_mode(i_d, rule):
    with pytest.raises(ConfigurationError, match="unknown scoring mode 'plurality'"):
        rule(i_d, "plurality")


@pytest.mark.parametrize(
    "quota",
    [0, -1, float("inf"), float("-inf"), float("nan"), True, "abc", None, 3, "1.5", Fraction(3, 2)],
)
def test_stv_rejects_bad_quota(i_d, quota):
    with pytest.raises(ValidationError):
        stv(i_d, 2, quota=quota)


def test_committee_size_from_limit(i_d):
    assert committee_size(i_d) == 2


def test_committee_size_rejects_unequal_costs(i_b):
    with pytest.raises(ConfigurationError):
        committee_size(i_b)


# --- brute-force oracles -------------------------------------------------------------

def test_cc_oracle_i_a_prefers_lexicographic(i_a):
    budget, cov = brute_force_cc_optimal(i_a)
    assert (sorted(budget.selected), cov) == ([0, 1], 3)


def test_cc_oracle_i_b(i_b):
    budget, cov = brute_force_cc_optimal(i_b)
    assert (sorted(budget.selected), cov) == ([0], 2)


def test_cc_oracle_everything_affordable():
    inst = Instance([1, 2], [{0}, {1}, {0, 1}], 3)
    budget, cov = brute_force_cc_optimal(inst)
    assert sorted(budget.selected) == [0, 1]
    assert cov == inst.n


def test_cc_oracle_refuses_large_instances():
    inst = Instance([1] * 17, [{0}], 1)
    with pytest.raises(ContractError):
        brute_force_cc_optimal(inst)


def test_monroe_oracle_k1_is_plurality():
    inst = Instance([1, 1, 1], [{1}, {1}, {0}], 1)
    budget, rep, capacity, score = brute_force_monroe_optimal(inst, 1)
    assert budget.selected == frozenset({1})
    assert score == 2
    assert (rep, capacity) == ({0: 1, 1: 1, 2: 1}, 3)


def test_monroe_oracle_i_c(i_c):
    budget, _, _, score = brute_force_monroe_optimal(i_c, 2)
    assert (sorted(budget.selected), score) == ([0, 1], 4)


def test_monroe_oracle_refuses_k3(i_a):
    with pytest.raises(ContractError):
        brute_force_monroe_optimal(i_a, 3)


def test_monroe_oracle_refuses_a_size_over_the_limit():
    inst = Instance([2, 2, 2], [{0}, {1}, {2}], 3)
    with pytest.raises(ContractError, match="no feasible budget of size 2"):
        brute_force_monroe_optimal(inst, 2)


def test_monroe_oracle_beats_single_order_greedy():
    # Mixed overlap where filling either project with its own top approvers
    # first strands value; the optimal split still reaches 4.
    inst = Instance([1, 1], [{0, 1}, {0, 1}, {0}, {1}], 2)
    budget, rep, capacity, score = brute_force_monroe_optimal(inst, 2)
    assert score == 4
    validate_assignment(inst, budget, RuleTrace("smr", rep_picks(inst, budget.selected, rep), capacity))


def test_monroe_oracle_assignment_matches_full_enumeration():
    # For two-project instances, compare against maximizing over every
    # capacity-respecting voter split directly.
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 10)
        ballots = [
            frozenset(rng.sample(range(2), rng.randint(1, 2))) for _ in range(n)
        ]
        inst = Instance([1, 1], ballots, 2)
        budget, rep, cap, score = brute_force_monroe_optimal(inst, 2)
        assert cap == -(-n // 2)
        s0 = [1 if 0 in b else 0 for b in ballots]
        s1 = [1 if 1 in b else 0 for b in ballots]
        best = -1
        for size in range(max(0, n - cap), min(cap, n) + 1):
            for group in itertools.combinations(range(n), size):
                chosen = set(group)
                total = sum(s0[v] for v in chosen) + sum(
                    s1[v] for v in range(n) if v not in chosen
                )
                best = max(best, total)
        assert score == best
        validate_assignment(inst, budget, RuleTrace("smr", rep_picks(inst, budget.selected, rep), cap))


# --- traces and their cached entries ---------------------------------------------------

def _ranked_unit(limit: int) -> Instance:
    """Seven voters over four unit-cost projects, ballots the first two of each ranking."""
    rankings = [
        (0, 1, 2, 3), (0, 2, 1, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 1, 2, 0), (1, 2, 0, 3), (0, 3, 1, 2)
    ]
    return Instance([1] * 4, [set(r[:2]) for r in rankings], limit, rankings=rankings)


DEFERRED_CASES = {
    "sccr-approval": lambda: seq_chamberlin_courant(Instance([5, 3, 3], [{0}, {0}, {1, 2}], 6)),
    "sccr-borda": lambda: seq_chamberlin_courant(_ranked_unit(3), BORDA),
    **{
        f"smr-{mode}-k{k}": (lambda mode=mode, k=k: seq_monroe(_ranked_unit(k), mode))
        for mode in (APPROVAL, BORDA)
        for k in (1, 2, 3)
    },
    "stv-hare": lambda: stv(_ranked_unit(3), quota=HARE),  # scores 3, 31/9 and 11/9
    "stv-droop": lambda: stv(_ranked_unit(3), quota=DROOP),
    "stv-elect-all": lambda: stv(_ranked_unit(4)),  # k = m: one round elects every candidate
    # after p0's election p2 is eliminated, and the last round elects the one candidate left
    "stv-elect-rest": lambda: stv(
        Instance([1, 1, 1], [{0}, {0}, {1}, {2}], 2, rankings=[(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)])
    ),
}


@pytest.mark.parametrize("case", list(DEFERRED_CASES))
def test_a_deferred_trace_behaves_like_an_eager_one(case):
    """A rule's trace is a plain RuleTrace over its rule, picks and capacity:
    it equals, hashes, prints, pickles and copies as the trace rebuilt from
    those three fields, none of which builds its entries, and it builds its
    entries on their first read and keeps them."""
    run = DEFERRED_CASES[case]
    source = run()[1]
    rebuilt = RuleTrace(source.rule, source.picks, source.capacity)
    assert source.entries  # every case funds a project
    assert rebuilt.entries == source.entries
    assert type(run()[1]) is RuleTrace
    assert run()[1] == rebuilt
    assert rebuilt == run()[1]
    assert repr(run()[1]) == repr(rebuilt)
    assert run()[1].to_dict() == rebuilt.to_dict()
    assert pickle.loads(pickle.dumps(run()[1])) == rebuilt
    assert copy.deepcopy(run()[1]) == rebuilt
    unread = run()[1]
    assert hash(unread) == hash(rebuilt)
    for copied in (pickle.loads(pickle.dumps(unread)), copy.deepcopy(unread)):
        assert copied == rebuilt and "entries" not in vars(copied)
    assert unread == rebuilt and repr(unread) == repr(rebuilt)
    assert "entries" not in vars(unread)
    trace = run()[1]
    assert (trace.capacity is None) == (trace.rule != "smr")
    assert trace.entries is trace.entries
    assert not hasattr(trace, "voters")
    assert "to_dict" in RuleTrace.__dict__


def test_an_eager_trace_keeps_its_defaults_and_pickles():
    trace = RuleTrace("stv", ())
    assert trace.capacity is None
    assert pickle.loads(pickle.dumps(trace)) == trace == copy.deepcopy(trace)


# --- cross-rule invariants -------------------------------------------------------------

def test_rules_are_deterministic():
    rng = random.Random(42)
    for _ in range(25):
        inst = random_unit_instance(rng, with_rankings=True)
        assert seq_chamberlin_courant(inst) == seq_chamberlin_courant(inst)
        assert seq_monroe(inst) == seq_monroe(inst)
        k = committee_size(inst)
        if k >= 1:
            assert stv(inst, k) == stv(inst, k)


def test_direct_calls_return_what_the_registry_returns():
    """smr's trace carries its capacity, stv's k defaults to the committee
    size, and trace JSON numbers the entries from 1."""
    rng = random.Random(11)
    for _ in range(40):
        inst = random_unit_instance(rng, with_rankings=True)
        budget, trace = seq_monroe(inst)
        assert trace.capacity == -(-inst.n // committee_size(inst))
        assert trace.to_dict() == RULES["smr"].run(inst)[1].to_dict()
        assert trace.to_dict()["assignment"]["capacity"] == trace.capacity
        assert stv(inst) == stv(inst, committee_size(inst)) == RULES["stv"].run(inst)
        for rule_trace in (trace, stv(inst)[1], seq_chamberlin_courant(inst)[1]):
            numbers = [entry["iteration"] for entry in rule_trace.to_dict()["entries"]]
            assert numbers == list(range(1, len(rule_trace.entries) + 1))


def _refused_for_configuration(run) -> bool:
    """Whether ``run()`` raises ConfigurationError; any other error propagates."""
    try:
        run()
    except ConfigurationError:
        return True
    return False


@pytest.mark.parametrize("name", list(RULES))
def test_each_rule_needs_what_the_registry_says(name):
    """A rule refuses a costed instance exactly when it needs unit costs, with
    every k it takes, and an unranked one exactly when it needs rankings."""
    rule = RULES[name]
    costed = Instance([1, 2, 1], [{0}, {0, 1}, {2}], 2, rankings=[(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    unit = Instance([1, 1, 1], [{0}, {0, 1}, {2}], 2)
    for options in [{}, *([{"k": 1}] if "k" in rule.options else [])]:
        assert _refused_for_configuration(lambda: rule.run(costed, **options)) == rule.needs_unit_cost
    assert _refused_for_configuration(lambda: rule.run(unit)) == rule.needs_rankings


def test_outputs_feasible_and_sccr_exhaustive():
    rng = random.Random(13)
    for _ in range(150):
        inst = random_unit_instance(rng, with_rankings=True)
        cc_budget, _ = seq_chamberlin_courant(inst)
        assert is_feasible(inst, cc_budget)
        assert is_exhaustive(inst, cc_budget)
        m_budget, trace = seq_monroe(inst)
        assert is_feasible(inst, m_budget)
        validate_assignment(inst, m_budget, trace)
        s_budget, _ = stv(inst, committee_size(inst))
        assert is_feasible(inst, s_budget)


def test_greedy_meets_submodular_bound():
    rng = random.Random(99)
    bound = 1 - 1 / math.e
    for _ in range(120):
        inst = random_unit_instance(rng, max_n=10, max_m=8)
        greedy, _ = seq_chamberlin_courant(inst)
        _, optimum = brute_force_cc_optimal(inst)
        assert coverage(inst, greedy) >= bound * optimum - 1e-9


def test_smr_small_k_equals_oracle():
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        inst = random_unit_instance(rng, max_n=10, max_m=6)
        k = committee_size(inst)
        if k > 2:
            continue
        budget, trace = seq_monroe(inst)
        o_budget, o_rep, _, _ = brute_force_monroe_optimal(inst, k)
        assert budget.selected == o_budget.selected
        assert _rep(trace) == o_rep
        checked += 1
    assert checked > 50


@st.composite
def ranked_instances(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    rankings = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    cutoffs = [draw(st.integers(1, m - 1)) for _ in range(n)]
    ballots = [frozenset(r[:c]) for r, c in zip(rankings, cutoffs)]
    limit = draw(st.integers(1, m))
    return Instance([1] * m, ballots, limit, rankings=rankings)


@settings(max_examples=60, deadline=None)
@given(ranked_instances(), st.data())
def test_stv_elected_set_is_anonymous(inst, data):
    perm = data.draw(st.permutations(range(inst.n)))
    shuffled = Instance(
        list(inst.costs),
        [inst.ballots[v] for v in perm],
        inst.limit,
        rankings=[inst.rankings[v] for v in perm],
    )
    k = committee_size(inst)
    original, _ = stv(inst, k)
    permuted, _ = stv(shuffled, k)
    assert original.selected == permuted.selected


@st.composite
def unit_instances(draw):
    m = draw(st.integers(1, 6))
    ballots = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=1), min_size=1, max_size=10))
    return Instance([1] * m, ballots, draw(st.integers(1, m + 1)))


@settings(max_examples=200, deadline=None)
@given(unit_instances())
def test_sccr_satisfies_ujr_on_unit_costs(inst):
    # with unit costs UJR is justified representation, which greedy coverage
    # satisfies (Aziz et al., Social Choice and Welfare 2017): equal/sccr's 100%
    assert check_axiom(inst, seq_chamberlin_courant(inst)[0], UJR).satisfied
