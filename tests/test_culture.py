"""Impartial-culture generation: seed derivation, model invariants, determinism."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbelect.core import Instance, ValidationError, instance_from_dict, instance_to_dict
from pbelect.culture import (
    BERNOULLI,
    BUDGET,
    COMMITTEE,
    CultureConfig,
    PREFIX,
    UNIFORM,
    UNIT,
    _prefix_ballots,
    _randint,
    culture_config_from_dict,
    culture_config_to_dict,
    derive_trial_seed,
    equal_valued_culture,
    general_case_culture,
    generate,
)

from conftest import forbid_ballot_builds, prefix_coherent
from oracles import naive_approver_masks


# --- seed derivation --------------------------------------------------------------

def test_derive_is_deterministic():
    assert derive_trial_seed(123, 456) == derive_trial_seed(123, 456)


def test_derive_no_collisions_over_a_million_trials():
    seen = {derive_trial_seed(99, i) for i in range(1_000_000)}
    assert len(seen) == 1_000_000


def test_derive_differs_across_seeds():
    for master in (0, 1, 17, 2**63, -5):
        for other in (2, 3, 10**9):
            assert derive_trial_seed(master, 4) != derive_trial_seed(other, 4)


def test_derive_is_64_bit():
    for i in range(100):
        assert 0 <= derive_trial_seed(2**70 + 3, i) < 2**64


# --- generation -------------------------------------------------------------------

def test_generate_is_pure_in_config_and_trial():
    config = equal_valued_culture(master_seed=9)
    assert generate(config, 41) == generate(config, 41)
    assert generate(config, 41) != generate(config, 42)


@pytest.mark.parametrize("trial", [1.5, "3", -1, True], ids=["float", "string", "negative", "bool"])
def test_generate_rejects_a_trial_index_no_study_has(trial):
    with pytest.raises(ValidationError, match="trial index"):
        generate(equal_valued_culture(), trial)


@pytest.mark.parametrize("m", [3, 5, 12, 20, 40])
def test_inlined_draws_match_sample_and_randint(m):
    """Each voter's ranking and cutoff are what rng.sample(range(m), m) and then
    rng.randint(1, m - 1) draw, and the stream ends where those calls leave it.
    The approver masks are those of the sampled prefixes."""
    for seed in range(2000):
        ours, theirs = random.Random(seed), random.Random(seed)
        rankings, masks = _prefix_ballots(ours, 2, m)
        prefixes = []
        for ranking in rankings:
            expected = tuple(theirs.sample(range(m), m))
            assert ranking == expected
            prefixes.append(expected[: theirs.randint(1, m - 1)])
        assert tuple(masks) == naive_approver_masks(prefixes, m)
        for lo, hi in ((1, m), (m, m), (2, m - 1), (m, 10 * m)):
            assert _randint(ours, lo, hi) == theirs.randint(lo, hi)
        assert ours.random() == theirs.random()


@st.composite
def culture_configs(draw) -> CultureConfig:
    """Valid configs over every cost, limit and ballot model, with small
    ranges and any master seed."""
    n_lo = draw(st.integers(1, 6))
    m_lo = draw(st.integers(3, 6))
    cost_model = draw(st.sampled_from([UNIT, UNIFORM]))
    cost_min = draw(st.integers(1, 50))
    return CultureConfig(
        n_range=(n_lo, draw(st.integers(n_lo, 8))),
        m_range=(m_lo, draw(st.integers(m_lo, 8))),
        cost_model=cost_model,
        cost_min=cost_min,
        cost_max=draw(st.integers(cost_min, 10**6)),
        limit_model=draw(st.sampled_from([COMMITTEE, BUDGET])) if cost_model == UNIT else BUDGET,
        ballot_model=draw(st.sampled_from([PREFIX, BERNOULLI])),
        approval_prob=draw(st.floats(0.05, 1.0)),
        master_seed=draw(st.integers()),
    )


@settings(max_examples=300, deadline=None)
@given(culture_configs(), st.integers(0, 10**6))
def test_generate_yields_a_valid_instance(config, trial):
    """generate builds its instance without Instance's checks, which would
    accept it unchanged, and with masks that agree with the ballots built
    from them; a prefix ballot is a non-empty proper prefix of its ranking."""
    g = generate(config, trial)
    checked = Instance(g.costs, g.ballots, g.limit, g.rankings)
    assert checked == g and hash(checked) == hash(g)
    assert checked.approver_masks == g.approver_masks and checked.n == g.n
    # the stored types too: frozenset == set would let a set ballot through
    assert type(g.costs) is tuple and all(type(cost) is int for cost in g.costs)
    assert type(g.ballots) is tuple and all(type(ballot) is frozenset for ballot in g.ballots)
    assert type(g.limit) is int and g.allow_zero_cost is False
    if config.ballot_model == PREFIX:
        assert type(g.rankings) is tuple and all(type(ranking) is tuple for ranking in g.rankings)
        assert all(
            0 < len(ballot) < g.m and ballot == frozenset(ranking[: len(ballot)])
            for ballot, ranking in zip(g.ballots, g.rankings)
        )
    else:
        assert g.rankings is None


GENERATED = {
    "equal": equal_valued_culture(5),
    "general": general_case_culture(5),
    "bernoulli": CultureConfig(ballot_model=BERNOULLI, approval_prob=0.3, master_seed=5),
}


@pytest.mark.parametrize("culture", list(GENERATED))
def test_a_generated_instance_behaves_like_a_checked_one(culture):
    """generate's instance behaves like the checked one: it compares, hashes,
    prints, pickles and copies alike, and builds its ballots from its masks on
    their first read and keeps what it built."""
    config = GENERATED[culture]
    for trial in range(20):
        g = generate(config, trial)
        checked = Instance(g.costs, g.ballots, g.limit, g.rankings)
        assert type(generate(config, trial)) is Instance
        assert generate(config, trial) == checked and checked == generate(config, trial)
        assert hash(generate(config, trial)) == hash(checked)
        assert repr(generate(config, trial)) == repr(checked)
        assert pickle.loads(pickle.dumps(generate(config, trial))) == checked
        assert copy.deepcopy(generate(config, trial)) == checked
        assert g.ballots is g.ballots
        assert not hasattr(g, "voters")


def test_n_and_approver_masks_build_no_ballots():
    for config in GENERATED.values():
        g = generate(config, 3)
        assert g.n >= 1 and len(g.approver_masks) == g.m
        assert "ballots" not in vars(g)
        assert len(g.ballots) == g.n and "ballots" in vars(g)


@pytest.mark.parametrize("culture", list(GENERATED))
def test_an_instance_compares_pickles_and_copies_without_its_ballots(culture, monkeypatch):
    """Equality, hashing, repr, pickling and deep copying use an instance's six
    stored fields alone: none of them builds the ballots of a generated or a
    decoded instance, and each round trip compares equal. A pickle of an
    instance whose ballots were read still equals it."""
    generated = generate(GENERATED[culture], 3)
    decoded = instance_from_dict(instance_to_dict(generated))
    forbid_ballot_builds(monkeypatch)
    assert generated == decoded and hash(generated) == hash(decoded)
    assert repr(generated) == repr(decoded)
    for instance in (generated, decoded):
        for twin in (pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance)):
            assert type(twin) is Instance and twin == instance and instance == twin
            assert hash(twin) == hash(instance) and repr(twin) == repr(instance)
    monkeypatch.undo()
    assert "ballots" not in vars(generated) and "ballots" not in vars(decoded)
    ballots = generated.ballots
    twin = pickle.loads(pickle.dumps(generated))
    assert twin == generated and twin.ballots == ballots


def test_unit_model_invariants():
    config = equal_valued_culture(master_seed=3)
    for trial in range(10_000):
        inst = generate(config, trial)
        assert set(inst.costs) == {1}
        assert 2 <= inst.limit <= inst.m - 1
        assert inst.rankings is not None
        assert prefix_coherent(inst)
        assert all(1 <= len(b) <= inst.m - 1 for b in inst.ballots)


def test_general_model_invariants():
    config = general_case_culture(master_seed=3)
    for trial in range(2000):
        inst = generate(config, trial)
        assert all(1 <= c <= 10 for c in inst.costs)
        assert inst.limit >= max(inst.costs)
        assert inst.limit <= max(max(inst.costs), (sum(inst.costs) + 1) // 2)


def test_budget_limit_fallback_to_max_cost():
    # With few projects and a wide cost spread, ceil(total/2) often falls
    # below the priciest project; the limit must then equal that cost.
    config = CultureConfig(
        n_range=(2, 4),
        m_range=(3, 3),
        cost_model=UNIFORM,
        cost_min=1,
        cost_max=30,
        limit_model=BUDGET,
        master_seed=8,
    )
    fallbacks = 0
    for trial in range(150):
        inst = generate(config, trial)
        assert inst.limit >= max(inst.costs)
        if (sum(inst.costs) + 1) // 2 < max(inst.costs):
            fallbacks += 1
            assert inst.limit == max(inst.costs)
    assert fallbacks > 0


def test_bernoulli_ballots_hit_target_rate():
    config = CultureConfig(
        n_range=(20, 40), m_range=(5, 20), ballot_model=BERNOULLI,
        approval_prob=0.5, master_seed=12,
    )
    pairs = approved = 0
    trial = 0
    while pairs < 10_000:
        inst = generate(config, trial)
        assert inst.rankings is None
        pairs += inst.n * inst.m
        approved += sum(len(b) for b in inst.ballots)
        trial += 1
    assert abs(approved / pairs - 0.5) < 0.02


# --- config validation ---------------------------------------------------------------

def test_rejects_small_m_range():
    with pytest.raises(ValidationError):
        CultureConfig(m_range=(2, 5))


def test_rejects_inverted_range():
    with pytest.raises(ValidationError):
        CultureConfig(n_range=(9, 4))


def test_rejects_committee_limit_with_uniform_costs():
    with pytest.raises(ValidationError):
        CultureConfig(cost_model=UNIFORM)


def test_rejects_bad_approval_prob():
    with pytest.raises(ValidationError):
        CultureConfig(ballot_model=BERNOULLI, approval_prob=0.0)


@pytest.mark.parametrize("m_lo", [3, 20, 2**40, 10**400])
def test_rejects_an_approval_prob_that_leaves_ballots_empty(m_lo):
    """A voter redraws an empty ballot, of chance (1 - p) ** m; a config whose
    smallest m needs over 2**20 expected draws per voter is refused."""
    with pytest.raises(ValidationError, match="2\\*\\*20 expected draws"):
        CultureConfig(m_range=(m_lo, m_lo), ballot_model=BERNOULLI, approval_prob=1e-300)


def test_the_approval_prob_bound_sits_at_2_to_the_20_expected_draws():
    with pytest.raises(ValidationError, match="expected draws"):
        CultureConfig(m_range=(3, 3), ballot_model=BERNOULLI, approval_prob=2**-20 / 3.1)
    # just under the bound at m = 3, and any chance under the prefix model, are accepted
    CultureConfig(m_range=(3, 3), ballot_model=BERNOULLI, approval_prob=2**-20 / 2.9)
    CultureConfig(m_range=(3, 3), ballot_model=PREFIX, approval_prob=1e-300)


def test_the_instance_size_bound_sits_at_2_to_the_24_pairs():
    """A config whose largest instance, n_hi * m_hi, is over 2**24 voter-project
    pairs is refused in one error that names both ranges."""
    CultureConfig(n_range=(900, 1000), m_range=(35, 40))  # the benchmark's large instances
    CultureConfig(n_range=(1, 2**22), m_range=(3, 4))
    with pytest.raises(ValidationError, match="n_range and m_range allow over 2\\*\\*24"):
        CultureConfig(n_range=(1, 97 * 673), m_range=(3, 257))  # 2**24 + 1


def test_rejects_bad_cost_bounds():
    with pytest.raises(ValidationError):
        CultureConfig(cost_model=UNIFORM, limit_model=BUDGET, cost_min=0)


def test_config_dict_round_trip():
    config = general_case_culture(master_seed=77)
    assert culture_config_from_dict(culture_config_to_dict(config)) == config


def test_config_dict_rejects_unknown_field():
    with pytest.raises(ValidationError):
        culture_config_from_dict({"n_rnage": [1, 2]})


def test_config_dict_rejects_bad_interval():
    with pytest.raises(ValidationError):
        culture_config_from_dict({"n_range": [1, 2, 3]})
