"""The fast rules and axiom scan against the short reference version of each
in ``oracles``.

Each must return the same budget, trace (exact scores included, and smr's
assignment with them), report and error as its reference on every instance,
including instances with more voters than one machine word holds.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pbelect.axioms import AXIOMS, AxiomReport, check_axiom
from pbelect.core import Instance, ValidationError, make_budget
from pbelect.rules import (
    APPROVAL,
    BORDA,
    DROOP,
    HARE,
    RuleTrace,
    seq_chamberlin_courant,
    seq_monroe,
    stv,
)

from oracles import ref_scan, ref_sccr, ref_seq_monroe, ref_stv


# --- comparison -------------------------------------------------------------------

def _outcome(call):
    """A rule run as plain comparable data: its error, or its outputs."""
    try:
        result = call()
    except Exception as exc:  # the error type and message must match too
        return ("error", type(exc), str(exc))
    out = []
    for part in result:
        if isinstance(part, RuleTrace):
            scores = [(type(e.score), e.score) for e in part.entries]
            out.append(("trace", part.to_dict(), scores))
        elif isinstance(part, AxiomReport):
            out.append(("report", part.to_dict()))
        else:
            out.append(part)
    return out


@st.composite
def ranked_unit_instances(draw, max_n=30, max_m=8):
    """Equal-cost instances with rankings; ballots are ranking prefixes or drawn
    at random, and a few instances carry one dearer project."""
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    rankings = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    if draw(st.booleans()):
        ballots = [frozenset(r[: draw(st.integers(1, m - 1))]) for r in rankings]
    else:
        ballots = [
            draw(st.frozensets(st.integers(0, m - 1), min_size=1, max_size=m)) for _ in range(n)
        ]
    unit = draw(st.integers(1, 3))
    costs = [unit] * m
    if draw(st.integers(0, 9)) == 0:
        costs[draw(st.integers(0, m - 1))] = unit + 1
    limit = draw(st.integers(max(costs), (m + 1) * unit))
    return Instance(costs, ballots, limit, rankings=rankings)


@st.composite
def wide_instances(draw, unit_cost=False, max_n=200, max_m=8, size=None):
    """Ranked instances with up to max_n voters, so voter bitmasks often span
    several machine words. Ballots and rankings come from a seeded Random to
    keep the draw small; in mirrored instances every odd voter ranks in the
    reverse order of the voter before, so borda scores tie across projects.
    Costs run from 0 to 6 (zero only where allowed); with ``unit_cost`` they
    are one equal cost and the limit affords ``size`` projects, by default at
    least three, which is smr's greedy path."""
    m = draw(st.integers(3 if unit_cost else 1, max_m))
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
    if draw(st.booleans(), label="mirrored"):
        rankings[1::2] = [r[::-1] for r in rankings[: n // 2 * 2 : 2]]
    ballots = [frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
    allow_zero_cost = not unit_cost and draw(st.booleans())
    if unit_cost:
        unit = draw(st.integers(1, 3))
        costs = [unit] * m
        afford = draw(st.integers(3, m + 1)) if size is None else size
        limit = unit * afford + draw(st.integers(0, unit - 1))
    else:
        costs = draw(st.lists(st.integers(0 if allow_zero_cost else 1, 6), min_size=m, max_size=m))
        limit = draw(st.integers(max(1, *costs), sum(costs) + 1))
    return Instance(costs, ballots, limit, rankings, allow_zero_cost)


QUOTAS = st.sampled_from([HARE, DROOP])


@settings(max_examples=150, deadline=None)
@given(ranked_unit_instances(), st.sampled_from([APPROVAL, BORDA]))
def test_smr_matches_reference(instance, mode):
    assert _outcome(lambda: seq_monroe(instance, mode)) == _outcome(
        lambda: ref_seq_monroe(instance, mode)
    )


@settings(max_examples=100, deadline=None)
@given(wide_instances(unit_cost=True), st.sampled_from([APPROVAL, BORDA]))
def test_smr_matches_reference_on_wide_instances(instance, mode):
    assert _outcome(lambda: seq_monroe(instance, mode)) == _outcome(
        lambda: ref_seq_monroe(instance, mode)
    )


@settings(max_examples=100, deadline=None)
@given(wide_instances(unit_cost=True, size=2), st.sampled_from([APPROVAL, BORDA]))
def test_smr_k2_matches_reference_on_wide_instances(instance, mode):
    """smr's exact pair search, which under approval ranks pairs by popcounts
    and splits the winner from masks, on voter masks of several machine words."""
    assert _outcome(lambda: seq_monroe(instance, mode)) == _outcome(
        lambda: ref_seq_monroe(instance, mode)
    )


@settings(max_examples=150, deadline=None)
@given(wide_instances(), st.sampled_from([APPROVAL, BORDA]))
def test_sccr_matches_reference(instance, mode):
    """Borda runs cover rank sums past one machine word of voters, zero-cost
    projects and tied scores, the last through mirrored rankings."""
    assert _outcome(lambda: seq_chamberlin_courant(instance, mode)) == _outcome(
        lambda: ref_sccr(instance, mode)
    )


@settings(max_examples=150, deadline=None)
@given(wide_instances(), st.data())
def test_axiom_scan_matches_reference(instance, data):
    """Budgets are sccr's, which are feasible, or any subset of the projects."""
    if data.draw(st.booleans(), label="sccr budget"):
        budget = seq_chamberlin_courant(instance)[0]
    else:
        budget = make_budget(instance, data.draw(st.frozensets(st.integers(0, instance.m - 1))))
    axiom = data.draw(st.sampled_from(AXIOMS), label="axiom")
    assert _outcome(lambda: (check_axiom(instance, budget, axiom),)) == _outcome(
        lambda: (ref_scan(instance, budget, axiom),)
    )


@settings(max_examples=150, deadline=None)
@given(ranked_unit_instances(), st.data())
def test_stv_matches_reference(instance, data):
    k = data.draw(st.integers(1, instance.m), label="k")
    quota = data.draw(QUOTAS, label="quota")
    assert _outcome(lambda: stv(instance, k, quota)) == _outcome(
        lambda: ref_stv(instance, k, quota)
    )


def test_reference_covers_both_smr_paths_and_stv_errors():
    """The strategy reaches k <= 2 and k > 2 for smr and stv's ValidationError
    for a k over the committee size; a fixed instance of each keeps that visible."""
    pair = Instance([1] * 4, [{0}, {0, 1}, {1}, {2}, {3}], 2, rankings=[(0, 1, 2, 3)] * 5)
    greedy = Instance([1] * 4, [{0}, {0, 1}, {1}, {2}, {3}], 3, rankings=[(3, 1, 2, 0)] * 5)
    # 130 voters, capacity 65: project 2 copies project 1, so pairs (0, 1) and (0, 2)
    # tie on total 130 and the first in combinations order must win; project 0 takes
    # its 44 sole approvers (ids 0, 3, ..., 129) and then 21 who approve both (2, ..., 62)
    groups = [({0}, (0, 1, 2)), ({1, 2}, (1, 2, 0)), ({0, 1, 2}, (2, 0, 1))]
    wide = Instance(
        [1] * 3, [groups[v % 3][0] for v in range(130)], 2, rankings=[groups[v % 3][1] for v in range(130)]
    )
    budget, trace = seq_monroe(wide)
    assert budget.selected == {0, 1}
    to_a, to_b = (entry.voters for entry in trace.entries)
    assert len(to_a) == 65 and max(to_a) == 129 and min(to_b) == 1 < 64 < max(to_b)
    for instance in (pair, greedy, wide):
        for mode in (APPROVAL, BORDA):
            assert _outcome(lambda: seq_monroe(instance, mode)) == _outcome(
                lambda: ref_seq_monroe(instance, mode)
            )
    over = _outcome(lambda: stv(pair, 3, HARE))
    assert over[0] == "error" and over[1] is ValidationError
    assert over == _outcome(lambda: ref_stv(pair, 3, HARE))
