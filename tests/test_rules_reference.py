"""The fast rules and axiom scan against a short reference version of each.

The reference keeps the straightforward loops: smr re-sorts every unassigned
voter per project per round and enumerates every size-k budget with its keyed
assignment for k <= 2; stv keeps one ``Fraction`` weight per voter and re-tallies
every voter each round; sccr and the axiom scan keep each project's approvers
as a frozenset of voters where the library uses int bitmasks, and borda sccr
re-sums every unsatisfied voter's ``m - rank`` where the library keeps rank
sums per project. Each must return
the same budget, trace (exact scores included), assignment, report and error as
its reference on every instance, including instances with more voters than one
machine word holds.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pbelect.axioms import AXIOMS, UJR, AxiomReport, check_axiom
from pbelect.core import (
    Assignment,
    ConfigurationError,
    ContractError,
    Instance,
    is_feasible,
    make_budget,
)
from pbelect.rules import (
    APPROVAL,
    BORDA,
    DROOP,
    HARE,
    RuleTrace,
    TraceEntry,
    _check_mode,
    _quota_value,
    committee_size,
    seq_chamberlin_courant,
    seq_monroe,
    stv,
)


def _voter_score(instance, mode, project, voter):
    if mode == APPROVAL:
        return 1 if project in instance.ballots[voter] else 0
    return instance.m - instance.rankings[voter].index(project)


# --- reference smr --------------------------------------------------------------

def _ref_best_assignment(instance, mode, ids, capacity):
    n = instance.n
    if len(ids) == 1:
        p = ids[0]
        return {v: p for v in range(n)}, sum(_voter_score(instance, mode, p, v) for v in range(n))
    a, b = ids
    score_a = [_voter_score(instance, mode, a, v) for v in range(n)]
    score_b = [_voter_score(instance, mode, b, v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (score_b[v] - score_a[v], v))
    base = sum(score_b)
    lo, hi = max(0, n - capacity), min(capacity, n)
    running = sum(score_a[v] - score_b[v] for v in order[:lo])
    best_size, best_total = lo, base + running
    for size in range(lo + 1, hi + 1):
        v = order[size - 1]
        running += score_a[v] - score_b[v]
        if base + running > best_total:
            best_size, best_total = size, base + running
    rep = {v: a for v in order[:best_size]}
    rep.update({v: b for v in order[best_size:]})
    return rep, best_total


def ref_seq_monroe(instance, mode=APPROVAL):
    _check_mode(instance, mode)
    k = committee_size(instance)
    cap = -(-instance.n // k)
    if k <= 2:
        best = None
        for ids in itertools.combinations(range(instance.m), k):
            if sum(instance.costs[p] for p in ids) > instance.limit:
                continue
            rep, score = _ref_best_assignment(instance, mode, ids, cap)
            if best is None or score > best[2]:
                best = (ids, rep, score)
        if best is None:
            raise ContractError(f"no feasible budget of size {k} exists")
        ids, rep, _ = best
        entries = []
        for p in sorted(ids):
            voters = [v for v, q in rep.items() if q == p]
            total = sum(_voter_score(instance, mode, p, v) for v in voters)
            entries.append(TraceEntry(p, total, frozenset(voters)))
        return make_budget(instance, ids), RuleTrace("smr", tuple(entries), Assignment(rep, cap))
    unassigned = set(range(instance.n))
    rep, chosen, entries = {}, set(), []
    for _ in range(k):
        best, best_total, best_top = -1, -1, []
        for p in range(instance.m):
            if p in chosen:
                continue
            ranked = sorted(unassigned, key=lambda v: (-_voter_score(instance, mode, p, v), v))
            top = ranked[:cap]
            total = sum(_voter_score(instance, mode, p, v) for v in top)
            if total > best_total:
                best, best_total, best_top = p, total, top
        entries.append(TraceEntry(best, best_total, frozenset(best_top)))
        chosen.add(best)
        for v in best_top:
            rep[v] = best
        unassigned.difference_update(best_top)
    return make_budget(instance, chosen), RuleTrace("smr", tuple(entries), Assignment(rep, cap))


# --- reference stv --------------------------------------------------------------

def ref_stv(instance, k, quota=HARE):
    if instance.rankings is None:
        raise ConfigurationError("stv requires rankings on the instance")
    n = instance.n
    q = _quota_value(n, k, quota)
    weights = [Fraction(1)] * n
    pointer = [0] * n
    active = set(range(instance.m))
    elected, entries = [], []
    while len(elected) < k:
        support = {c: Fraction(0) for c in active}
        supporters = {c: [] for c in active}
        for v in range(n):
            ranking = instance.rankings[v]
            while ranking[pointer[v]] not in active:
                pointer[v] += 1
            support[ranking[pointer[v]]] += weights[v]
            supporters[ranking[pointer[v]]].append(v)
        if len(elected) + len(active) == k:
            for c in sorted(active):
                entries.append(TraceEntry(c, support[c], frozenset(supporters[c])))
                elected.append(c)
            break
        reaching = [c for c in active if support[c] >= q]
        if reaching:
            winner = min(reaching, key=lambda c: (-support[c], c))
            total = support[winner]
            for v in supporters[winner]:
                weights[v] *= (total - q) / total
            entries.append(TraceEntry(winner, total, frozenset(supporters[winner])))
            active.remove(winner)
            elected.append(winner)
        else:
            active.remove(min(active, key=lambda c: (support[c], -c)))
    budget = make_budget(instance, elected)
    if not is_feasible(instance, budget):
        raise ContractError(
            f"stv with k={k} produced an infeasible budget (cost {budget.total_cost} "
            f"over limit {instance.limit})"
        )
    return budget, RuleTrace("stv", tuple(entries))


# --- reference sccr and axiom scan --------------------------------------------------

def _ref_approvers(instance):
    return [
        frozenset(v for v, ballot in enumerate(instance.ballots) if p in ballot)
        for p in range(instance.m)
    ]


def ref_sccr(instance, mode=APPROVAL):
    _check_mode(instance, mode)
    approvers = _ref_approvers(instance)
    unsatisfied = set(range(instance.n))
    chosen, spent, entries = set(), 0, []
    while True:
        best, best_score = -1, -1
        for p in range(instance.m):
            if p in chosen or instance.costs[p] > instance.limit - spent:
                continue
            if mode == APPROVAL:
                score = len(approvers[p] & unsatisfied)
            else:
                score = sum(_voter_score(instance, mode, p, v) for v in unsatisfied)
            if score > best_score:
                best, best_score = p, score
        if best < 0:
            break
        newly = approvers[best] & unsatisfied
        entries.append(TraceEntry(best, best_score, frozenset(newly)))
        chosen.add(best)
        spent += instance.costs[best]
        unsatisfied -= newly
    return make_budget(instance, chosen), RuleTrace("sccr", tuple(entries))


def ref_scan(instance, budget, axiom):
    if not is_feasible(instance, budget):
        raise ContractError("axiom checks require a feasible budget")
    funded = frozenset(p for p in budget.selected if axiom == UJR or instance.costs[p] > 0)
    flags = [not funded.isdisjoint(ballot) for ballot in instance.ballots]
    for p, approvers in enumerate(_ref_approvers(instance)):
        group = frozenset(v for v in approvers if not flags[v])
        if len(group) * instance.limit >= instance.n:
            return AxiomReport(axiom, False, (p, group))
    return AxiomReport(axiom, True)


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
        elif isinstance(part, Assignment):
            out.append(("assignment", dict(part.rep), part.capacity))
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
def wide_instances(draw, unit_cost=False, max_n=200, max_m=8):
    """Ranked instances with up to max_n voters, so voter bitmasks often span
    several machine words. Ballots and rankings come from a seeded Random to
    keep the draw small; in mirrored instances every odd voter ranks in the
    reverse order of the voter before, so borda scores tie across projects.
    Costs run from 0 to 6 (zero only where allowed); with ``unit_cost`` they
    are one equal cost and the limit affords at least three projects, which is
    smr's greedy path."""
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
        limit = unit * draw(st.integers(3, m + 1)) + draw(st.integers(0, unit - 1))
    else:
        costs = draw(st.lists(st.integers(0 if allow_zero_cost else 1, 6), min_size=m, max_size=m))
        limit = draw(st.integers(max(1, *costs), sum(costs) + 1))
    return Instance(costs, ballots, limit, rankings, allow_zero_cost)


QUOTAS = st.one_of(
    st.sampled_from([HARE, DROOP]),
    st.fractions(min_value=Fraction(1, 4), max_value=20, max_denominator=7),
    st.builds(lambda whole, tenth: f"{whole}.{tenth}", st.integers(0, 20), st.integers(1, 9)),
)


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
    """The strategy reaches k <= 2 and k > 2 for smr and the over-committee
    ContractError of stv; a fixed instance of each keeps that visible."""
    pair = Instance([1] * 4, [{0}, {0, 1}, {1}, {2}, {3}], 2, rankings=[(0, 1, 2, 3)] * 5)
    greedy = Instance([1] * 4, [{0}, {0, 1}, {1}, {2}, {3}], 3, rankings=[(3, 1, 2, 0)] * 5)
    for instance in (pair, greedy):
        for mode in (APPROVAL, BORDA):
            assert _outcome(lambda: seq_monroe(instance, mode)) == _outcome(
                lambda: ref_seq_monroe(instance, mode)
            )
    over = _outcome(lambda: stv(pair, 3, "0.5"))
    assert over[0] == "error" and over[1] is ContractError
    assert over == _outcome(lambda: ref_stv(pair, 3, "0.5"))
