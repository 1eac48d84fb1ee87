"""Sequential budgeting rules.

Three rules are provided: a coverage-greedy rule that repeatedly funds the
project approved by the most not-yet-satisfied voters (seq_chamberlin_courant),
a quota-capacity assignment greedy for equal-cost instances (seq_monroe), and
weighted single transferable vote over full rankings (stv).

Tie handling is total and deterministic everywhere: selection and election
ties go to the lowest project id, elimination ties to the highest project id,
and voters tied under a score are taken in ascending voter id order. Identical
instances therefore always produce identical budgets and traces.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Literal

from .core import (
    Budget,
    ConfigurationError,
    Instance,
    ValidationError,
    make_budget,
    voter_ids,
)

ScoringMode = Literal["approval", "borda"]
APPROVAL: ScoringMode = "approval"
BORDA: ScoringMode = "borda"

HARE = "hare"
DROOP = "droop"


@dataclass(frozen=True)
class TraceEntry:
    project: int
    score: int | Fraction
    voters: frozenset[int]


@dataclass(frozen=True)
class RuleTrace:
    """Audit log of a rule run: one pick per selected project, in order.

    A trace stores the rule's picks as plain tuples. sccr and smr record
    ``(project, score, voter mask)``, bit v of the mask being voter v; stv
    records ``(candidate, support numerator, den, supporters)``, its support
    being ``numerator / den`` and its supporters a tuple of voter ids.
    ``entries``, one ``TraceEntry`` per pick, is built from them on its first
    read and kept, so a caller that reads only the budget does not pay for
    them; two threads racing on that first read at worst both build them.
    Equality, hashing, repr, pickling and copying use the three stored fields
    alone, so two traces are equal when their picks are. smr's ``capacity``
    is ceil(n/k), and its assignment is the entries' voter sets, each voter
    represented by its entry's project.
    """

    rule: str
    picks: tuple[tuple, ...]
    capacity: int | None = None  # set by smr

    @cached_property
    def entries(self) -> tuple[TraceEntry, ...]:
        if self.rule == "stv":
            return tuple(TraceEntry(c, Fraction(s, d), frozenset(voters)) for c, s, d, voters in self.picks)
        return tuple(TraceEntry(p, score, frozenset(voter_ids(mask))) for p, score, mask in self.picks)

    def to_dict(self) -> dict:
        data: dict = {
            "rule": self.rule,
            "entries": [
                {
                    "iteration": i,
                    "project": e.project,
                    "score": _score_json(e.score),
                    "voters": sorted(e.voters),
                }
                for i, e in enumerate(self.entries, start=1)
            ],
        }
        if self.capacity is not None:
            rep = sorted((v, e.project) for e in self.entries for v in e.voters)  # by voter
            data["assignment"] = {"capacity": self.capacity, "rep": {str(v): p for v, p in rep}}
        return data


def _score_json(score: int | Fraction) -> int | str:
    if isinstance(score, Fraction):
        if score.denominator == 1:
            return int(score)
        # str(Fraction) refuses terms over the int-to-str digit limit; Decimal(int) is exact
        return f"{Decimal(score.numerator)}/{Decimal(score.denominator)}"
    return score


def _check_mode(instance: Instance, mode: str) -> None:
    if mode not in (APPROVAL, BORDA):
        raise ConfigurationError(f"unknown scoring mode {mode!r}")
    if mode == BORDA and instance.rankings is None:
        raise ConfigurationError("borda scoring requires rankings on the instance")


# --- coverage greedy ----------------------------------------------------------

def _rank_sums(rankings: Iterable[tuple[int, ...]], m: int) -> list[int]:
    """Per project, its 0-based rank summed over ``rankings``: one C-level count
    per rank column."""
    sums = [0] * m
    for rank, column in enumerate(zip(*rankings)):
        for p, voters in Counter(column).items():
            sums[p] += rank * voters
    return sums


def seq_chamberlin_courant(
    instance: Instance, mode: ScoringMode = APPROVAL
) -> tuple[Budget, RuleTrace]:
    """Greedy coverage rule under the cost limit.

    Each iteration considers only unselected projects that still fit the
    remaining budget and funds the one scoring highest over voters with no
    approved funded project yet; those voters then stop counting. The loop
    continues until nothing fits, so the result is feasible and exhaustive.
    Those voters are a bitmask, so a project's approval score is the popcount
    of its ``approver_masks`` entry ANDed with it. Its borda score over them,
    the sum of ``m - rank``, is ``left * m`` minus its rank sum over them, and
    each pick subtracts the rank sums of the voters it covers, so a run reads
    each ranking twice: O(n·m).
    """
    _check_mode(instance, mode)
    masks = instance.approver_masks
    unsatisfied = (1 << instance.n) - 1  # bit v: voter v has no approved funded project
    m = instance.m
    if mode == BORDA:
        rankings = instance.rankings
        assert rankings is not None
        rank_sums = _rank_sums(rankings, m)  # over the unsatisfied voters
    chosen: set[int] = set()
    spent = 0
    picks: list[tuple[int, int, int]] = []  # (project, score, mask of the voters it covered)
    while True:
        slack = instance.limit - spent
        if mode == BORDA:
            most = unsatisfied.bit_count() * m  # the score of a project they all rank first
        best = -1
        best_score = -1
        for p in range(m):
            if p in chosen or instance.costs[p] > slack:
                continue
            if mode == APPROVAL:
                score = (masks[p] & unsatisfied).bit_count()
            else:
                score = most - rank_sums[p]
            if score > best_score:
                best, best_score = p, score
        if best < 0:
            break
        newly = masks[best] & unsatisfied
        picks.append((best, best_score, newly))
        chosen.add(best)
        spent += instance.costs[best]
        unsatisfied ^= newly
        if mode == BORDA:
            covered = _rank_sums([rankings[v] for v in voter_ids(newly)], m)
            rank_sums = list(map(operator.sub, rank_sums, covered))

    return make_budget(instance, chosen), RuleTrace("sccr", tuple(picks))


# --- quota-capacity assignment greedy ------------------------------------------

def _uniform_cost(instance: Instance) -> int:
    first = instance.costs[0]
    if any(c != first for c in instance.costs):
        raise ConfigurationError("this rule supports only equal project costs")
    if first == 0:
        raise ConfigurationError("equal-cost rules need a positive unit cost")
    return first


def committee_size(instance: Instance) -> int:
    """Selections an equal-cost instance affords: limit // unit, capped at m."""
    return min(instance.limit // _uniform_cost(instance), instance.m)


def _score_vectors(instance: Instance) -> list[list[int]]:
    """Per project, every voter's borda score for it, ``m - rank``, indexed by voter id."""
    m = instance.m
    rankings = instance.rankings
    assert rankings is not None
    scores = [[0] * instance.n for _ in range(m)]
    for v, ranking in enumerate(rankings):
        for rank, p in enumerate(ranking):
            scores[p][v] = m - rank
    return scores


def _best_split(diffs: list[int], lo: int, hi: int) -> tuple[int, int]:
    """The first size in lo..hi whose prefix of ``diffs`` sums highest, and that sum."""
    sums = list(itertools.islice(itertools.accumulate(diffs, initial=0), lo, hi + 1))
    best = max(sums)
    return lo + sums.index(best), best


def _best_pair(
    scores: list[list[int]], capacity: int
) -> tuple[tuple[int, list[int]], tuple[int, list[int]]]:
    """The best two-project budget, where every pair fits the limit, and its
    optimal capacity-respecting assignment as ``((a, voters), (b, voters))``:
    the most total score, ties to the first pair in combinations order.

    For a pair (a, b) the voters ordered by score(a) - score(b) descending
    take a prefix to a and the rest to b, and ``_best_split`` picks the
    prefix size. The sums depend only on the sorted differences, so pairs are
    ranked on those; the winner's voters are split in that order with ties to
    the lower voter id.
    """
    m, n = len(scores), len(scores[0])
    totals = [sum(vector) for vector in scores]
    lo, hi = max(0, n - capacity), min(capacity, n)

    def total(pair: tuple[int, int]) -> int:
        a, b = pair
        diffs = sorted(map(operator.sub, scores[a], scores[b]), reverse=True)
        return totals[b] + _best_split(diffs, lo, hi)[1]

    a, b = max(itertools.combinations(range(m), 2), key=total)
    diffs = list(map(operator.sub, scores[a], scores[b]))
    order = sorted(range(n), key=diffs.__getitem__, reverse=True)  # stable: ties stay in id order
    size = _best_split([diffs[v] for v in order], lo, hi)[0]
    return (a, order[:size]), (b, order[size:])


def _lowest_bits(mask: int, c: int) -> int:
    """The ``c`` lowest set bits of a non-negative ``mask``, or all of them if it has fewer."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    # the part after the c-th "1" holds the bits to drop; it is empty if there is no c-th "1"
    return mask & ~(-1 << len(bits) - len(bits.split("1", c)[-1]))


def _best_pair_by_counts(masks: tuple[int, ...], n: int, capacity: int) -> tuple[int, int, int]:
    """``_best_pair`` under approval scoring, as ``(a, b, the mask of a's voters)``.

    Every score difference is 1, 0 or -1, so the sorted differences of a pair
    with approver masks A and B are ``|A & ~B|`` ones, then ``n - |A ^ B|``
    zeros, then ``|B & ~A|`` minus ones. The first best prefix size is the
    count of ones clamped to lo..hi, and the pair's total is ``|B|`` plus the
    prefix sum there. The winner's a takes that many voters in the sort's
    order: from A∖B, then from the voters who approve both or neither, then
    from B∖A, each in ascending id order.
    """
    lo, hi = max(0, n - capacity), min(capacity, n)
    counts = [mask.bit_count() for mask in masks]
    best_total = -1
    for a, b in itertools.combinations(range(len(masks)), 2):
        both = (masks[a] & masks[b]).bit_count()
        ones = counts[a] - both
        zeros = n - ones - counts[b] + both
        size = min(max(ones, lo), hi)
        total = counts[b] + min(size, ones) - max(0, size - ones - zeros)
        if total > best_total:
            best_total, best, best_size = total, (a, b), size
    a, b = best
    only_a, only_b = masks[a] & ~masks[b], masks[b] & ~masks[a]
    to_a = 0
    for group in (only_a, ((1 << n) - 1) ^ only_a ^ only_b, only_b):
        to_a |= _lowest_bits(group, best_size - to_a.bit_count())
    return a, b, to_a


def _voter_mask(voters: Iterable[int]) -> int:
    """The bitmask of distinct voter ids."""
    return sum(1 << v for v in voters)


def seq_monroe(instance: Instance, mode: ScoringMode = APPROVAL) -> tuple[Budget, RuleTrace]:
    """Assignment greedy for equal-cost instances.

    With k = limit // unit selections and capacity ceil(n/k): each iteration
    scores every unselected project by the summed scores of its top-capacity
    unassigned voters, funds the best project, and assigns exactly those
    voters to it (fewer if fewer remain). For k = 2 the enumerated optimum
    replaces the greedy; for k = 1, with capacity n, the greedy's pick is the
    optimum. The trace holds the capacity; its entries' voter sets are the
    assignment.

    Under approval scoring the rule works on voter bitmasks alone. For k = 2,
    pairs are ranked by a closed form over the popcounts of their approver
    masks (``_best_pair_by_counts``). Otherwise unassigned voters are a
    bitmask; a project's top voters are its unassigned approvers and then
    other unassigned voters, each in ascending id order (low bits first), so
    its score is min(capacity, popcount of its approver mask ANDed with the
    unassigned one), and each pick is a mask. Only borda scoring sorts: over
    each pair's score differences for k = 2, and otherwise each project's
    voter order once per instance, filtered each round.
    """
    _check_mode(instance, mode)
    k = committee_size(instance)
    n = instance.n
    cap = -(-n // k)
    everyone = (1 << n) - 1
    masks = instance.approver_masks
    picks: list[tuple[int, int, int]] = []  # (project, total, voter mask)
    if k == 2 and mode == APPROVAL:
        a, b, to_a = _best_pair_by_counts(masks, n, cap)
        to_b = everyone ^ to_a
        picks = [(a, (masks[a] & to_a).bit_count(), to_a), (b, (masks[b] & to_b).bit_count(), to_b)]
    elif k == 2:
        scores = _score_vectors(instance)
        picks = [
            (p, sum(scores[p][v] for v in voters), _voter_mask(voters))
            for p, voters in _best_pair(scores, cap)
        ]
    else:
        if mode == BORDA:
            scores = _score_vectors(instance)
            # a reverse sort is stable, so voters tied on a score stay in ascending id order
            orders = [sorted(range(n), key=s.__getitem__, reverse=True) for s in scores]
        unassigned = everyone  # bit v: voter v has no representative yet
        remaining = list(range(instance.m))  # unselected, ascending, so ties go to the lowest id
        for _ in range(k):
            if mode == APPROVAL:
                # scores are capped, so the first project to reach capacity wins the tie
                total = -1
                for i, p in enumerate(remaining):
                    count = (masks[p] & unassigned).bit_count()
                    if count > total:
                        total, at = count, i
                        if count >= cap:
                            break
                best = remaining.pop(at)
                approvers = masks[best] & unassigned
                if total >= cap:
                    total, top = cap, _lowest_bits(approvers, cap)
                else:
                    top = approvers | _lowest_bits(unassigned ^ approvers, cap - total)
            else:
                free = set(voter_ids(unassigned))
                tops = {
                    p: list(itertools.islice((v for v in orders[p] if v in free), cap))
                    for p in remaining
                }
                totals = {p: sum(scores[p][v] for v in tops[p]) for p in remaining}
                best = max(remaining, key=totals.__getitem__)
                top, total = _voter_mask(tops[best]), totals[best]
                remaining.remove(best)
            picks.append((best, total, top))
            unassigned ^= top

    return make_budget(instance, [p for p, _, _ in picks]), RuleTrace("smr", tuple(picks), cap)


# --- single transferable vote ---------------------------------------------------

def _quota_value(n: int, k: int, quota: object) -> Fraction:
    if quota == HARE:
        return Fraction(n, k)
    if quota == DROOP:
        return Fraction(n // (k + 1) + 1)
    raise ValidationError(f"quota must be {HARE!r} or {DROOP!r}, got {quota!r}")


def stv(
    instance: Instance, k: int | None = None, quota: str = HARE
) -> tuple[Budget, RuleTrace]:
    """Weighted single transferable vote over full rankings on an equal-cost
    instance, electing 1 <= k <= ``committee_size(instance)`` candidates, by
    default that size, so every committee fits the limit.

    Voters start with weight 1. Each round tallies weighted first-place
    support among still-active candidates. If enough remain only to fill the
    committee, all are elected at once. Otherwise a candidate at or above the
    quota with maximal support is elected and its supporters' weights rescale
    by (support - quota) / support; failing that, the candidate with least
    support is eliminated. Elected and eliminated candidates disappear from
    all rankings.

    Arithmetic is exact and integer: voter v's weight is ``num[v] / den`` over
    one shared denominator kept in lowest terms, so supports are int sums and
    the quota test is ``support * qd >= qn * den`` for quota ``qn / qd``. Only
    the supporters of a removed candidate move on to their next choice.
    """
    size = committee_size(instance)
    if k is None:
        k = size
    rankings = instance.rankings
    if rankings is None:
        raise ConfigurationError("stv requires rankings on the instance")
    if type(k) is not int or k < 1:
        raise ValidationError("k must be a positive integer")
    if k > size:
        raise ValidationError(f"k={k} exceeds the committee size {size} the limit affords")
    n = instance.n
    q = _quota_value(n, k, quota)
    qn, qd = q.numerator, q.denominator
    num = [1] * n
    den = 1
    pointer = [0] * n
    # the active candidates' numerators over den, in ascending id order, which removals and
    # rescaling keep: max() ties go to the lowest id, min() over reversed keys to the highest
    support = dict.fromkeys(range(instance.m), 0)
    supporters: dict[int, list[int]] = {c: [] for c in support}
    moving: Iterable[int] = range(n)  # voters whose top active candidate is unknown
    # per elected candidate: (candidate, its support's numerator, den then, its supporters)
    picks: list[tuple[int, int, int, tuple[int, ...]]] = []
    while len(picks) < k:
        for v in moving:
            ranking = rankings[v]
            i = pointer[v]
            while ranking[i] not in support:
                i += 1
            pointer[v] = i
            support[ranking[i]] += num[v]
            supporters[ranking[i]].append(v)
        if len(picks) + len(support) == k:
            picks += [(c, support[c], den, tuple(supporters[c])) for c in support]
            break
        winner = max(support, key=support.__getitem__)
        wins = support[winner] * qd >= qn * den
        removed = winner if wins else min(reversed(support), key=support.__getitem__)
        total = support.pop(removed)
        moving = supporters.pop(removed)
        if wins:
            picks.append((winner, total, den, tuple(moving)))
            scale = total * qd
            keep = scale - qn * den
            kept = [num[v] * keep for v in moving]
            num = [w * scale for w in num]
            for v, w in zip(moving, kept):
                num[v] = w
            den *= scale
            g = math.gcd(den, *num)
            num = [w // g for w in num]
            den //= g
            support = {c: s * scale // g for c, s in support.items()}

    return make_budget(instance, [c for c, _, _, _ in picks]), RuleTrace("stv", tuple(picks))


# --- registry --------------------------------------------------------------------

def _run_sccr(instance, *, scoring=APPROVAL) -> tuple[Budget, RuleTrace]:
    return seq_chamberlin_courant(instance, scoring)


def _run_smr(instance, *, scoring=APPROVAL) -> tuple[Budget, RuleTrace]:
    return seq_monroe(instance, scoring)


def _run_stv(instance, *, quota=HARE, k=None) -> tuple[Budget, RuleTrace]:
    return stv(instance, k, quota)


@dataclass(frozen=True)
class Rule:
    """``run(instance, **options) -> (budget, trace)``, the keyword ``options``
    it takes, and what the rule needs of an instance. Runners call their rule by
    its module-global name, so swapping that global (to trace it) reaches them."""

    run: Callable[..., tuple[Budget, RuleTrace]]
    options: tuple[str, ...]
    needs_unit_cost: bool = False
    needs_rankings: bool = False


RULES: dict[str, Rule] = {
    "sccr": Rule(_run_sccr, ("scoring",)),
    "smr": Rule(_run_smr, ("scoring",), needs_unit_cost=True),
    "stv": Rule(_run_stv, ("quota", "k"), needs_unit_cost=True, needs_rankings=True),
}

