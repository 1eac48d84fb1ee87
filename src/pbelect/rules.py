"""Sequential budgeting rules plus brute-force optima for cross-checking.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Literal

from .core import (
    Assignment,
    Budget,
    ConfigurationError,
    ContractError,
    Instance,
    ValidationError,
    is_feasible,
    make_budget,
)

ScoringMode = Literal["approval", "borda"]
APPROVAL: ScoringMode = "approval"
BORDA: ScoringMode = "borda"

HARE = "hare"
DROOP = "droop"


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    project: int
    score: int | Fraction
    voters: frozenset[int]


@dataclass(frozen=True)
class RuleTrace:
    """Audit log of a rule run: one entry per selected project, in order."""

    rule: str
    entries: tuple[TraceEntry, ...]
    assignment: Assignment | None = None  # set on smr runs made through RULES

    def to_dict(self) -> dict:
        data: dict = {
            "rule": self.rule,
            "entries": [
                {
                    "iteration": e.iteration,
                    "project": e.project,
                    "score": _score_json(e.score),
                    "voters": sorted(e.voters),
                }
                for e in self.entries
            ],
        }
        if self.assignment is not None:
            data["assignment"] = {
                "capacity": self.assignment.capacity,
                "rep": {str(v): p for v, p in sorted(self.assignment.rep.items())},
            }
        return data


def _score_json(score: int | Fraction) -> int | str:
    if isinstance(score, Fraction):
        return int(score) if score.denominator == 1 else str(score)
    return score


def _check_mode(instance: Instance, mode: str) -> None:
    if mode not in (APPROVAL, BORDA):
        raise ConfigurationError(f"unknown scoring mode {mode!r}")
    if mode == BORDA and instance.rankings is None:
        raise ConfigurationError("borda scoring requires rankings on the instance")


def _voter_score(instance: Instance, mode: str, project: int, voter: int) -> int:
    if mode == APPROVAL:
        return 1 if project in instance.ballots[voter] else 0
    positions = instance.positions
    assert positions is not None
    return instance.m - positions[voter][project]


def _set_score(instance: Instance, mode: str, project: int, voters: set[int]) -> int:
    if mode == APPROVAL:
        return len(instance.approvers[project] & voters)
    positions = instance.positions
    assert positions is not None
    m = instance.m
    return sum(m - positions[v][project] for v in voters)


# --- coverage greedy ----------------------------------------------------------

def seq_chamberlin_courant(
    instance: Instance, mode: ScoringMode = APPROVAL
) -> tuple[Budget, RuleTrace]:
    """Greedy coverage rule under the cost limit.

    Each iteration considers only unselected projects that still fit the
    remaining budget and funds the one scoring highest over voters with no
    approved funded project yet; those voters then stop counting. The loop
    continues until nothing fits, so the result is feasible and exhaustive.
    """
    _check_mode(instance, mode)
    unsatisfied = set(range(instance.n))
    chosen: set[int] = set()
    spent = 0
    entries: list[TraceEntry] = []
    iteration = 0
    while True:
        slack = instance.limit - spent
        best = -1
        best_score = -1
        for p in range(instance.m):
            if p in chosen or instance.costs[p] > slack:
                continue
            score = _set_score(instance, mode, p, unsatisfied)
            if score > best_score:
                best, best_score = p, score
        if best < 0:
            break
        iteration += 1
        newly = instance.approvers[best] & unsatisfied
        entries.append(TraceEntry(iteration, best, best_score, frozenset(newly)))
        chosen.add(best)
        spent += instance.costs[best]
        unsatisfied -= newly
    return make_budget(instance, chosen), RuleTrace("sccr", tuple(entries))


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


def _best_assignment(
    instance: Instance, mode: str, ids: tuple[int, ...], capacity: int
) -> tuple[dict[int, int], int]:
    """Optimal capacity-respecting assignment of all voters to 1 or 2 projects.

    For a single project everyone is assigned to it. For a pair (a, b) voters
    are ordered by score(a) - score(b) descending (ties to the lower voter id)
    and every allowed split size is tried; the best prefix goes to a and the
    remainder to b. Splits tying on total score keep the smallest prefix.
    """
    n = instance.n
    if len(ids) == 1:
        p = ids[0]
        rep = {v: p for v in range(n)}
        return rep, sum(_voter_score(instance, mode, p, v) for v in range(n))
    a, b = ids
    score_a = [_voter_score(instance, mode, a, v) for v in range(n)]
    score_b = [_voter_score(instance, mode, b, v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (score_b[v] - score_a[v], v))
    base = sum(score_b)
    lo = max(0, n - capacity)
    hi = min(capacity, n)
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


def _best_budget_of_size(
    instance: Instance, mode: str, k: int, capacity: int
) -> tuple[tuple[int, ...], dict[int, int], int]:
    best: tuple[tuple[int, ...], dict[int, int], int] | None = None
    for ids in itertools.combinations(range(instance.m), k):
        if sum(instance.costs[p] for p in ids) > instance.limit:
            continue
        rep, score = _best_assignment(instance, mode, ids, capacity)
        if best is None or score > best[2]:
            best = (ids, rep, score)
    if best is None:
        raise ContractError(f"no feasible budget of size {k} exists")
    return best


def _assignment_entries(
    instance: Instance, mode: str, ids: tuple[int, ...], rep: dict[int, int]
) -> tuple[TraceEntry, ...]:
    grouped: dict[int, list[int]] = {p: [] for p in ids}
    for v, p in rep.items():
        grouped[p].append(v)
    entries = []
    for i, p in enumerate(sorted(ids), start=1):
        voters = grouped[p]
        total = sum(_voter_score(instance, mode, p, v) for v in voters)
        entries.append(TraceEntry(i, p, total, frozenset(voters)))
    return tuple(entries)


def seq_monroe(
    instance: Instance, mode: ScoringMode = APPROVAL
) -> tuple[Budget, Assignment, RuleTrace]:
    """Assignment greedy for equal-cost instances.

    With k = limit // unit selections and capacity ceil(n/k): each iteration
    scores every unselected project by the summed scores of its top-capacity
    unassigned voters, funds the best project, and assigns exactly those
    voters to it (fewer if fewer remain). For k <= 2 the enumerated optimum
    replaces the greedy and the returned assignment is exactly optimal.
    """
    _check_mode(instance, mode)
    k = committee_size(instance)
    cap = -(-instance.n // k)
    if k <= 2:
        ids, rep, _ = _best_budget_of_size(instance, mode, k, cap)
        entries = _assignment_entries(instance, mode, ids, rep)
        return make_budget(instance, ids), Assignment(rep, cap), RuleTrace("smr", entries)

    unassigned = set(range(instance.n))
    rep: dict[int, int] = {}
    chosen: set[int] = set()
    entries = []
    for iteration in range(1, k + 1):
        best = -1
        best_total = -1
        best_top: list[int] = []
        for p in range(instance.m):
            if p in chosen:
                continue
            ranked = sorted(
                unassigned, key=lambda v: (-_voter_score(instance, mode, p, v), v)
            )
            top = ranked[:cap]
            total = sum(_voter_score(instance, mode, p, v) for v in top)
            if total > best_total:
                best, best_total, best_top = p, total, top
        entries.append(TraceEntry(iteration, best, best_total, frozenset(best_top)))
        chosen.add(best)
        for v in best_top:
            rep[v] = best
        unassigned.difference_update(best_top)
    return make_budget(instance, chosen), Assignment(rep, cap), RuleTrace("smr", tuple(entries))


# --- single transferable vote ---------------------------------------------------

def _quota_value(n: int, k: int, quota: object) -> Fraction:
    if quota == HARE:
        return Fraction(n, k)
    if quota == DROOP:
        return Fraction(n // (k + 1) + 1)
    try:
        q = Fraction(quota)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"quota must be 'hare', 'droop', or a number: {quota!r}") from exc
    if q <= 0:
        raise ValidationError("quota must be positive")
    return q


def stv(instance: Instance, k: int, quota: object = HARE) -> tuple[Budget, RuleTrace]:
    """Weighted single transferable vote over full rankings.

    Voters start with weight 1. Each round tallies weighted first-place
    support among still-active candidates. If enough remain only to fill the
    committee, all are elected at once. Otherwise a candidate at or above the
    quota with maximal support is elected and its supporters' weights rescale
    by (support - quota) / support; failing that, the candidate with least
    support is eliminated. Elected and eliminated candidates disappear from
    all rankings.
    """
    if instance.rankings is None:
        raise ConfigurationError("stv requires rankings on the instance")
    if type(k) is not int or k < 1:
        raise ValidationError("k must be a positive integer")
    if k > instance.m:
        raise ValidationError(f"k={k} exceeds the {instance.m} available projects")
    n = instance.n
    q = _quota_value(n, k, quota)
    weights = [Fraction(1)] * n
    pointer = [0] * n
    active = set(range(instance.m))
    elected: list[int] = []
    entries: list[TraceEntry] = []
    iteration = 0
    while len(elected) < k:
        support: dict[int, Fraction] = {c: Fraction(0) for c in active}
        supporters: dict[int, list[int]] = {c: [] for c in active}
        for v in range(n):
            ranking = instance.rankings[v]
            while ranking[pointer[v]] not in active:
                pointer[v] += 1
            top = ranking[pointer[v]]
            support[top] += weights[v]
            supporters[top].append(v)
        if len(elected) + len(active) == k:
            for c in sorted(active):
                iteration += 1
                entries.append(
                    TraceEntry(iteration, c, support[c], frozenset(supporters[c]))
                )
                elected.append(c)
            active.clear()
            break
        reaching = [c for c in active if support[c] >= q]
        if reaching:
            winner = min(reaching, key=lambda c: (-support[c], c))
            total = support[winner]
            factor = (total - q) / total
            for v in supporters[winner]:
                weights[v] *= factor
            iteration += 1
            entries.append(
                TraceEntry(iteration, winner, total, frozenset(supporters[winner]))
            )
            active.remove(winner)
            elected.append(winner)
        else:
            loser = min(active, key=lambda c: (support[c], -c))
            active.remove(loser)
    budget = make_budget(instance, elected)
    if not is_feasible(instance, budget):
        raise ContractError(
            f"stv with k={k} produced an infeasible budget (cost {budget.total_cost} "
            f"over limit {instance.limit})"
        )
    return budget, RuleTrace("stv", tuple(entries))


# --- registry --------------------------------------------------------------------

def _run_sccr(instance, scoring=APPROVAL, quota=HARE, k=None) -> tuple[Budget, RuleTrace]:
    return seq_chamberlin_courant(instance, scoring)


def _run_smr(instance, scoring=APPROVAL, quota=HARE, k=None) -> tuple[Budget, RuleTrace]:
    budget, assignment, trace = seq_monroe(instance, scoring)
    return budget, replace(trace, assignment=assignment)


def _run_stv(instance, scoring=APPROVAL, quota=HARE, k=None) -> tuple[Budget, RuleTrace]:
    return stv(instance, committee_size(instance) if k is None else k, quota)


@dataclass(frozen=True)
class Rule:
    """``run(instance, scoring, quota, k) -> (budget, trace)`` plus what the rule
    needs of an instance. Runners ignore arguments their rule does not take and call
    it by its module-global name, so swapping that global (to trace it) reaches them."""

    run: Callable[..., tuple[Budget, RuleTrace]]
    needs_unit_cost: bool = False
    needs_rankings: bool = False


RULES: dict[str, Rule] = {
    "sccr": Rule(_run_sccr),
    "smr": Rule(_run_smr, needs_unit_cost=True),
    "stv": Rule(_run_stv, needs_unit_cost=True, needs_rankings=True),
}


# --- brute-force optima (test oracles) --------------------------------------------

def brute_force_cc_optimal(
    instance: Instance, max_projects: int = 16
) -> tuple[Budget, int]:
    """Enumerate every feasible subset and return one of maximum coverage.

    Ties go to the lexicographically smallest sorted id tuple. Refuses
    instances with more than ``max_projects`` projects.
    """
    m = instance.m
    if m > max_projects:
        raise ContractError(
            f"brute force capped at {max_projects} projects, instance has {m}"
        )
    voter_masks = []
    for p in range(m):
        mask = 0
        for v in instance.approvers[p]:
            mask |= 1 << v
        voter_masks.append(mask)
    costs = instance.costs
    limit = instance.limit
    best_ids: tuple[int, ...] | None = None
    best_cov = -1
    for subset in range(1 << m):
        members = [p for p in range(m) if subset >> p & 1]
        if sum(costs[p] for p in members) > limit:
            continue
        covered = 0
        for p in members:
            covered |= voter_masks[p]
        cov = covered.bit_count()
        ids = tuple(members)
        if cov > best_cov or (cov == best_cov and best_ids is not None and ids < best_ids):
            best_ids, best_cov = ids, cov
    assert best_ids is not None  # the empty set is always feasible
    return make_budget(instance, best_ids), best_cov


def brute_force_monroe_optimal(
    instance: Instance, k: int, mode: ScoringMode = APPROVAL
) -> tuple[Budget, Assignment, int]:
    """Enumerate all size-k budgets with their optimal assignments (k <= 2 only)."""
    _check_mode(instance, mode)
    _uniform_cost(instance)
    if type(k) is not int or k < 1:
        raise ValidationError("k must be a positive integer")
    if k > instance.m:
        raise ValidationError(f"k={k} exceeds the {instance.m} available projects")
    if k > 2:
        raise ContractError("optimal assignment search is only available for k <= 2")
    cap = -(-instance.n // k)
    ids, rep, score = _best_budget_of_size(instance, mode, k, cap)
    return make_budget(instance, ids), Assignment(rep, cap), score
