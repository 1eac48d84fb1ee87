"""Test-only reference code: short reference versions of the fast rules and
axiom scan, and the brute-force optima and axiom oracle.

Everything here reads ``Instance.ballots`` frozensets (and rankings) with
plain loops. None of it uses the library's int bitmasks
(``Instance.approver_masks``) or its helpers for represented voters
(``axioms._represented``), so a bug in either shows up as a disagreement
instead of passing through both sides of a comparison. An instance builds
its ballots from its masks, so ``naive_approver_masks`` checks the masks
that ``Instance(...)`` stores against the ballots it was given. A reference
returns its trace as picks in its rule's shape, each voter mask ORed in
voter by voter (``naive_mask``).

The references keep the straightforward loops: smr re-sorts every unassigned
voter per project per round and, for k <= 2, enumerates every size-k budget
with its keyed assignment (``best_budget_of_size``, which the Monroe oracle
calls too); stv keeps one ``Fraction`` weight per voter and re-tallies every
voter each round; sccr and the axiom scan keep each project's approvers as a
frozenset of voters, and borda sccr re-sums every unsatisfied voter's
``m - rank``. Each raises the library's errors with the library's messages,
so a comparison covers errors too.

``validate_assignment`` checks an smr trace's entries as a Monroe assignment
with plain set and count loops.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pbelect.axioms import AXIOMS, UJR, AxiomReport
from pbelect.core import (
    ConfigurationError,
    ContractError,
    ValidationError,
    is_feasible,
    make_budget,
)
from pbelect.rules import (
    APPROVAL,
    HARE,
    RuleTrace,
    _check_mode,
    _quota_value,
    committee_size,
)


def naive_approver_masks(ballots, m):
    """Each of the m projects' approver bitmask, ORed in voter by voter."""
    masks = [0] * m
    for v, ballot in enumerate(ballots):
        for p in ballot:
            masks[p] |= 1 << v
    return tuple(masks)


def naive_mask(voters):
    """The bitmask of ``voters``, ORed in voter by voter."""
    mask = 0
    for v in voters:
        mask |= 1 << v
    return mask


MAX_PROJECTS = 16  # brute_force_cc_optimal enumerates all 2**m subsets
MAX_VOTERS = 16  # naive_axiom_oracle enumerates voter groups


def _voter_score(instance, mode, project, voter):
    if mode == APPROVAL:
        return 1 if project in instance.ballots[voter] else 0
    return instance.m - instance.rankings[voter].index(project)


def _approvers(instance):
    return [
        frozenset(v for v, ballot in enumerate(instance.ballots) if p in ballot)
        for p in range(instance.m)
    ]


# --- Monroe: keyed assignment and the size-k enumeration ---------------------------

def _best_assignment(instance, mode, ids, capacity):
    """Optimal capacity-respecting assignment of all voters to 1 or 2 projects:
    voters ordered by score(a) - score(b) descending (ties to the lower id),
    the best prefix to a and the rest to b, ties to the smallest prefix."""
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


def best_budget_of_size(instance, mode, k, capacity):
    """``(ids, rep, score)`` of the best size-k budget under the limit by keyed
    assignment, ties to the first in ``itertools.combinations`` order."""
    best = None
    for ids in itertools.combinations(range(instance.m), k):
        if sum(instance.costs[p] for p in ids) > instance.limit:
            continue
        rep, score = _best_assignment(instance, mode, ids, capacity)
        if best is None or score > best[2]:
            best = (ids, rep, score)
    if best is None:
        raise ContractError(f"no feasible budget of size {k} exists")
    return best


def brute_force_monroe_optimal(instance, k, mode=APPROVAL):
    """``(budget, rep, capacity, score)`` of the best size-k budget, k <= 2,
    where ``rep`` maps every voter to its representative project."""
    if k not in (1, 2):
        raise ContractError("optimal assignment search is only available for k <= 2")
    capacity = -(-instance.n // k)
    ids, rep, score = best_budget_of_size(instance, mode, k, capacity)
    return make_budget(instance, ids), rep, capacity, score


def rep_picks(instance, ids, rep, mode=APPROVAL):
    """smr trace picks of the projects ``ids``, ascending, each
    ``(project, summed score, voter mask)`` of the voters ``rep`` maps to it."""
    picks = []
    for p in sorted(ids):
        voters = [v for v, q in rep.items() if q == p]
        total = sum(_voter_score(instance, mode, p, v) for v in voters)
        picks.append((p, total, naive_mask(voters)))
    return tuple(picks)


def validate_assignment(instance, budget, trace):
    """Raise ContractError unless smr's ``trace`` assigns voters as Monroe does:
    a positive capacity, each entry's voters known and in no other entry, no
    entry over the capacity, and the entries' projects the budget's."""
    if trace.capacity is None or trace.capacity < 1:
        raise ContractError("assignment capacity must be positive")
    seen = set()
    for entry in trace.entries:
        for v in sorted(entry.voters):
            if not 0 <= v < instance.n:
                raise ContractError(f"assignment names unknown voter {v}")
            if v in seen:
                raise ContractError(f"voter {v} is assigned twice")
            seen.add(v)
        if len(entry.voters) > trace.capacity:
            raise ContractError(
                f"project {entry.project} represents {len(entry.voters)} voters, "
                f"over capacity {trace.capacity}"
            )
    projects = sorted(entry.project for entry in trace.entries)
    if projects != sorted(budget.selected):
        raise ContractError(f"the entries fund {projects}, not the budget's {sorted(budget.selected)}")


def ref_seq_monroe(instance, mode=APPROVAL):
    _check_mode(instance, mode)
    k = committee_size(instance)
    cap = -(-instance.n // k)
    if k <= 2:
        ids, rep, _ = best_budget_of_size(instance, mode, k, cap)
        return make_budget(instance, ids), RuleTrace("smr", rep_picks(instance, ids, rep, mode), cap)
    unassigned = set(range(instance.n))
    chosen, picks = set(), []
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
        picks.append((best, best_total, naive_mask(best_top)))
        chosen.add(best)
        unassigned.difference_update(best_top)
    return make_budget(instance, chosen), RuleTrace("smr", tuple(picks), cap)


# --- reference stv --------------------------------------------------------------

def _stv_pick(candidate, support, supporters):
    """stv's trace pick of a ``Fraction`` support."""
    return candidate, support.numerator, support.denominator, tuple(supporters)


def ref_stv(instance, k, quota=HARE):
    size = committee_size(instance)
    if instance.rankings is None:
        raise ConfigurationError("stv requires rankings on the instance")
    if k > size:
        raise ValidationError(f"k={k} exceeds the committee size {size} the limit affords")
    n = instance.n
    q = _quota_value(n, k, quota)
    weights = [Fraction(1)] * n
    pointer = [0] * n
    active = set(range(instance.m))
    elected, picks = [], []
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
                picks.append(_stv_pick(c, support[c], supporters[c]))
                elected.append(c)
            break
        reaching = [c for c in active if support[c] >= q]
        if reaching:
            winner = min(reaching, key=lambda c: (-support[c], c))
            total = support[winner]
            for v in supporters[winner]:
                weights[v] *= (total - q) / total
            picks.append(_stv_pick(winner, total, supporters[winner]))
            active.remove(winner)
            elected.append(winner)
        else:
            active.remove(min(active, key=lambda c: (support[c], -c)))
    budget = make_budget(instance, elected)
    # a guard only: k <= committee_size keeps every committee affordable
    if not is_feasible(instance, budget):
        raise ContractError(
            f"stv with k={k} produced an infeasible budget (cost {budget.total_cost} "
            f"over limit {instance.limit})"
        )
    return budget, RuleTrace("stv", tuple(picks))


# --- reference sccr and axiom scan --------------------------------------------------

def ref_sccr(instance, mode=APPROVAL):
    _check_mode(instance, mode)
    approvers = _approvers(instance)
    unsatisfied = set(range(instance.n))
    chosen, spent, picks = set(), 0, []
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
        picks.append((best, best_score, naive_mask(newly)))
        chosen.add(best)
        spent += instance.costs[best]
        unsatisfied -= newly
    return make_budget(instance, chosen), RuleTrace("sccr", tuple(picks))


def _deprived(instance, budget, axiom):
    """Per voter, whether no approved funded project represents them; under
    strong-bjr only positive-cost ones do."""
    funded = frozenset(p for p in budget.selected if axiom == UJR or instance.costs[p] > 0)
    return [funded.isdisjoint(ballot) for ballot in instance.ballots]


def ref_scan(instance, budget, axiom):
    if not is_feasible(instance, budget):
        raise ContractError("axiom checks require a feasible budget")
    deprived = _deprived(instance, budget, axiom)
    for p, approvers in enumerate(_approvers(instance)):
        group = frozenset(v for v in approvers if deprived[v])
        if len(group) * instance.limit >= instance.n:
            return AxiomReport(axiom, False, (p, group))
    return AxiomReport(axiom, True)


# --- brute-force coverage optimum and the axiom oracle ------------------------------

def brute_force_cc_optimal(instance):
    """``(budget, coverage)`` of a feasible subset of maximum coverage, ties to
    the lexicographically smallest sorted id tuple."""
    if instance.m > MAX_PROJECTS:
        raise ContractError(f"brute force capped at {MAX_PROJECTS} projects, instance has {instance.m}")
    best_ids, best_cov = (), -1
    for size in range(instance.m + 1):
        for ids in itertools.combinations(range(instance.m), size):
            if sum(instance.costs[p] for p in ids) > instance.limit:
                continue
            cov = sum(1 for ballot in instance.ballots if not ballot.isdisjoint(ids))
            if cov > best_cov or (cov == best_cov and ids < best_ids):
                best_ids, best_cov = ids, cov
    return make_budget(instance, best_ids), best_cov


def naive_axiom_oracle(instance, budget, axiom):
    """The axiom by its literal quantifier over voter groups.

    Voter subsets are enumerated in increasing size, skipping sizes too small
    to clear ``size * limit >= n``. Subsets holding a represented voter can
    never violate, so only deprived voters are combined; the verdict is
    unchanged. The witness is the group and its lowest common project.
    """
    assert axiom in AXIOMS, axiom
    assert sum(instance.costs[p] for p in budget.selected) <= instance.limit, "infeasible budget"
    if instance.n > MAX_VOTERS:
        raise ContractError(f"oracle capped at {MAX_VOTERS} voters, instance has {instance.n}")
    deprived = [v for v, alone in enumerate(_deprived(instance, budget, axiom)) if alone]
    min_size = -(-instance.n // instance.limit)
    for size in range(min_size, len(deprived) + 1):
        for group in itertools.combinations(deprived, size):
            common = frozenset.intersection(*(instance.ballots[v] for v in group))
            if common:
                return AxiomReport(axiom, False, (min(common), frozenset(group)))
    return AxiomReport(axiom, True)
