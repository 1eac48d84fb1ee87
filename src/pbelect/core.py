"""Core domain model for participatory-budgeting elections.

Money is integral throughout, so feasibility and exhaustiveness are exact
integer comparisons with no tolerance questions. Instances validate on
construction and are immutable afterwards; every operation below is a pure
function and safe to call concurrently. An instance stores its approvals as
one voter bitmask per project; its per-voter ballot sets are a cached
property, built from the masks only if read.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from itertools import chain, compress, count
from typing import Collection, Iterator, Sequence


class ValidationError(ValueError):
    """Input data breaks a structural invariant (ids, costs, ballots, limit)."""


class ContractError(RuntimeError):
    """An operation was invoked outside its stated contract."""


class ConfigurationError(ContractError):
    """A mode or rule was requested that the given data cannot support."""


def as_tuple(value: object, what: str) -> tuple:
    """``value`` as a tuple; ValidationError unless it is a list or tuple."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list")
    return tuple(value)


def _project_ids(value: object, m: int, voter: int | None = None) -> frozenset[int]:
    """``value`` as a set of distinct ids in 0..m-1: voter ``voter``'s ballot, or
    a budget's selection when ``voter`` is None. ValidationError otherwise."""
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise _ids_error(voter, "must be a list of project ids")
    try:
        ids = frozenset(value)
    except TypeError:  # an unhashable entry such as [0]
        raise _ids_error(voter, "must be a list of project ids") from None
    for p in value:  # not the set, which keeps 1 and drops a later true or 1.0
        if type(p) is not int or not 0 <= p < m:
            raise _ids_error(voter, f"names unknown project {p!r}")
    if len(ids) != len(value):
        raise _ids_error(voter, "repeats a project id")
    return ids


def _ids_error(voter: int | None, problem: str) -> ValidationError:
    owner = "a budget" if voter is None else f"voter {voter}'s ballot"
    return ValidationError(f"{owner} {problem}")


def _approver_masks(ballots: tuple, m: int) -> tuple[int, ...]:
    """For each project, the bitmask of the voters approving it: bit v is voter
    v. Every ballot must be a non-empty set of distinct ids in 0..m-1; the first
    that is not raises ``_project_ids``'s ValidationError or the empty one."""
    masks = [0] * m
    for v, ballot in enumerate(ballots):
        bit = 1 << v
        for p in _project_ids(ballot, m, v):
            masks[p] |= bit
        if not ballot:
            raise ValidationError(f"voter {v} has an empty approval ballot")
    return tuple(masks)


def _rankings(rankings: tuple, m: int) -> tuple[tuple[int, ...], ...]:
    """Every ranking as a tuple permutation of 0..m-1 listing ints; ValidationError
    naming the first bad voter otherwise: its m entries must name every id, which
    one frozenset per ranking tests."""
    full = frozenset(range(m))
    for v, ranking in enumerate(rankings):
        try:
            permutation = (
                isinstance(ranking, (list, tuple))
                and len(ranking) == m
                and frozenset(ranking) == full
            )
        except TypeError:  # an unhashable entry such as [0]
            permutation = False
        if not permutation:
            raise ValidationError(f"voter {v}'s ranking is not a permutation of all project ids")
    # true and 1.0 equal 1 in the set test; one pass over all entries rejects them
    if not set(map(type, chain.from_iterable(rankings))) <= {int}:
        raise ValidationError("rankings must list project ids as integers")
    return tuple(map(tuple, rankings))


@dataclass(frozen=True, init=False)
class Instance:
    """One participatory-budgeting election.

    A project is its index ``p`` and costs ``costs[p]``. ``ballots[i]`` is
    voter ``i``'s approval set. ``rankings``, when present, holds one full
    preference order per voter, most preferred first. Zero-cost projects are
    rejected unless ``allow_zero_cost`` is set; empty approval ballots are
    always rejected. Every argument is checked here; lists are accepted and
    stored as tuples, and anything malformed raises ValidationError.

    An instance stores ``n`` and ``approver_masks``, for each project the
    voters approving it as a bitmask (bit v is voter v), in place of its
    ballots: ``ballots``, one frozenset per voter, is built from the masks
    on its first read. Equality, hashing, repr, pickling and copying use the
    six stored fields alone.
    """

    costs: tuple[int, ...]
    limit: int
    rankings: tuple[tuple[int, ...], ...] | None
    allow_zero_cost: bool
    n: int
    approver_masks: tuple[int, ...]

    def __init__(self, costs, ballots, limit, rankings=None, allow_zero_cost=False) -> None:
        if type(allow_zero_cost) is not bool:
            raise ValidationError("allow_zero_cost must be a boolean")
        costs = as_tuple(costs, "costs")
        if not costs:
            raise ValidationError("an instance needs at least one project")
        for p, cost in enumerate(costs):
            if type(cost) is not int:
                raise ValidationError(f"project {p} has non-integer cost {cost!r}")
            if cost < 0:
                raise ValidationError(f"project {p} has negative cost {cost}")
            if cost == 0 and not allow_zero_cost:
                raise ValidationError(
                    f"project {p} has zero cost; set allow_zero_cost to permit this"
                )
        if type(limit) is not int or limit <= 0:
            raise ValidationError("limit must be a positive integer")
        max_cost = max(costs)
        if limit < max_cost:
            raise ValidationError(f"limit {limit} is below the most expensive project ({max_cost})")
        ballots = as_tuple(ballots, "ballots")
        if not ballots:
            raise ValidationError("an instance needs at least one voter")
        masks = _approver_masks(ballots, len(costs))
        if rankings is not None:
            rankings = as_tuple(rankings, "rankings")
            if len(rankings) != len(ballots):
                raise ValidationError("rankings, when given, must cover every voter")
            rankings = _rankings(rankings, len(costs))
        self._store(costs, limit, rankings, allow_zero_cost, masks, len(ballots))

    @classmethod
    def _from_masks(cls, costs, limit, rankings, allow_zero_cost, masks, n) -> Instance:
        """The instance of these valid parts, unchecked."""
        return object.__new__(cls)._store(costs, limit, rankings, allow_zero_cost, masks, n)

    def _store(self, costs, limit, rankings, allow_zero_cost, masks, n) -> Instance:
        """Set the six fields past the frozen ``__setattr__``: both constructors end here."""
        vars(self).update(costs=costs, limit=limit, rankings=rankings,
                          allow_zero_cost=allow_zero_cost, n=n, approver_masks=masks)
        return self

    @cached_property
    def ballots(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, ballots_from_masks(self.approver_masks, self.n)))

    @property
    def m(self) -> int:
        return len(self.costs)


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a reversed bin() as bytes 0 and 1: byte v is bit v


def voter_ids(mask: int) -> Iterator[int]:
    """The voters whose bits are set in a non-negative ``mask``, in ascending order."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BITS))


def ballots_from_masks(masks: Sequence[int], n: int) -> list[list[int]]:
    """Each of the n voters' approved project ids, ascending: column v of the masks' bit rows."""
    rows = [bin(mask)[:1:-1].encode().translate(_BITS).ljust(n, b"\x00") for mask in masks]
    return [list(compress(range(len(masks)), column)) for column in zip(*rows)]


@dataclass(frozen=True)
class Budget:
    """A chosen set of projects together with its cached total cost."""

    selected: frozenset[int]
    total_cost: int


def make_budget(instance: Instance, project_ids: Collection[int]) -> Budget:
    """Build a budget over ``instance`` from a list, tuple or set of project
    ids, computing its total cost."""
    ids = _project_ids(project_ids, instance.m)
    return Budget(ids, sum(instance.costs[p] for p in ids))


def is_feasible(instance: Instance, budget: Budget) -> bool:
    """True iff the budget's total cost stays within the instance limit."""
    _project_ids(budget.selected, instance.m)
    return budget.total_cost <= instance.limit


def is_exhaustive(instance: Instance, budget: Budget) -> bool:
    """True iff no unselected project fits in the remaining slack.

    Only defined for feasible budgets; infeasible input raises ContractError.
    """
    if not is_feasible(instance, budget):
        raise ContractError("exhaustiveness is only defined for feasible budgets")
    slack = instance.limit - budget.total_cost
    return all(
        instance.costs[p] > slack
        for p in range(instance.m)
        if p not in budget.selected
    )


# --- JSON-facing converters -------------------------------------------------

def instance_to_dict(instance: Instance) -> dict:
    data: dict = {
        "limit": instance.limit,
        "projects": [{"id": p, "cost": cost} for p, cost in enumerate(instance.costs)],
        "ballots": ballots_from_masks(instance.approver_masks, instance.n),
    }
    if instance.rankings is not None:
        data["rankings"] = [list(r) for r in instance.rankings]
    if instance.allow_zero_cost:
        data["allow_zero_cost"] = True
    return data


def json_object(
    data: object, what: str, required: tuple[str, ...] = (), optional: tuple[str, ...] = ()
) -> dict:
    """``data`` if it is a JSON object with every required key and no key
    outside required and optional; ValidationError otherwise."""
    if type(data) is not dict:
        raise ValidationError(f"{what} JSON must be an object")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValidationError(f"{what} JSON needs {', '.join(map(repr, missing))}")
    unknown = [key for key in data if key not in required and key not in optional]
    if unknown:
        raise ValidationError(f"{what} JSON has unknown keys {', '.join(map(repr, unknown))}")
    return data


def instance_from_dict(data: object) -> Instance:
    """Parse the instance JSON object; raises ValidationError on bad shape."""
    data = json_object(
        data, "instance", ("limit", "projects", "ballots"), ("rankings", "allow_zero_cost")
    )
    projects = as_tuple(data["projects"], "projects")
    entries = [json_object(entry, "project", ("id", "cost")) for entry in projects]
    ids = [entry["id"] for entry in entries]
    # types first: sorting equates true and 1.0 with 1
    if not all(type(p) is int for p in ids) or sorted(ids) != list(range(len(ids))):
        raise ValidationError("project ids must be exactly 0..m-1 without duplicates")
    return Instance(
        [entry["cost"] for entry in sorted(entries, key=lambda entry: entry["id"])],
        data["ballots"],
        data["limit"],
        data.get("rankings"),
        data.get("allow_zero_cost", False),
    )


def budget_to_dict(budget: Budget) -> dict:
    return {"selected": sorted(budget.selected), "total_cost": budget.total_cost}


def budget_from_dict(instance: Instance, data: object) -> Budget:
    """Parse a budget JSON object against an instance.

    A present 'total_cost' must agree with the recomputed sum.
    """
    data = json_object(data, "budget", ("selected",), ("total_cost",))
    budget = make_budget(instance, data["selected"])
    stated = data.get("total_cost", budget.total_cost)
    if type(stated) is not int or stated != budget.total_cost:
        # the sum may pass the int-to-str digit limit, which Decimal(int) does not keep
        raise ValidationError(
            f"stated total_cost {stated!r} does not match recomputed {Decimal(budget.total_cost)}"
        )
    return budget
