"""Core domain model for participatory-budgeting elections.

Money is integral throughout, so feasibility and exhaustiveness are exact
integer comparisons with no tolerance questions. Instances validate on
construction and are immutable afterwards; every operation below is a pure
function and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence


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
    """``value`` as a set of ids in 0..m-1: voter ``voter``'s ballot, or a
    budget's selection when ``voter`` is None. ValidationError otherwise."""
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise _ids_error(voter, "must be a list of project ids")
    try:
        ids = frozenset(value)
    except TypeError:  # an unhashable entry such as [0]
        raise _ids_error(voter, "must be a list of project ids") from None
    for p in ids:
        if type(p) is not int or not 0 <= p < m:
            raise _ids_error(voter, f"names unknown project {p!r}")
    return ids


def _ids_error(voter: int | None, problem: str) -> ValidationError:
    owner = "a budget" if voter is None else f"voter {voter}'s ballot"
    return ValidationError(f"{owner} {problem}")


@dataclass(frozen=True)
class Project:
    """A fundable project: dense integer id plus non-negative integer cost."""

    id: int
    cost: int


@dataclass(frozen=True)
class Instance:
    """One participatory-budgeting election.

    ``ballots[i]`` is voter ``i``'s approval set. ``rankings``, when present,
    holds one full preference order per voter, most preferred first. Project
    ids are dense (exactly 0..m-1). Zero-cost projects are rejected unless
    ``allow_zero_cost`` is set; empty approval ballots are always rejected.
    Every field is checked here; lists are accepted and stored as tuples and
    frozensets, and anything malformed raises ValidationError.
    """

    projects: tuple[Project, ...]
    ballots: tuple[frozenset[int], ...]
    limit: int
    rankings: tuple[tuple[int, ...], ...] | None = None
    allow_zero_cost: bool = False

    def __post_init__(self) -> None:
        if type(self.allow_zero_cost) is not bool:
            raise ValidationError("allow_zero_cost must be a boolean")
        projects = as_tuple(self.projects, "projects")
        if not projects:
            raise ValidationError("an instance needs at least one project")
        for p in projects:
            if type(p) is not Project or type(p.id) is not int or type(p.cost) is not int:
                raise ValidationError("projects must be Projects with integer ids and costs")
            if p.cost < 0:
                raise ValidationError(f"project {p.id} has negative cost {p.cost}")
            if p.cost == 0 and not self.allow_zero_cost:
                raise ValidationError(
                    f"project {p.id} has zero cost; set allow_zero_cost to permit this"
                )
        projects = tuple(sorted(projects, key=lambda p: p.id))
        m = len(projects)
        if [p.id for p in projects] != list(range(m)):
            raise ValidationError("project ids must be exactly 0..m-1 without duplicates")
        object.__setattr__(self, "projects", projects)
        if type(self.limit) is not int or self.limit <= 0:
            raise ValidationError("limit must be a positive integer")
        max_cost = max(p.cost for p in projects)
        if self.limit < max_cost:
            raise ValidationError(
                f"limit {self.limit} is below the most expensive project ({max_cost})"
            )
        ballots = as_tuple(self.ballots, "ballots")
        if not ballots:
            raise ValidationError("an instance needs at least one voter")
        checked = []
        for v, ballot in enumerate(ballots):
            ballot = _project_ids(ballot, m, v)
            if not ballot:
                raise ValidationError(f"voter {v} has an empty approval ballot")
            checked.append(ballot)
        object.__setattr__(self, "ballots", tuple(checked))
        if self.rankings is None:
            return
        rankings = as_tuple(self.rankings, "rankings")
        if len(rankings) != len(ballots):
            raise ValidationError("rankings, when given, must cover every voter")
        full = frozenset(range(m))
        checked = []
        for v, ranking in enumerate(rankings):
            try:  # m entries that together name every id form a permutation
                permutation = (
                    isinstance(ranking, (list, tuple))
                    and len(ranking) == m
                    and frozenset(ranking) == full
                )
            except TypeError:  # an unhashable entry such as [0]
                permutation = False
            if not permutation:
                raise ValidationError(f"voter {v}'s ranking is not a permutation of all project ids")
            checked.append(tuple(ranking))
        object.__setattr__(self, "rankings", tuple(checked))

    @property
    def n(self) -> int:
        return len(self.ballots)

    @property
    def m(self) -> int:
        return len(self.projects)

    @cached_property
    def costs(self) -> tuple[int, ...]:
        return tuple(p.cost for p in self.projects)

    @cached_property
    def approvers(self) -> tuple[frozenset[int], ...]:
        """For each project, the set of voters approving it."""
        sets: list[set[int]] = [set() for _ in range(self.m)]
        for v, ballot in enumerate(self.ballots):
            for p in ballot:
                sets[p].add(v)
        return tuple(frozenset(s) for s in sets)

    @cached_property
    def positions(self) -> tuple[dict[int, int], ...] | None:
        """Per voter, project id -> 0-based rank. None without rankings."""
        if self.rankings is None:
            return None
        return tuple({p: i for i, p in enumerate(r)} for r in self.rankings)


@dataclass(frozen=True)
class Budget:
    """A chosen set of projects together with its cached total cost."""

    selected: frozenset[int]
    total_cost: int


@dataclass(frozen=True)
class Assignment:
    """Monroe-style map from voter id to their representative project.

    Each project may represent at most ``capacity`` voters; the map may be
    partial. Treat instances as immutable even though the mapping is a dict.
    """

    rep: Mapping[int, int]
    capacity: int


def make_instance(
    costs: Iterable[int],
    ballots: Iterable[Collection[int]],
    limit: int,
    rankings: Iterable[Sequence[int]] | None = None,
    allow_zero_cost: bool = False,
) -> Instance:
    """Build an instance from a plain cost list; project ``i`` costs ``costs[i]``.

    Each ballot is a list, tuple or set of ids and each ranking a list or tuple.
    """
    projects = tuple(Project(i, c) for i, c in enumerate(costs))
    return Instance(
        projects,
        tuple(ballots),
        limit,
        rankings=None if rankings is None else tuple(rankings),
        allow_zero_cost=allow_zero_cost,
    )


def total_cost(instance: Instance, project_ids: Collection[int]) -> int:
    """Exact total cost of a list, tuple or set of project ids; 0 if empty."""
    return sum(instance.costs[p] for p in _project_ids(project_ids, instance.m))


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


def voter_satisfied(ballot: frozenset[int], budget: Budget) -> bool:
    """True iff the ballot approves at least one selected project."""
    return not budget.selected.isdisjoint(ballot)


def coverage(instance: Instance, budget: Budget) -> int:
    """Number of voters with at least one approved project selected."""
    sel = budget.selected
    return sum(1 for ballot in instance.ballots if not sel.isdisjoint(ballot))


def prefix_coherent(instance: Instance) -> bool:
    """True iff every ballot equals a prefix of its owner's ranking."""
    if instance.rankings is None:
        return False
    return all(
        ballot == frozenset(ranking[: len(ballot)])
        for ballot, ranking in zip(instance.ballots, instance.rankings)
    )


def validate_assignment(
    instance: Instance, budget: Budget, assignment: Assignment
) -> None:
    """Raise ContractError if an assignment breaks membership or capacity."""
    if assignment.capacity < 1:
        raise ContractError("assignment capacity must be positive")
    loads: dict[int, int] = {}
    for v, p in assignment.rep.items():
        if not 0 <= v < instance.n:
            raise ContractError(f"assignment names unknown voter {v}")
        if p not in budget.selected:
            raise ContractError(f"voter {v} is assigned to unselected project {p}")
        loads[p] = loads.get(p, 0) + 1
    for p, load in loads.items():
        if load > assignment.capacity:
            raise ContractError(
                f"project {p} represents {load} voters, over capacity {assignment.capacity}"
            )


# --- JSON-facing converters -------------------------------------------------

def instance_to_dict(instance: Instance) -> dict:
    data: dict = {
        "limit": instance.limit,
        "projects": [{"id": p.id, "cost": p.cost} for p in instance.projects],
        "ballots": [sorted(b) for b in instance.ballots],
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
    projects = data["projects"]
    if type(projects) is list:  # anything else is left for Instance to reject
        projects = [Project(**json_object(p, "project", ("id", "cost"))) for p in projects]
    instance = Instance(
        projects,
        data["ballots"],
        data["limit"],
        data.get("rankings"),
        data.get("allow_zero_cost", False),
    )
    for i, (entry, ballot) in enumerate(zip(data["ballots"], instance.ballots)):
        if len(entry) != len(ballot):
            raise ValidationError(f"ballot {i} repeats a project id")
    return instance


def budget_to_dict(budget: Budget) -> dict:
    return {"selected": sorted(budget.selected), "total_cost": budget.total_cost}


def budget_from_dict(instance: Instance, data: object) -> Budget:
    """Parse a budget JSON object against an instance.

    A present 'total_cost' must agree with the recomputed sum.
    """
    data = json_object(data, "budget", ("selected",), ("total_cost",))
    budget = make_budget(instance, data["selected"])
    if len(data["selected"]) != len(budget.selected):
        raise ValidationError("'selected' repeats a project id")
    stated = data.get("total_cost", budget.total_cost)
    if type(stated) is not int or stated != budget.total_cost:
        raise ValidationError(
            f"stated total_cost {stated!r} does not match recomputed {budget.total_cost}"
        )
    return budget
