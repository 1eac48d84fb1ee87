"""Core domain model for participatory-budgeting elections.

Money is integral throughout, so feasibility and exhaustiveness are exact
integer comparisons with no tolerance questions. Instances validate on
construction and are immutable afterwards; every operation below is a pure
function and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping


class ValidationError(ValueError):
    """Input data breaks a structural invariant (ids, costs, ballots, limit)."""


class ContractError(RuntimeError):
    """An operation was invoked outside its stated contract."""


class ConfigurationError(ContractError):
    """A mode or rule was requested that the given data cannot support."""


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
    """

    projects: tuple[Project, ...]
    ballots: tuple[frozenset[int], ...]
    limit: int
    rankings: tuple[tuple[int, ...], ...] | None = None
    allow_zero_cost: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "projects", tuple(sorted(self.projects, key=lambda p: p.id))
        )
        object.__setattr__(self, "ballots", tuple(frozenset(b) for b in self.ballots))
        if self.rankings is not None:
            object.__setattr__(self, "rankings", tuple(tuple(r) for r in self.rankings))
        self._validate()

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

    def _validate(self) -> None:
        if not self.projects:
            raise ValidationError("an instance needs at least one project")
        if not self.ballots:
            raise ValidationError("an instance needs at least one voter")
        m = len(self.projects)
        for p in self.projects:
            if type(p.id) is not int or type(p.cost) is not int:
                raise ValidationError("project ids and costs must be integers")
            if p.cost < 0:
                raise ValidationError(f"project {p.id} has negative cost {p.cost}")
            if p.cost == 0 and not self.allow_zero_cost:
                raise ValidationError(
                    f"project {p.id} has zero cost; set allow_zero_cost to permit this"
                )
        if [p.id for p in self.projects] != list(range(m)):
            raise ValidationError("project ids must be exactly 0..m-1 without duplicates")
        if type(self.limit) is not int or self.limit <= 0:
            raise ValidationError("limit must be a positive integer")
        max_cost = max(p.cost for p in self.projects)
        if self.limit < max_cost:
            raise ValidationError(
                f"limit {self.limit} is below the most expensive project ({max_cost})"
            )
        for v, ballot in enumerate(self.ballots):
            if not ballot:
                raise ValidationError(f"voter {v} has an empty approval ballot")
            for p in ballot:
                if type(p) is not int or not 0 <= p < m:
                    raise ValidationError(f"voter {v} approves unknown project {p!r}")
        if self.rankings is not None:
            if len(self.rankings) != self.n:
                raise ValidationError("rankings, when given, must cover every voter")
            full = list(range(m))
            for v, ranking in enumerate(self.rankings):
                try:
                    permutation = sorted(ranking) == full
                except TypeError:  # ids of types that do not compare, e.g. [[0], 1]
                    permutation = False
                if not permutation:
                    raise ValidationError(
                        f"voter {v}'s ranking is not a permutation of all project ids"
                    )


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
    ballots: Iterable[Iterable[int]],
    limit: int,
    rankings: Iterable[Iterable[int]] | None = None,
    allow_zero_cost: bool = False,
) -> Instance:
    """Build an instance from a plain cost list; project ``i`` costs ``costs[i]``."""
    projects = tuple(Project(i, c) for i, c in enumerate(costs))
    return Instance(
        projects,
        tuple(frozenset(b) for b in ballots),
        limit,
        rankings=None if rankings is None else tuple(tuple(r) for r in rankings),
        allow_zero_cost=allow_zero_cost,
    )


def _checked_ids(instance: Instance, project_ids: Iterable[int]) -> frozenset[int]:
    ids = frozenset(project_ids)
    for p in ids:
        if type(p) is not int or not 0 <= p < instance.m:
            raise ValidationError(f"unknown project id {p!r}")
    return ids


def total_cost(instance: Instance, project_ids: Iterable[int]) -> int:
    """Exact total cost of a set of projects; 0 for the empty set."""
    return sum(instance.costs[p] for p in _checked_ids(instance, project_ids))


def make_budget(instance: Instance, project_ids: Iterable[int]) -> Budget:
    """Build a budget over ``instance``, computing its total cost."""
    ids = _checked_ids(instance, project_ids)
    return Budget(ids, sum(instance.costs[p] for p in ids))


def is_feasible(instance: Instance, budget: Budget) -> bool:
    """True iff the budget's total cost stays within the instance limit."""
    _checked_ids(instance, budget.selected)
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


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def instance_from_dict(data: object) -> Instance:
    """Parse the instance JSON object; raises ValidationError on bad shape."""
    _expect(isinstance(data, dict), "instance JSON must be an object")
    assert isinstance(data, dict)
    _expect("limit" in data, "instance JSON needs a 'limit' field")
    _expect("projects" in data, "instance JSON needs a 'projects' field")
    _expect("ballots" in data, "instance JSON needs a 'ballots' field")
    raw_projects = data["projects"]
    _expect(isinstance(raw_projects, list), "'projects' must be a list")
    projects = []
    for entry in raw_projects:
        _expect(
            isinstance(entry, dict) and "id" in entry and "cost" in entry,
            "each project needs 'id' and 'cost'",
        )
        _expect(
            type(entry["id"]) is int and type(entry["cost"]) is int,
            "project ids and costs must be integers",
        )
        projects.append(Project(entry["id"], entry["cost"]))
    raw_ballots = data["ballots"]
    _expect(isinstance(raw_ballots, list), "'ballots' must be a list of lists")
    ballots = []
    for i, entry in enumerate(raw_ballots):
        _expect(isinstance(entry, list), f"ballot {i} must be a list of project ids")
        try:
            ballot = frozenset(entry)
        except TypeError:  # a nested list or object; ids are checked per element later
            raise ValidationError(f"ballot {i} must be a list of project ids") from None
        _expect(len(entry) == len(ballot), f"ballot {i} repeats a project id")
        ballots.append(ballot)
    rankings = None
    if data.get("rankings") is not None:
        raw_rankings = data["rankings"]
        _expect(isinstance(raw_rankings, list), "'rankings' must be a list of lists")
        for i, entry in enumerate(raw_rankings):
            _expect(isinstance(entry, list), f"ranking {i} must be a list of project ids")
        rankings = tuple(tuple(r) for r in raw_rankings)
    allow_zero = data.get("allow_zero_cost", False)
    _expect(isinstance(allow_zero, bool), "'allow_zero_cost' must be a boolean")
    return Instance(tuple(projects), tuple(ballots), data["limit"], rankings, allow_zero)


def budget_to_dict(budget: Budget) -> dict:
    return {"selected": sorted(budget.selected), "total_cost": budget.total_cost}


def budget_from_dict(instance: Instance, data: object) -> Budget:
    """Parse a budget JSON object against an instance.

    A present 'total_cost' must agree with the recomputed sum.
    """
    _expect(isinstance(data, dict), "budget JSON must be an object")
    assert isinstance(data, dict)
    _expect("selected" in data, "budget JSON needs a 'selected' field")
    raw = data["selected"]
    _expect(
        isinstance(raw, list) and all(type(p) is int for p in raw),
        "'selected' must be a list of project ids",
    )
    _expect(len(raw) == len(set(raw)), "'selected' repeats a project id")
    budget = make_budget(instance, raw)
    if "total_cost" in data and data["total_cost"] != budget.total_cost:
        raise ValidationError(
            f"stated total_cost {data['total_cost']} does not match "
            f"recomputed {budget.total_cost}"
        )
    return budget
