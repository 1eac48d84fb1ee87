"""Seeded impartial-culture generation of random budgeting instances.

Every instance is a pure function of (config, trial_index): each trial gets
its own Random seeded through a splitmix64-style finalizer, so a harness may
evaluate trials in any order or degree of parallelism and still see the
identical instance stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import Instance, Project, ValidationError

UNIT = "unit"
UNIFORM = "uniform"
COMMITTEE = "committee"
BUDGET = "budget"
PREFIX = "prefix"
BERNOULLI = "bernoulli"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Stateless 64-bit seed for one trial.

    splitmix64 finalizer over (master_seed XOR trial_index * golden ratio);
    pinned so replaying trial i never depends on execution order.
    """
    z = (master_seed ^ (trial_index * _GOLDEN)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class CultureConfig:
    """Distributions for one impartial-culture stream.

    cost_model: "unit" (all costs 1) or "uniform" (integer costs in
        [cost_min, cost_max]).
    limit_model: "committee" draws the limit uniformly from [2, m-1] and
        requires unit costs; "budget" draws uniformly from
        [max cost, ceil(total cost / 2)], falling back to max cost when that
        interval is empty. Either way the limit covers the priciest project.
    ballot_model: "prefix" draws a full random ranking per voter and approves
        its top t entries, t uniform in [1, m-1], attaching the rankings;
        "bernoulli" approves each project independently with approval_prob,
        redrawing empty ballots, and attaches no rankings.
    """

    n_range: tuple[int, int] = (10, 50)
    m_range: tuple[int, int] = (5, 20)
    cost_model: str = UNIT
    cost_min: int = 1
    cost_max: int = 10
    limit_model: str = COMMITTEE
    ballot_model: str = PREFIX
    approval_prob: float = 0.5
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_range", tuple(self.n_range))
        object.__setattr__(self, "m_range", tuple(self.m_range))
        n_lo, n_hi = self.n_range
        m_lo, m_hi = self.m_range
        if not (type(n_lo) is int and type(n_hi) is int and 1 <= n_lo <= n_hi):
            raise ValidationError("n_range must be a non-empty positive interval")
        if not (type(m_lo) is int and type(m_hi) is int and 3 <= m_lo <= m_hi):
            raise ValidationError("m_range must be a non-empty interval with lower bound >= 3")
        if self.cost_model not in (UNIT, UNIFORM):
            raise ValidationError(f"unknown cost model {self.cost_model!r}")
        if self.cost_model == UNIFORM and not (
            type(self.cost_min) is int and type(self.cost_max) is int
            and 1 <= self.cost_min <= self.cost_max
        ):
            raise ValidationError("uniform costs need integers 1 <= cost_min <= cost_max")
        if self.limit_model not in (COMMITTEE, BUDGET):
            raise ValidationError(f"unknown limit model {self.limit_model!r}")
        if self.limit_model == COMMITTEE and self.cost_model != UNIT:
            raise ValidationError("the committee limit model requires unit costs")
        if self.ballot_model not in (PREFIX, BERNOULLI):
            raise ValidationError(f"unknown ballot model {self.ballot_model!r}")
        if self.ballot_model == BERNOULLI and not (
            type(self.approval_prob) in (int, float) and 0 < self.approval_prob <= 1
        ):
            raise ValidationError("approval_prob must be a number in (0, 1]")
        if type(self.master_seed) is not int:
            raise ValidationError("master_seed must be an integer")


def generate(config: CultureConfig, trial_index: int) -> Instance:
    """Draw one instance for the given trial; always passes core validation."""
    rng = random.Random(derive_trial_seed(config.master_seed, trial_index))
    n = rng.randint(*config.n_range)
    m = rng.randint(*config.m_range)
    if config.cost_model == UNIT:
        costs = [1] * m
    else:
        costs = [rng.randint(config.cost_min, config.cost_max) for _ in range(m)]
    if config.limit_model == COMMITTEE:
        limit = rng.randint(2, m - 1)
    else:
        max_cost = max(costs)
        half_total = (sum(costs) + 1) // 2
        limit = max_cost if half_total < max_cost else rng.randint(max_cost, half_total)
    rankings: list[tuple[int, ...]] | None
    ballots: list[frozenset[int]] = []
    if config.ballot_model == PREFIX:
        rankings = []
        for _ in range(n):
            ranking = tuple(rng.sample(range(m), m))
            cutoff = rng.randint(1, m - 1)
            rankings.append(ranking)
            ballots.append(frozenset(ranking[:cutoff]))
    else:
        rankings = None
        for _ in range(n):
            approved: frozenset[int] = frozenset()
            while not approved:
                approved = frozenset(
                    p for p in range(m) if rng.random() < config.approval_prob
                )
            ballots.append(approved)
    projects = tuple(Project(i, c) for i, c in enumerate(costs))
    return Instance(projects, tuple(ballots), limit, None if rankings is None else tuple(rankings))


def equal_valued_culture(master_seed: int = 0) -> CultureConfig:
    """Unit costs, committee-style limit, prefix ballots with rankings."""
    return CultureConfig(master_seed=master_seed)


def general_case_culture(master_seed: int = 0) -> CultureConfig:
    """Integer costs in [1, 10], budget-style limit, prefix ballots."""
    return CultureConfig(
        cost_model=UNIFORM,
        cost_min=1,
        cost_max=10,
        limit_model=BUDGET,
        master_seed=master_seed,
    )


_CONFIG_FIELDS = {
    "n_range",
    "m_range",
    "cost_model",
    "cost_min",
    "cost_max",
    "limit_model",
    "ballot_model",
    "approval_prob",
    "master_seed",
}


def culture_config_to_dict(config: CultureConfig) -> dict:
    return {
        "n_range": list(config.n_range),
        "m_range": list(config.m_range),
        "cost_model": config.cost_model,
        "cost_min": config.cost_min,
        "cost_max": config.cost_max,
        "limit_model": config.limit_model,
        "ballot_model": config.ballot_model,
        "approval_prob": config.approval_prob,
        "master_seed": config.master_seed,
    }


def culture_config_from_dict(data: object) -> CultureConfig:
    if not isinstance(data, dict):
        raise ValidationError("culture config JSON must be an object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ValidationError(f"unknown culture config fields: {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("n_range", "m_range"):
        if key in kwargs:
            value = kwargs[key]
            if not (isinstance(value, (list, tuple)) and len(value) == 2):
                raise ValidationError(f"{key} must be a two-element interval")
            kwargs[key] = (value[0], value[1])
    return CultureConfig(**kwargs)
