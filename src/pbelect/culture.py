"""Seeded impartial-culture generation of random budgeting instances.

Every instance is a pure function of (config, trial_index): each trial gets
its own Random seeded through a splitmix64-style finalizer, so a harness may
evaluate trials in any order or degree of parallelism and still see the
identical instance stream.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields

from .core import Instance, ValidationError, as_tuple, json_object

UNIT = "unit"
UNIFORM = "uniform"
COMMITTEE = "committee"
BUDGET = "budget"
PREFIX = "prefix"
BERNOULLI = "bernoulli"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Python's default int-to-str limit, the longest integer the CLI reads or writes
_MAX_DIGITS = 4300


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

    n_range, m_range: the voters and projects of an instance, each drawn
        uniformly from its pair [lo, hi]; n_hi * m_hi is at most 2**24.
    cost_model: "unit" (all costs 1) or "uniform" (integer costs in
        [cost_min, cost_max]; the largest cost or limit this can draw,
        max(cost_max, (m_hi * cost_max + 1) // 2), has at most 4,300 digits).
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
        for key, lowest in (("n_range", 1), ("m_range", 3)):
            interval = as_tuple(getattr(self, key), key)
            if not (
                len(interval) == 2 and type(interval[0]) is int and type(interval[1]) is int
                and lowest <= interval[0] <= interval[1]
            ):
                raise ValidationError(f"{key} must be a pair of integers {lowest} <= lo <= hi")
            object.__setattr__(self, key, interval)
        if self.cost_model not in (UNIT, UNIFORM):
            raise ValidationError(f"unknown cost model {self.cost_model!r}")
        if type(self.cost_min) is not int or type(self.cost_max) is not int:
            raise ValidationError("cost_min and cost_max must be integers")
        if self.cost_model == UNIFORM and not 1 <= self.cost_min <= self.cost_max:
            raise ValidationError("uniform costs need 1 <= cost_min <= cost_max")
        if self.cost_model == UNIFORM and max(
            self.cost_max, (self.m_range[1] * self.cost_max + 1) // 2
        ) >= 10**_MAX_DIGITS:
            raise ValidationError(
                f"cost_max and m_range allow a cost or limit of over {_MAX_DIGITS} digits"
            )
        if self.limit_model not in (COMMITTEE, BUDGET):
            raise ValidationError(f"unknown limit model {self.limit_model!r}")
        if self.limit_model == COMMITTEE and self.cost_model != UNIT:
            raise ValidationError("the committee limit model requires unit costs")
        if self.ballot_model not in (PREFIX, BERNOULLI):
            raise ValidationError(f"unknown ballot model {self.ballot_model!r}")
        if type(self.approval_prob) not in (int, float):
            raise ValidationError("approval_prob must be a number")
        if self.ballot_model == BERNOULLI:
            if not 0 < self.approval_prob <= 1:
                raise ValidationError("approval_prob must be in (0, 1] for bernoulli ballots")
            # an empty ballot's chance; capping m at 2**40 keeps it a float and changes no verdict
            if (1 - self.approval_prob) ** min(self.m_range[0], 2**40) > 1 - 2**-20:
                raise ValidationError("approval_prob gives a voter over 2**20 expected draws")
        if self.n_range[1] * self.m_range[1] > 2**24:
            raise ValidationError("n_range and m_range allow over 2**24 voter-project pairs")
        if type(self.master_seed) is not int:
            raise ValidationError("master_seed must be an integer")


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)`` as CPython draws it: ``getrandbits(k)`` for the
    width's bit length k, redrawn until it falls below the width."""
    width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return lo + r


def _prefix_ballots(
    rng: random.Random, n: int, m: int
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """n full rankings of the m projects, each with its top t entries approved,
    and the approver masks of those approvals (bit v is voter v).

    Each voter's draws are those of ``rng.sample(range(m), m)`` followed by
    ``rng.randint(1, m - 1)``, inlined: CPython's pool swap, where the i-th
    pick is ``_randint``'s rejection loop over the m - i entries left, then
    the cutoff. The stream ends where those calls would leave it.
    """
    getrandbits = rng.getrandbits
    steps = [(width, width.bit_length()) for width in range(m, 0, -1)]
    ids = list(range(m))
    cut_width = m - 1
    cut_bits = cut_width.bit_length()
    rankings: list[tuple[int, ...]] = []
    masks = [0] * m
    for v in range(n):
        pool = ids.copy()
        picks: list[int] = []
        pick = picks.append
        for width, k in steps:
            j = getrandbits(k)
            while j >= width:
                j = getrandbits(k)
            pick(pool[j])
            pool[j] = pool[width - 1]  # the last entry left fills the vacancy
        cutoff = getrandbits(cut_bits)
        while cutoff >= cut_width:
            cutoff = getrandbits(cut_bits)
        rankings.append(tuple(picks))
        bit = 1 << v
        for p in picks[: cutoff + 1]:
            masks[p] |= bit
    return tuple(rankings), masks


def generate(config: CultureConfig, trial_index: int) -> Instance:
    """Draw one instance for the given trial.

    Integers are drawn from ``getrandbits`` as ``randint`` and ``sample``
    draw them, so an instance depends on the trial seed and MT19937 alone.
    Each voter's approvals are ORed into the approver masks as they are
    drawn. The instance is valid by construction, so it skips ``Instance``'s
    checks; tests/test_culture.py (a property test over valid configs) and
    criterion 6 of tests/test_acceptance.py (the study's seed-0 stream) check
    that ``Instance(...)`` rebuilds it equal.
    """
    if type(trial_index) is not int or trial_index < 0:
        raise ValidationError("trial index must be a non-negative integer")
    rng = random.Random(derive_trial_seed(config.master_seed, trial_index))
    n = _randint(rng, *config.n_range)
    m = _randint(rng, *config.m_range)
    if config.cost_model == UNIT:
        costs = [1] * m
    else:
        costs = [_randint(rng, config.cost_min, config.cost_max) for _ in range(m)]
    if config.limit_model == COMMITTEE:
        limit = _randint(rng, 2, m - 1)
    else:
        max_cost = max(costs)
        half_total = (sum(costs) + 1) // 2
        limit = max_cost if half_total < max_cost else _randint(rng, max_cost, half_total)
    rankings: tuple[tuple[int, ...], ...] | None = None
    if config.ballot_model == PREFIX:
        rankings, masks = _prefix_ballots(rng, n, m)
    else:
        masks = [0] * m
        for v in range(n):
            approved: list[int] = []
            while not approved:  # an empty ballot is drawn again
                approved = [p for p in range(m) if rng.random() < config.approval_prob]
            bit = 1 << v
            for p in approved:
                masks[p] |= bit
    return Instance._from_masks(tuple(costs), limit, rankings, False, tuple(masks), n)


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


def culture_config_to_dict(config: CultureConfig) -> dict:
    return {**asdict(config), "n_range": list(config.n_range), "m_range": list(config.m_range)}


def culture_config_from_dict(data: object) -> CultureConfig:
    names = tuple(field.name for field in fields(CultureConfig))
    return CultureConfig(**json_object(data, "culture config", optional=names))
