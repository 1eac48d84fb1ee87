"""Shared fixtures: the five hand-traced elections, random-instance helpers,
the coverage, prefix and probability helpers the tests check results with,
the probe that forbids building an instance's ballots, and the CLI runner
that asserts the refusal contract."""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest

from pbelect.cli import main
from pbelect.core import Budget, Instance, make_budget
from pbelect.culture import UNIFORM, CultureConfig, generate


@pytest.fixture
def i_a() -> Instance:
    """4 voters approving {p0},{p0},{p1},{p2}; unit costs; limit 2."""
    return Instance([1, 1, 1], [{0}, {0}, {1}, {2}], 2)


@pytest.fixture
def i_b() -> Instance:
    """3 voters approving {p0},{p0},{p1,p2}; costs 5,3,3; limit 6."""
    return Instance([5, 3, 3], [{0}, {0}, {1, 2}], 6)


@pytest.fixture
def i_c() -> Instance:
    """4 voters approving {p0},{p0},{p1},{p1}; unit costs; limit 2."""
    return Instance([1, 1], [{0}, {0}, {1}, {1}], 2)


@pytest.fixture
def i_d() -> Instance:
    """Ranked variant of i_a: full rankings for an STV committee of 2."""
    return Instance(
        [1, 1, 1],
        [{0}, {0}, {1}, {2}],
        2,
        rankings=[(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)],
    )


@pytest.fixture
def i_e() -> Instance:
    """4 voters approving {p0},{p0},{p1},{p1}; 4 unit-cost projects; limit 2."""
    return Instance([1, 1, 1, 1], [{0}, {0}, {1}, {1}], 2)


def random_unit_instance(
    rng: random.Random,
    max_n: int = 12,
    max_m: int = 6,
    with_rankings: bool = False,
) -> Instance:
    """Small random unit-cost instance; limit in [1, m]."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    limit = rng.randint(1, m)
    rankings = None
    if with_rankings:
        rankings = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        ballots = [frozenset(r[: rng.randint(1, m)]) for r in rankings]
    else:
        ballots = [
            frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)
        ]
    return Instance([1] * m, ballots, limit, rankings=rankings)


def random_costed_instance(
    rng: random.Random, max_n: int = 12, max_m: int = 6, max_cost: int = 8
) -> Instance:
    """Small random instance with varied positive costs and a coherent limit."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    costs = [rng.randint(1, max_cost) for _ in range(m)]
    limit = rng.randint(max(costs), sum(costs))
    ballots = [frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
    return Instance(costs, ballots, limit)


def random_feasible_budget(rng: random.Random, instance: Instance):
    """A random feasible (possibly empty, possibly non-exhaustive) budget."""
    order = list(range(instance.m))
    rng.shuffle(order)
    chosen: set[int] = set()
    spent = 0
    for p in order:
        if rng.random() < 0.5 and spent + instance.costs[p] <= instance.limit:
            chosen.add(p)
            spent += instance.costs[p]
    return make_budget(instance, chosen)


def criterion_4_cases():
    """The 1,000 (instance, budget) pairs of acceptance criterion 4: unit-cost
    and uniform-cost instances with up to 12 voters, random feasible budgets."""
    unit = CultureConfig(n_range=(1, 12), m_range=(3, 6), master_seed=404)
    costed = CultureConfig(
        n_range=(1, 12), m_range=(3, 6), cost_model=UNIFORM,
        limit_model="budget", master_seed=405,
    )
    rng = random.Random(406)
    for trial in range(500):
        for culture in (unit, costed):
            instance = generate(culture, trial)
            yield instance, random_feasible_budget(rng, instance)


def criterion_5_instances():
    """The 500 unit-cost instances of acceptance criterion 5: up to 8 projects,
    20 voters and a limit of 4."""
    rng = random.Random(505)
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 20)
        limit = rng.randint(1, min(4, m))
        ballots = [
            frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)
        ]
        yield Instance([1] * m, ballots, limit)


def coverage(instance: Instance, budget: Budget) -> int:
    """Number of voters with at least one approved project selected."""
    return sum(not budget.selected.isdisjoint(ballot) for ballot in instance.ballots)


def prefix_coherent(instance: Instance) -> bool:
    """True iff every ballot equals a prefix of its owner's ranking."""
    if instance.rankings is None:
        return False
    return all(
        ballot == frozenset(ranking[: len(ballot)])
        for ballot, ranking in zip(instance.ballots, instance.rankings)
    )


def forbid_ballot_builds(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make every read of ``Instance.ballots`` raise, whether or not it was cached."""

    def unbuildable(instance: Instance):
        raise AssertionError("an Instance's ballots were built")

    monkeypatch.setattr(Instance, "ballots", property(unbuildable))


def probability(rows, case: str, rule: str, trial_count: int) -> Decimal:
    """The probability_pct of the study row for (case, rule, trial_count)."""
    for row in rows:
        if (row.case, row.rule, row.trial_count) == (case, rule, trial_count):
            return Decimal(row.probability_pct)
    raise LookupError(f"no row for ({case}, {rule}, {trial_count})")


# The error kinds of each refusal exit code.
ERROR_KINDS = {1: ("invalid-input", "io-error"), 2: ("usage", "contract")}


def _tree(root: Path) -> dict[Path, bytes | None]:
    """Every path under ``root``, relative to it, with a file's bytes (None for a directory)."""
    return {
        path.relative_to(root): None if path.is_dir() else path.read_bytes()
        for path in root.rglob("*")
    }


def run_main(argv: list[str], root: Path) -> tuple[int, str, str]:
    """``cli.main(argv)`` run in the directory ``root`` under redirected stdout
    and stderr: (exit code, stdout, stderr). A refusal, exit 1 or 2, must keep
    the CLI's contract: nothing on stdout, exactly one stderr line
    ``error: <kind>: <message>`` of a kind its code reports, and the tree under
    ``root`` unchanged in names and bytes."""
    before = _tree(root)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)  # a relative path the command makes lands under root
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    out, err = stdout.getvalue(), stderr.getvalue()
    if code in ERROR_KINDS:
        assert out == ""
        assert err.endswith("\n") and err.splitlines() == [err[:-1]], err
        assert err.startswith(tuple(f"error: {kind}: " for kind in ERROR_KINDS[code])), err
        assert _tree(root) == before
    return code, out, err


def refused(argv: list[str], code: int, root: Path) -> str:
    """Run ``argv`` through ``run_main``, assert that it exits with ``code``,
    one of 1 and 2, and return its one error line."""
    assert code in ERROR_KINDS
    got, _, err = run_main(argv, root)
    assert got == code, err
    return err[:-1]
