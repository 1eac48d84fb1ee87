"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The study criteria share a single full run of the default
experiment (master seed 0, trial counts 100..5000).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace
from decimal import Decimal

import pytest

from pbelect.axioms import AXIOMS, UJR, check_axiom, verify_witness
from pbelect.core import (
    Instance,
    ValidationError,
    is_exhaustive,
    is_feasible,
    make_budget,
)
from pbelect.culture import generate
from pbelect.harness import (
    PAPER_TRIAL_COUNTS,
    _format_probability,
    default_experiment_config,
    emit_plot_data,
    replay_trial,
    run_experiment,
    write_results_csv,
)
from pbelect.rules import (
    committee_size,
    seq_chamberlin_courant,
    seq_monroe,
    stv,
)

from conftest import coverage, criterion_4_cases, criterion_5_instances, probability
from oracles import (
    brute_force_cc_optimal,
    brute_force_monroe_optimal,
    naive_axiom_oracle,
    validate_assignment,
)

EQUAL_RULES = ("sccr", "smr", "stv")


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def full_run():
    config = default_experiment_config()
    started = time.monotonic()
    rows = run_experiment(config)
    elapsed = time.monotonic() - started
    return config, rows, elapsed


# sha256 of the seed-0 default study outputs, recorded at commit 1864ef0.
SEED0_DIGESTS = {
    "results.csv": "fcc69354a444b1ab041d1e5822ea91fd9b1b250bd40d19954c9cf3c3f5bbcab1",
    "plot_equal.csv": "34273a2a16697f004bd4760bc9a00d9086315968b01f56dde87e38eacfb23fb1",
    "plot_general.csv": "4c2f74ff9decc30e5c52d7ff22bdd7a0361acaca3bcf822a6b43dd5ed14f61d7",
}


def test_seed0_study_bytes_match_recorded_digests(full_run, tmp_path):
    _, rows, _ = full_run
    write_results_csv(rows, tmp_path / "results.csv")
    emit_plot_data(rows, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SEED0_DIGESTS
    }
    assert digests == SEED0_DIGESTS


def test_criterion_1_equal_valued_rates_and_runtime(full_run):
    _, rows, elapsed = full_run
    floor = Decimal("85")
    low = min(
        probability(rows, "equal", rule, count)
        for rule in EQUAL_RULES
        for count in PAPER_TRIAL_COUNTS
    )
    ok = low >= floor and elapsed < 300.0
    _report(
        "1 (equal-valued rates/runtime)",
        ok,
        f"min row probability {low}% (floor 85%), study took {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_2_rule_ordering_at_5000(full_run):
    _, rows, _ = full_run
    sccr = probability(rows, "equal", "sccr", 5000)
    smr = probability(rows, "equal", "smr", 5000)
    stv_p = probability(rows, "equal", "stv", 5000)
    slack = Decimal("1.5")
    ok = stv_p >= sccr - slack and sccr >= smr - slack
    _report(
        "2 (rule ordering)",
        ok,
        f"stv {stv_p} >= sccr {sccr} >= smr {smr} within 1.5pp",
    )


def test_criterion_3_equal_general_gap(full_run):
    _, rows, _ = full_run
    gap_floor = Decimal("15")
    worst = min(
        probability(rows, "equal", "sccr", count)
        - probability(rows, "general", "sccr", count)
        for count in PAPER_TRIAL_COUNTS
    )
    ok = worst >= gap_floor
    _report(
        "3 (equal-vs-general gap)",
        ok,
        f"smallest per-row gap {worst}pp (floor 15pp)",
    )


def test_criterion_4_oracle_equivalence():
    mismatches = 0
    bad_witnesses = 0
    for instance, budget in criterion_4_cases():
        for axiom in AXIOMS:
            fast = check_axiom(instance, budget, axiom)
            slow = naive_axiom_oracle(instance, budget, axiom)
            if fast.satisfied != slow.satisfied:
                mismatches += 1
            if not verify_witness(instance, budget, fast):
                bad_witnesses += 1
            if not verify_witness(instance, budget, slow):
                bad_witnesses += 1
    ok = mismatches == 0 and bad_witnesses == 0
    _report(
        "4 (oracle equivalence)",
        ok,
        f"1000 instances, {mismatches} verdict mismatches, {bad_witnesses} bad witnesses",
    )


def test_criterion_5_greedy_bound_and_small_k_optimality():
    bound = 1 - 1 / math.e
    bound_violations = 0
    small_k_mismatches = 0
    small_k_checked = 0
    for instance in criterion_5_instances():
        greedy, _ = seq_chamberlin_courant(instance)
        _, optimum = brute_force_cc_optimal(instance)
        if coverage(instance, greedy) < bound * optimum - 1e-9:
            bound_violations += 1
        k = committee_size(instance)
        if k <= 2:
            small_k_checked += 1
            budget, trace = seq_monroe(instance)
            rep = {v: e.project for e in trace.entries for v in e.voters}
            o_budget, o_rep, _, _ = brute_force_monroe_optimal(instance, k)
            if budget.selected != o_budget.selected or rep != o_rep:
                small_k_mismatches += 1
    ok = bound_violations == 0 and small_k_mismatches == 0 and small_k_checked >= 100
    _report(
        "5 (greedy bound / small-k optimality)",
        ok,
        f"500 instances, {bound_violations} bound violations, "
        f"{small_k_mismatches} mismatches over {small_k_checked} small-k instances",
    )


def _rebuilds_equal(instance: Instance) -> bool:
    """Whether Instance's checks, which generate skips, accept ``instance``
    unchanged, with the approver masks it was generated with, and each of its
    ballots is a non-empty proper prefix of its voter's ranking."""
    try:
        rebuilt = Instance(instance.costs, instance.ballots, instance.limit, instance.rankings)
    except ValidationError:
        return False
    prefixes = all(
        0 < len(ballot) < instance.m and ballot == frozenset(ranking[: len(ballot)])
        for ballot, ranking in zip(instance.ballots, instance.rankings)
    )
    return rebuilt == instance and rebuilt.approver_masks == instance.approver_masks and prefixes


def test_criterion_6_feasibility_exhaustiveness_capacity(full_run):
    config, _, _ = full_run
    infeasible = non_exhaustive = capacity_broken = invalid = 0
    checked = 0
    for case in config.cases:
        culture = replace(case.culture, master_seed=config.master_seed)
        for trial in range(5000):
            instance = generate(culture, trial)
            checked += 1
            if not _rebuilds_equal(instance):
                invalid += 1
            cc_budget, _ = seq_chamberlin_courant(instance)
            if not is_feasible(instance, cc_budget):
                infeasible += 1
            if not is_exhaustive(instance, cc_budget):
                non_exhaustive += 1
            if case.name == "equal":
                m_budget, trace = seq_monroe(instance)
                if not is_feasible(instance, m_budget):
                    infeasible += 1
                try:
                    validate_assignment(instance, m_budget, trace)
                except Exception:
                    capacity_broken += 1
                s_budget, _ = stv(instance, committee_size(instance))
                if not is_feasible(instance, s_budget):
                    infeasible += 1
    ok = checked == 10_000 and infeasible == non_exhaustive == capacity_broken == invalid == 0
    _report(
        "6 (feasibility/exhaustiveness/capacity)",
        ok,
        f"{checked} instances, {invalid} that Instance(...) does not rebuild equal, "
        f"{infeasible} infeasible outputs, "
        f"{non_exhaustive} non-exhaustive coverage-greedy outputs, "
        f"{capacity_broken} capacity violations",
    )


def test_criterion_7_determinism_and_replay(tmp_path):
    config = default_experiment_config(master_seed=7, trial_counts=(10, 25))
    first = run_experiment(config, workers=1)
    second = run_experiment(config, workers=2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(first, a)
    write_results_csv(second, b)
    bytes_equal = a.read_bytes() == b.read_bytes()
    plots_a = emit_plot_data(first, tmp_path / "pa")
    plots_b = emit_plot_data(second, tmp_path / "pb")
    plots_equal = all(
        pa.read_bytes() == pb.read_bytes() for pa, pb in zip(plots_a, plots_b)
    )
    replay_consistent = True
    for case, rules in (("equal", EQUAL_RULES), ("general", ("sccr",))):
        for rule in rules:
            verdicts = [
                replay_trial(config, case, t)["results"][rule]["report"]["satisfied"]
                for t in range(10)
            ]
            expected = _format_probability(sum(verdicts), 10)
            if str(probability(first, case, rule, 10)) != expected:
                replay_consistent = False
    ok = bytes_equal and plots_equal and replay_consistent
    _report(
        "7 (determinism/replay)",
        ok,
        f"results byte-identical={bytes_equal}, plots byte-identical={plots_equal}, "
        f"replay matches rows={replay_consistent}",
    )


def test_criterion_8_hand_traced_fixtures():
    failures: list[str] = []

    # I_A: coverage greedy picks p0 then p1 (tie with p2 broken to lowest id).
    i_a = Instance([1, 1, 1], [{0}, {0}, {1}, {2}], 2)
    budget, _ = seq_chamberlin_courant(i_a)
    if sorted(budget.selected) != [0, 1] or coverage(i_a, budget) != 3:
        failures.append("I_A")
    if brute_force_cc_optimal(i_a)[1] != 3:
        failures.append("I_A oracle")

    # I_B: after the popular 5-cost project, slack 1 fits nothing.
    i_b = Instance([5, 3, 3], [{0}, {0}, {1, 2}], 6)
    budget, _ = seq_chamberlin_courant(i_b)
    if sorted(budget.selected) != [0] or coverage(i_b, budget) != 2:
        failures.append("I_B")
    oracle_budget, optimum = brute_force_cc_optimal(i_b)
    if sorted(oracle_budget.selected) != [0] or optimum != 2:
        failures.append("I_B oracle")

    # I_C: both projects funded, each representing its two approvers.
    i_c = Instance([1, 1], [{0}, {0}, {1}, {1}], 2)
    budget, trace = seq_monroe(i_c)
    rep = {v: e.project for e in trace.entries for v in e.voters}
    if sorted(budget.selected) != [0, 1] or rep != {0: 0, 1: 0, 2: 1, 3: 1}:
        failures.append("I_C")
    if brute_force_monroe_optimal(i_c, 2)[3] != 4:
        failures.append("I_C oracle")

    # I_D: p0 elected at quota 2, p2 eliminated on the high-id tie-break.
    i_d = Instance(
        [1, 1, 1], [{0}, {0}, {1}, {2}], 2,
        rankings=[(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)],
    )
    budget, trace = stv(i_d, 2)
    if sorted(budget.selected) != [0, 1] or trace.entries[0].voters != frozenset({0, 1}):
        failures.append("I_D")

    # I_E: the deprived pair approving p0 certifies the violation.
    i_e = Instance([1, 1, 1, 1], [{0}, {0}, {1}, {1}], 2)
    report = check_axiom(i_e, make_budget(i_e, {2, 3}), UJR)
    if report.satisfied or report.witness != (0, frozenset({0, 1})):
        failures.append("I_E")

    ok = not failures
    _report(
        "8 (hand-traced fixtures)",
        ok,
        "I_A..I_E all reproduce" if ok else f"failing fixtures: {failures}",
    )
