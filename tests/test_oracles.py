"""The oracles in ``oracles`` share no code with the fast paths they check: a
broken helper of the library changes the library's answers, not the oracle's."""

from __future__ import annotations

from pbelect import axioms
from pbelect.axioms import AXIOMS, check_axiom
from pbelect.core import Instance
from pbelect.rules import seq_chamberlin_courant

from conftest import criterion_4_cases, criterion_5_instances
from oracles import brute_force_cc_optimal, naive_axiom_oracle


def test_axiom_oracle_survives_a_broken_represented_helper(monkeypatch):
    cases = list(criterion_4_cases())

    def reports(check):
        return [check(i, budget, axiom).to_dict() for i, budget in cases for axiom in AXIOMS]

    oracle, scan = reports(naive_axiom_oracle), reports(check_axiom)
    monkeypatch.setattr(axioms, "_represented", lambda instance, budget, axiom: 0)
    assert reports(naive_axiom_oracle) == oracle
    assert reports(check_axiom) != scan


def test_cc_oracle_survives_broken_approver_masks(monkeypatch):
    instances = list(criterion_5_instances())

    def optima():
        return [(sorted(b.selected), cov) for b, cov in map(brute_force_cc_optimal, instances)]

    def greedy():
        return [sorted(seq_chamberlin_courant(i)[0].selected) for i in instances]

    oracle, fast = optima(), greedy()
    monkeypatch.setattr(Instance, "approver_masks", property(lambda self: (0,) * self.m))
    assert optima() == oracle
    assert greedy() != fast
