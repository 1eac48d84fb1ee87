"""Representation-axiom checks and an independent witness check.

The check scans projects in ascending id order: a violation witness is the
lowest-id project p together with the full set of voters who approve p yet
have no qualifying approved project funded. Group-size thresholds compare
len(group) * limit >= n in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Budget, ContractError, Instance, ValidationError, is_feasible, voter_ids

UJR = "ujr"
STRONG_BJR = "strong-bjr"
AXIOMS = (UJR, STRONG_BJR)


@dataclass(frozen=True)
class AxiomReport:
    """Verdict for one axiom on one (instance, budget) pair.

    ``witness`` is None exactly when satisfied; otherwise it names a project
    and the deprived voter group certifying the violation.
    """

    axiom: str
    satisfied: bool
    witness: tuple[int, frozenset[int]] | None = None

    def to_dict(self) -> dict:
        data: dict = {"axiom": self.axiom, "satisfied": self.satisfied, "witness": None}
        if self.witness is not None:
            project, voters = self.witness
            data["witness"] = {"project": project, "voters": sorted(voters)}
        return data


def _represented(instance: Instance, budget: Budget, axiom: str) -> int:
    """Bitmask of the voters with some approved funded project that counts as
    representation. Under the stronger axiom only positive-cost ones count."""
    masks = instance.approver_masks
    represented = 0
    for p in budget.selected:
        if axiom != STRONG_BJR or instance.costs[p] > 0:
            represented |= masks[p]
    return represented


def check_axiom(instance: Instance, budget: Budget, axiom: str) -> AxiomReport:
    """Every large-enough cohesive group must see some member's approval funded;
    under STRONG_BJR only positive-cost funded projects represent a voter."""
    if axiom not in AXIOMS:
        raise ValidationError(f"unknown axiom {axiom!r}; expected one of {AXIOMS}")
    if not is_feasible(instance, budget):
        raise ContractError("axiom checks require a feasible budget")
    n, limit = instance.n, instance.limit
    represented = _represented(instance, budget, axiom)
    for p, mask in enumerate(instance.approver_masks):
        group = mask & ~represented
        if group.bit_count() * limit >= n:
            return AxiomReport(axiom, False, (p, frozenset(voter_ids(group))))
    return AxiomReport(axiom, True)


def verify_witness(instance: Instance, budget: Budget, report: AxiomReport) -> bool:
    """Re-check a report's witness by the definition, over the ballots and funded
    projects: this checks the scan's logic, not the masks ``Instance.ballots`` reads."""
    if report.satisfied != (report.witness is None):
        return False
    if report.witness is None:
        return True
    project, group = report.witness
    if not group:
        return False
    if not all(0 <= v < instance.n and project in instance.ballots[v] for v in group):
        return False
    if len(group) * instance.limit < instance.n:
        return False
    counted = [p for p in budget.selected if report.axiom != STRONG_BJR or instance.costs[p] > 0]
    return all(instance.ballots[v].isdisjoint(counted) for v in group)
