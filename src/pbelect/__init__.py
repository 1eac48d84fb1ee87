"""Participatory-budgeting rules, axiom checks, culture generation, and experiments."""

from .core import (
    Assignment,
    Budget,
    ConfigurationError,
    ContractError,
    Instance,
    ValidationError,
    coverage,
    is_exhaustive,
    is_feasible,
    make_budget,
    voter_satisfied,
)
from .rules import (
    APPROVAL,
    BORDA,
    RuleTrace,
    brute_force_cc_optimal,
    brute_force_monroe_optimal,
    committee_size,
    seq_chamberlin_courant,
    seq_monroe,
    stv,
)
from .axioms import (
    AxiomReport,
    STRONG_BJR,
    UJR,
    check_axiom,
    check_strong_bjr,
    check_ujr,
    naive_axiom_oracle,
)
from .culture import CultureConfig, derive_trial_seed, generate
from .harness import (
    CaseConfig,
    ExperimentConfig,
    ExperimentResult,
    default_experiment_config,
    emit_plot_data,
    replay_trial,
    run_experiment,
    write_results_csv,
)

__version__ = "0.1.0"
