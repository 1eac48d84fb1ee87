"""Participatory-budgeting rules, axiom checks, culture generation, and experiments."""

from .core import (
    Assignment,
    Budget,
    ConfigurationError,
    ContractError,
    Instance,
    ValidationError,
    is_exhaustive,
    is_feasible,
    make_budget,
)
from .rules import (
    APPROVAL,
    BORDA,
    RuleTrace,
    committee_size,
    seq_chamberlin_courant,
    seq_monroe,
    stv,
)
from .axioms import STRONG_BJR, UJR, AxiomReport, check_axiom
from .culture import CultureConfig, derive_trial_seed, generate
from .harness import (
    CaseConfig,
    ExperimentConfig,
    default_experiment_config,
    emit_plot_data,
    replay_trial,
    run_experiment,
    write_results_csv,
)

__version__ = "0.1.0"
