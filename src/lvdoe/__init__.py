"""Dynamic operating envelopes for unbalanced low-voltage feeders.

Computes time-varying export limits and reactive-power margins for
distributed generators by solving an exact nonconvex three-phase
current-voltage optimal power flow under configurable technical limits
(voltage magnitude, current magnitude, voltage unbalance factor).
"""

__version__ = "0.1.0"

from .netmodel import (  # noqa: F401
    Branch,
    Bus,
    Generator,
    InputError,
    Load,
    NetworkCase,
    load_network,
    seq_to_phase_impedance,
    to_per_unit,
    to_physical,
)
from .phasecalc import LimitKind, PhasorState, Violation, check_limits  # noqa: F401
from .nlp import NlpProblem, Objective, ScenarioSpec, build_problem  # noqa: F401
from .solver import Solution, SolverOptions, solve  # noqa: F401
from .oracle import InjectionSet, ValidationReport, doe_bisection, solve_pf, validate  # noqa: F401
