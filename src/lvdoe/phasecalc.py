"""Pure evaluation of electrical quantities and constraint residuals.

Everything here is stateless algebra on a PhasorState: branch voltage-drop
laws, nodal current balance, sequence unbalance and limit checks.  Both the optimization model and the independent power
flow are validated against these functions, so they are kept free of any
solver-specific notation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .netmodel import NetworkCase, PHASES

_HALF_SQRT3 = math.sqrt(3.0) / 2.0
# Anything below this (relative to the phasor scale) is roundoff, not unbalance.
_SEQ_ROUNDOFF = 32.0 * np.finfo(float).eps


class DegenerateStateError(ValueError):
    """Positive-sequence voltage vanished; the unbalance factor is undefined."""


class LimitKind(str, Enum):
    VOLTAGE = "voltage"
    CURRENT = "current"
    VUF = "vuf"


ALL_LIMITS = frozenset((LimitKind.VOLTAGE, LimitKind.CURRENT, LimitKind.VUF))


@dataclass(frozen=True)
class Violation:
    kind: str  # voltage_low | voltage_high | current | vuf
    location: str  # bus or branch id
    phase: str | None
    period: int
    magnitude: float  # amount beyond the limit (pu for voltage/current, ratio for vuf)


@dataclass(frozen=True)
class PhasorState:
    """Rectangular voltages and currents for one or more periods.

    Arrays are complex and indexed [element, phase, period]; the period axis
    may cover any number of periods (a single optimization or power-flow
    result is usually one).  Element counts must match the attached case.
    """

    case: NetworkCase
    u: np.ndarray        # (n_bus, 3, T)
    i_branch: np.ndarray  # (n_branch, 3, T)
    i_load: np.ndarray    # (n_load, 3, T)
    i_gen: np.ndarray     # (n_gen, 3, T)

    def __post_init__(self) -> None:
        n_per = self.u.shape[2] if self.u.ndim == 3 else -1
        expect = {
            "u": (len(self.case.buses), 3, n_per),
            "i_branch": (len(self.case.branches), 3, n_per),
            "i_load": (len(self.case.loads), 3, n_per),
            "i_gen": (len(self.case.generators), 3, n_per),
        }
        for name, shape in expect.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"PhasorState.{name} has shape {arr.shape}, expected {shape}")

    @property
    def n_periods(self) -> int:
        return self.u.shape[2]


# ---------------------------------------------------------------------------
# Branch laws and nodal balance
# ---------------------------------------------------------------------------

def _voltage_drop_residuals(state: PhasorState) -> np.ndarray:
    """(n_branch, 3, T) mismatch of the series voltage-drop law, A u + Z i_branch."""
    case = state.case
    rise = np.einsum("lm,mpt->lpt", case.tree.A, state.u)
    return rise + np.einsum("lpq,lqt->lpt", case.z, state.i_branch)


def _kcl_residuals(state: PhasorState) -> np.ndarray:
    """(n_bus, 3, T) nodal balance: demand - generation - A' i_branch."""
    tree = state.case.tree
    total = -np.einsum("lm,lpt->mpt", tree.A, state.i_branch)
    np.add.at(total, tree.load_bus, state.i_load)
    np.subtract.at(total, tree.gen_bus, state.i_gen)
    return total


# ---------------------------------------------------------------------------
# Sequence components / unbalance
# ---------------------------------------------------------------------------

def _sequence_squares(ua, ub, uc) -> tuple:
    """Un-normalized squared negative/positive sequence magnitudes.

    The common 1/3 factor of the symmetrical-component transform is dropped
    since it cancels in the unbalance ratio.  Elementwise on complex scalars
    or arrays, returns (|U2|^2, |U1|^2, scale) where scale is the magnitude
    level used for roundoff classification.
    """
    u2_re = ua.real - 0.5 * (ub.real + uc.real) + _HALF_SQRT3 * (ub.imag - uc.imag)
    u2_im = ua.imag - 0.5 * (ub.imag + uc.imag) - _HALF_SQRT3 * (ub.real - uc.real)
    u1_re = ua.real - 0.5 * (ub.real + uc.real) - _HALF_SQRT3 * (ub.imag - uc.imag)
    u1_im = ua.imag - 0.5 * (ub.imag + uc.imag) + _HALF_SQRT3 * (ub.real - uc.real)
    scale = np.maximum(np.maximum(abs(ua), abs(ub)), np.maximum(abs(uc), 1e-300))
    return (u2_re * u2_re + u2_im * u2_im, u1_re * u1_re + u1_im * u1_im, scale)


def vuf_from_phasors(ua: complex, ub: complex, uc: complex) -> float:
    """Negative- over positive-sequence voltage magnitude ratio.

    A negative-sequence component below the roundoff floor of the input
    scale is reported as exactly 0 (the phasors are balanced to machine
    precision, and any nonzero ratio would be noise).
    """
    u2_sq, u1_sq, scale = _sequence_squares(ua, ub, uc)
    floor = _SEQ_ROUNDOFF * scale
    if u1_sq <= floor * floor:
        raise DegenerateStateError("undefined VUF: positive-sequence voltage is zero")
    if u2_sq <= floor * floor:
        return 0.0
    return math.sqrt(u2_sq / u1_sq)


# ---------------------------------------------------------------------------
# Limit checks
# ---------------------------------------------------------------------------

def limit_excess(
    state: PhasorState,
    constraint_set: frozenset[LimitKind] | set[LimitKind] = ALL_LIMITS,
) -> dict[str, np.ndarray]:
    """Value minus limit of every selected limit row; positive is beyond it.

    Keyed by violation kind, in the order check_limits reports ties:
    'voltage_high' (|u| - vmax) and 'voltage_low' (vmin - |u|) per bus,
    phase and period, 'current' (|i| - imax) per branch, phase and period,
    and 'vuf' (VUF - vuf_max) per bus and period, where an unbalance under
    the roundoff floor counts as 0.  A row is violated at tolerance tol when
    its excess exceeds tol; this is the one definition of a violation that
    check_limits and the oracle's export search both use.
    """
    case = state.case
    out: dict[str, np.ndarray] = {}
    if LimitKind.VOLTAGE in constraint_set:
        vmag = np.abs(state.u)
        out["voltage_high"] = vmag - np.array([bus.vmax for bus in case.buses])[:, None, None]
        out["voltage_low"] = np.array([bus.vmin for bus in case.buses])[:, None, None] - vmag
    if LimitKind.CURRENT in constraint_set:
        out["current"] = np.abs(state.i_branch) - np.array([br.i_max for br in case.branches])[:, None, None]
    if LimitKind.VUF in constraint_set:
        # vuf_from_phasors at every bus and period at once
        u2_sq, u1_sq, scale = _sequence_squares(state.u[:, 0], state.u[:, 1], state.u[:, 2])
        floor = _SEQ_ROUNDOFF * scale
        if np.any(u1_sq <= floor * floor):
            raise DegenerateStateError("undefined VUF: positive-sequence voltage is zero")
        ratio = np.where(u2_sq <= floor * floor, 0.0, np.sqrt(u2_sq / u1_sq))
        out["vuf"] = ratio - np.array([bus.vuf_max for bus in case.buses])[:, None]
    return out


def check_limits(
    state: PhasorState,
    constraint_set: frozenset[LimitKind] | set[LimitKind] = ALL_LIMITS,
    tol: float = 0.0,
) -> list[Violation]:
    """Every row of limit_excess beyond tol, largest excess first.

    Voltage magnitude and unbalance are checked at every bus, current at
    every branch phase, over all periods held by the state.  Ties keep the
    order voltage, current, unbalance, each by element, phase and period.
    """
    case = state.case
    excess = limit_excess(state, constraint_set)
    out: list[Violation] = []
    if "voltage_high" in excess:
        high, low = excess["voltage_high"], excess["voltage_low"]
        for n, p, t in zip(*np.nonzero((high > tol) | (low > tol))):
            kind = "voltage_high" if high[n, p, t] > tol else "voltage_low"
            out.append(Violation(kind, case.buses[n].id, PHASES[p], int(t), excess[kind][n, p, t]))
    if "current" in excess:
        for l, p, t in zip(*np.nonzero(excess["current"] > tol)):
            out.append(Violation("current", case.branches[l].id, PHASES[p], int(t), excess["current"][l, p, t]))
    if "vuf" in excess:
        for n, t in zip(*np.nonzero(excess["vuf"] > tol)):
            out.append(Violation("vuf", case.buses[n].id, None, int(t), excess["vuf"][n, t]))
    out.sort(key=lambda v: -v.magnitude)
    return out


# ---------------------------------------------------------------------------
# Aggregate residuals (used to certify solver output)
# ---------------------------------------------------------------------------

def _max_part(res: np.ndarray) -> float:
    return float(max(np.abs(res.real).max(initial=0.0), np.abs(res.imag).max(initial=0.0)))


def max_voltage_drop_residual(state: PhasorState) -> float:
    return _max_part(_voltage_drop_residuals(state))


def max_kcl_residual(state: PhasorState) -> float:
    """Worst nodal current mismatch over all non-slack buses."""
    return _max_part(np.delete(_kcl_residuals(state), state.case.slack, axis=0))
