"""Independent verification path for optimization results.

A fixed-injection Newton power flow over the same current-voltage physics,
a one-dimensional bisection search for the largest feasible export, and
`validate`, the one check of a period's injections that both `lvdoe solve`
and `lvdoe validate` run.  This code shares no assembly machinery with the
optimization model; it is the ground truth the model is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .netmodel import NetworkCase, PHASE_INDEX, TreeIndex, slack_reference
from .phasecalc import LimitKind, PhasorState, Violation, check_limits


class PowerFlowDivergedError(RuntimeError):
    """Newton iteration failed; injections are outside the solvable range."""


class InfeasibleAtZeroExportError(RuntimeError):
    """The network violates limits even with the target generator off."""


@dataclass(frozen=True)
class InjectionSet:
    """Fixed (P, Q) per element, phase and period, in per-unit."""

    p_load: np.ndarray  # (n_load, 3, T)
    q_load: np.ndarray
    p_gen: np.ndarray   # (n_gen, 3, T)
    q_gen: np.ndarray

    @classmethod
    def from_case(cls, case: NetworkCase) -> "InjectionSet":
        """Loads at their profiles, generators silent."""
        T = case.horizon
        p_load = np.zeros((len(case.loads), 3, T))
        q_load = np.zeros_like(p_load)
        for d, ld in enumerate(case.loads):
            for k, ph in enumerate(ld.phases):
                p_load[d, PHASE_INDEX[ph], :] = ld.p[k]
                q_load[d, PHASE_INDEX[ph], :] = ld.q[k]
        n_g = len(case.generators)
        return cls(p_load, q_load, np.zeros((n_g, 3, T)), np.zeros((n_g, 3, T)))


PF_TOL = 1e-12  # pu, largest voltage-drop residual at which the power flow stops
PF_MAX_ITER = 50  # Newton iterations before the power flow counts as diverged


def solve_pf(case: NetworkCase, injections: InjectionSet, period: int) -> PhasorState:
    """Newton power flow at fixed injections; returns a single-period state.

    Unknowns are the rectangular non-slack voltages.  Branch currents are
    the path matrix applied to the injection currents, so nodal balance
    holds exactly by construction and the residual being driven to zero is
    the branch voltage-drop law, A u + Z i_branch.  The iteration stops once
    that residual is at most PF_TOL and raises PowerFlowDivergedError after
    PF_MAX_ITER iterations without it.
    """
    tree = TreeIndex(case)
    n = len(case.buses)
    s_load = injections.p_load[:, :, period] + 1j * injections.q_load[:, :, period]
    s_gen = injections.p_gen[:, :, period] + 1j * injections.q_gen[:, :, period]
    s_net = np.zeros((n, 3), dtype=complex)  # drawn per bus and phase: demand minus generation
    np.add.at(s_net, tree.load_bus, s_load)
    np.subtract.at(s_net, tree.gen_bus, s_gen)

    z = case.branch_z()
    # Real form of each impedance, acting on (re a..c, im a..c) currents,
    # indexed [branch, re/im, phase, re/im, phase].
    z_real = np.block([[z.real, -z.imag], [z.imag, z.real]]).reshape(-1, 2, 3, 2, 3)
    # blockdiag(Z) (P x I): each branch's drop per unit of bus injection
    # current, as a stack over [bus, phase] of (branch re/im phase, re/im).
    zp = np.einsum("lm,lapcq->mqlapc", tree.P, z_real).reshape(n, 3, 6 * len(z), 2)
    unknown = np.delete(np.arange(n), case.slack)
    cols = (6 * unknown[:, None] + np.arange(6)).ravel()
    jac_volt = np.kron(tree.A, np.eye(6))[:, cols]

    u = np.tile(slack_reference(case)[None, :], (n, 1)).astype(complex)

    def injection_currents(volt: np.ndarray) -> np.ndarray:
        if np.any(np.abs(volt) < 1e-3):
            raise PowerFlowDivergedError("voltage collapsed during Newton iteration")
        return np.conj(s_net / volt)

    for _ in range(PF_MAX_ITER):
        i_br = tree.P @ injection_currents(u)
        r = tree.A @ u + np.einsum("lpq,lq->lp", z, i_br)
        res = np.concatenate([r.real, r.imag], axis=1).ravel()
        if np.abs(res).max() <= PF_TOL:
            break

        # Impedance drops move with the voltages through the injection
        # currents: blockdiag(Z) (P x I) blockdiag(d i_net / d u).
        dnet = _injection_current_jacobian(s_net, u)
        jac_drop = (zp @ dnet).transpose(2, 0, 3, 1).reshape(6 * len(z), 6 * n)
        try:
            dv = np.linalg.solve(jac_volt + jac_drop[:, cols], -res).reshape(-1, 2, 3)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowDivergedError(f"singular Jacobian: {exc}") from None
        u[unknown] += dv[:, 0] + 1j * dv[:, 1]
    else:
        raise PowerFlowDivergedError(f"no convergence in {PF_MAX_ITER} iterations")

    return PhasorState(
        case=case,
        u=u[:, :, None],
        i_branch=(tree.P @ injection_currents(u))[:, :, None],
        i_load=np.conj(s_load / u[tree.load_bus])[:, :, None],
        i_gen=np.conj(s_gen / u[tree.gen_bus])[:, :, None],
    )


def _injection_current_jacobian(s_net: np.ndarray, u: np.ndarray) -> np.ndarray:
    """d(net injection current)/d(voltage) as (n_bus, 3) blocks of 2x2 reals.

    The current of a constant-power element is conj(S/U); for U = a + jb,
    i_re = (P a + Q b)/(a^2+b^2) and i_im = (P b - Q a)/(a^2+b^2).
    """
    n = s_net.shape[0]
    out = np.zeros((n, 3, 2, 2))
    a, b = u.real, u.imag
    m2 = a * a + b * b
    p_, q_ = s_net.real, s_net.imag
    ire = (p_ * a + q_ * b) / m2
    iim = (p_ * b - q_ * a) / m2
    out[:, :, 0, 0] = p_ / m2 - 2.0 * a * ire / m2
    out[:, :, 0, 1] = q_ / m2 - 2.0 * b * ire / m2
    out[:, :, 1, 0] = -q_ / m2 - 2.0 * a * iim / m2
    out[:, :, 1, 1] = p_ / m2 - 2.0 * b * iim / m2
    return out


# ---------------------------------------------------------------------------
# Envelope search by bisection
# ---------------------------------------------------------------------------

BRACKET_CAP_MULTIPLE = 10.0  # bracket top, in units of the target's grid-code cap
BISECTION_TOL = 1e-6  # pu, width of the bracket at which the search stops


def doe_bisection(
    case: NetworkCase,
    target_generator: str,
    constraint_set: frozenset[LimitKind] | set[LimitKind],
    period: int,
) -> float:
    """Largest feasible active export (Q = 0) of one generator, in per-unit.

    Loads stay at their profiles and every other generator is silent.  A
    candidate is feasible when the power flow converges and no selected
    limit is violated.  The search bracket tops out at BRACKET_CAP_MULTIPLE
    times the generator's grid-code cap; a generator that is feasible there
    gets that top back.  Otherwise the bracket is halved until it is at
    most BISECTION_TOL wide, and its feasible end is returned.  An unknown
    generator id raises InputError.
    """
    g = case.gen_index(target_generator)
    gen = case.generators[g]
    phases = [PHASE_INDEX[ph] for ph in gen.phases]
    # One working set per search: each candidate overwrites the target's P.
    work = InjectionSet.from_case(case)
    hi = BRACKET_CAP_MULTIPLE * gen.p_cap

    def feasible(p: float) -> bool:
        work.p_gen[g, phases, period] = p
        try:
            state = solve_pf(case, work, period)
        except PowerFlowDivergedError:
            return False
        return not check_limits(state, constraint_set)

    if feasible(hi):
        return hi
    if not feasible(0.0):
        raise InfeasibleAtZeroExportError(
            f"limits violated with generator {target_generator} at zero export"
        )
    lo = 0.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """The oracle's verdict on one period's injections."""

    violations: tuple[Violation, ...]
    max_voltage_deviation: float = 0.0  # pu, from the optimizer's voltages when given
    error: str | None = None  # why the power flow failed, if it did

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations and self.max_voltage_deviation <= 1e-6


def validate(
    case: NetworkCase,
    injections: InjectionSet,
    period: int,
    constraint_set: frozenset[LimitKind] | set[LimitKind],
    u: np.ndarray | None = None,
) -> ValidationReport:
    """Re-solve the power flow at fixed injections and check one period.

    The selected limits are checked on the oracle's own state, to 1e-6, and
    each violation names period; when the optimizer's (n_bus, 3) voltages u
    are given, their largest deviation from the oracle's is reported too.  A
    power flow that diverges fails the period instead of raising.
    """
    try:
        state = solve_pf(case, injections, period)
    except PowerFlowDivergedError as exc:
        return ValidationReport(violations=(), error=str(exc))
    dev = 0.0 if u is None else float(np.abs(u - state.u[:, :, 0]).max())
    return ValidationReport(tuple(replace(v, period=period) for v in check_limits(state, constraint_set, tol=1e-6)), dev)
