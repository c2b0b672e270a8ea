"""Independent verification path for optimization results.

A fixed-injection Newton power flow over the same current-voltage physics,
a one-dimensional bracketing search for the largest feasible export, and
`validate`, the one check of a period's injections that both `lvdoe solve`
and `lvdoe validate` run.  This code shares no assembly machinery with the
optimization model; it is the ground truth the model is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# TreeIndex is unused here but stays importable: the benchmark's tracer counts its calls by this name.
from .netmodel import NetworkCase, PHASE_INDEX, TreeIndex  # noqa: F401
from .phasecalc import LimitKind, PhasorState, Violation, check_limits, limit_excess


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

    Unknowns are the non-slack voltages u.  Branch currents are the path
    matrix applied to the net demand currents i = conj(S/u), so nodal
    balance holds exactly by construction and the residual being driven to
    zero is the branch voltage-drop law, r = A u + blockdiag(Z) (P x I3) i.
    The iteration stops once every real and imaginary part of r is at most
    PF_TOL and raises PowerFlowDivergedError after PF_MAX_ITER iterations
    without it.

    The step is taken in complex form.  i is anti-linear in the voltage:
    di = c conj(du) with c = -conj(S/u^2), so with M = ZP_u diag(c) the
    real Jacobian of (Re r, Im r) in (Re du, Im du) is
    [[A3 + Re M, Im M], [Im M, A3 - Re M]].  Its rows and columns are
    interleaved per (bus, phase), so r and the step are complex arrays
    viewed as reals.  ZP_u, A3 and the flat start are case.zp_u, case.a3
    and case.u_flat, built once per case.
    """
    tree = case.tree
    n = len(case.buses)
    s_load = injections.p_load[:, :, period] + 1j * injections.q_load[:, :, period]
    s_gen = injections.p_gen[:, :, period] + 1j * injections.q_gen[:, :, period]
    s_net = np.zeros((n, 3), dtype=complex)  # drawn per bus and phase: demand minus generation
    np.add.at(s_net, tree.load_bus, s_load)
    np.subtract.at(s_net, tree.gen_bus, s_gen)

    unknown = np.arange(n) != case.slack
    s = s_net[unknown].ravel()
    # The slack is the flat start, and A maps a flat voltage to no drop, so
    # A u = A3 (u - u_start) over the non-slack buses.
    u_start = case.u_flat[unknown].ravel()
    u = u_start.copy()
    k = u.size
    jac = np.empty((k, 2, k, 2))
    for _ in range(PF_MAX_ITER):
        if np.abs(u).min() < 1e-3:
            raise PowerFlowDivergedError("voltage collapsed during Newton iteration")
        i = np.conj(s / u)
        r = case.a3 @ (u - u_start) + case.zp_u @ i
        if np.abs(r.view(float)).max() <= PF_TOL:
            break
        m = case.zp_u * (-i / np.conj(u))
        np.add(case.a3, m.real, out=jac[:, 0, :, 0])
        jac[:, 0, :, 1] = m.imag
        jac[:, 1, :, 0] = m.imag
        np.subtract(case.a3, m.real, out=jac[:, 1, :, 1])
        try:
            u -= np.linalg.solve(jac.reshape(2 * k, 2 * k), r.view(float)).view(complex)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowDivergedError(f"singular Jacobian: {exc}") from None
    else:
        raise PowerFlowDivergedError(f"no convergence in {PF_MAX_ITER} iterations")

    u_bus = case.u_flat.copy()
    u_bus[unknown] = u.reshape(-1, 3)
    return PhasorState(
        case=case,
        u=u_bus[:, :, None],
        i_branch=(tree.P @ np.conj(s_net / u_bus))[:, :, None],
        i_load=np.conj(s_load / u_bus[tree.load_bus])[:, :, None],
        i_gen=np.conj(s_gen / u_bus[tree.gen_bus])[:, :, None],
    )


# ---------------------------------------------------------------------------
# Envelope search
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
    row of limit_excess is positive.  The search bracket runs from 0 to
    BRACKET_CAP_MULTIPLE times the generator's grid-code cap; a generator
    that is feasible at the top gets the top back, and one that is
    infeasible at zero raises InfeasibleAtZeroExportError.  Otherwise the
    bracket [lo feasible, hi infeasible] shrinks until it is at most
    BISECTION_TOL wide, and its feasible end is returned.  An unknown
    generator id raises InputError.

    The bracket shrinks by a safeguarded secant on the per-row excess, not
    by halving: every row beyond its limit at hi is interpolated linearly
    to its zero crossing, and the next probe is the smallest crossing, the
    first limit to bind.  A bracket end kept twice in a row has its excess
    halved (Illinois), each probe stays BISECTION_TOL/2 inside the bracket
    so the last probes close it, and the midpoint is probed instead when
    the power flow diverged at hi or the last three probes did not together
    halve the bracket (two would cut off the Illinois step that follows a
    pair of probes on one side).  Its limits lie within BISECTION_TOL of a
    pure bisection's, and it keeps that name because the CLI, the tests
    and the benchmark call it by it.
    """
    g = case.gen_index(target_generator)
    gen = case.generators[g]
    phases = [PHASE_INDEX[ph] for ph in gen.phases]
    # One working set per search: each candidate overwrites the target's P.
    work = InjectionSet.from_case(case)

    def excess(p: float) -> np.ndarray | None:
        """Every selected row's excess at export p; None if the power flow diverges."""
        work.p_gen[g, phases, period] = p
        try:
            state = solve_pf(case, work, period)
        except PowerFlowDivergedError:
            return None
        rows = [e.ravel() for e in limit_excess(state, constraint_set).values()]
        return np.concatenate(rows) if rows else np.zeros(0)

    def feasible(e: np.ndarray | None) -> bool:
        return e is not None and not (e > 0.0).any()

    hi = BRACKET_CAP_MULTIPLE * gen.p_cap
    e_hi = excess(hi)
    if feasible(e_hi):
        return hi
    lo, e_lo = 0.0, excess(0.0)
    if not feasible(e_lo):
        raise InfeasibleAtZeroExportError(
            f"limits violated with generator {target_generator} at zero export"
        )
    widths = [hi - lo]
    last_ok = None  # verdict of the previous probe
    while hi - lo > BISECTION_TOL:
        if e_hi is None or (len(widths) > 3 and widths[-1] > 0.5 * widths[-4]):
            p = 0.5 * (lo + hi)
        else:
            over = e_hi > 0.0
            step = (hi - lo) * (e_lo[over] / (e_lo[over] - e_hi[over])).min()
            p = lo + min(max(step, 0.5 * BISECTION_TOL), hi - lo - 0.5 * BISECTION_TOL)
        e = excess(p)
        ok = feasible(e)
        if ok:
            lo, e_lo = p, e
        else:
            hi, e_hi = p, e
        if ok == last_ok:  # the other end is kept twice in a row
            if not ok:
                e_lo = 0.5 * e_lo
            elif e_hi is not None:
                e_hi = 0.5 * e_hi
        last_ok = ok
        widths.append(hi - lo)
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
