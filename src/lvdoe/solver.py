"""Primal-dual interior-point solver for the quadratic-constraint programs.

Slack-based formulation: minimize f(x) subject to g(x) = 0 and h(x) + s = 0
with s > 0, following the central path with a monotonically reduced barrier
parameter.  Steps come from a symmetric indefinite KKT system factorized by
LDL' with inertia-driven regularization, and are damped only by the
fraction-to-boundary rule plus a divergence guard; on this problem class
(quadratic rows, per-unit scaling) that plain damped-Newton scheme converges
faster and more reliably than a merit line search.

Variable bounds are expanded internally: equal lower/upper bounds become
equality rows, finite one-sided bounds become affine inequality rows, so the
core iteration only ever sees the two constraint blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import nlp as nlp_mod
from .nlp import NlpProblem, QuadBlock, concat_blocks


class KktSingularError(RuntimeError):
    """KKT system stayed singular after exhausting the regularization budget."""


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-8
    max_iter: int = 300
    mu_init: float = 0.1
    mu_shrink: float = 0.2
    step_fraction: float = 0.995
    regularization_min: float = 1e-10
    trace: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.mu_shrink < 1.0):
            raise ValueError("mu_shrink must be in (0, 1)")
        for name in ("tol_kkt", "max_iter", "mu_init", "step_fraction", "regularization_min"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Duals:
    y: np.ndarray  # equality multipliers (internal rows)
    z: np.ndarray  # inequality multipliers, > 0
    s: np.ndarray  # inequality slacks, > 0


@dataclass(frozen=True)
class Solution:
    problem: NlpProblem
    x: np.ndarray
    objective: float  # maximization sense, matching the problem statement
    status: str       # optimal | infeasible_local | iteration_limit
    iterations: int
    max_kkt_residual: float
    eq_duals: np.ndarray      # user equality rows
    ineq_duals: np.ndarray    # user inequality rows
    ineq_active: np.ndarray   # user inequality rows with slack below tolerance
    trace: tuple = ()


@dataclass(frozen=True)
class InternalForm:
    """Minimization form with bounds expanded into constraint rows."""

    n_vars: int
    c: np.ndarray          # minimize c . x
    eq: QuadBlock
    ineq: QuadBlock
    n_user_eq: int
    n_user_ineq: int


def internalize(problem: NlpProblem) -> InternalForm:
    n = problem.n_vars
    lb, ub = problem.lb, problem.ub

    fix = QuadBlock(n)
    for i in np.flatnonzero(lb == ub):
        k = fix.new_row(f"fix[x{i}]", const=-lb[i])
        fix.lin(k, int(i), 1.0)
    fix.seal()

    bnd = QuadBlock(n)
    for i in range(n):
        if lb[i] == ub[i]:
            continue
        if np.isfinite(ub[i]):
            k = bnd.new_row(f"ub[x{i}]", const=-ub[i])
            bnd.lin(k, i, 1.0)
        if np.isfinite(lb[i]):
            k = bnd.new_row(f"lb[x{i}]", const=lb[i])
            bnd.lin(k, i, -1.0)
    bnd.seal()

    return InternalForm(
        n_vars=n,
        c=-problem.obj_coef,  # maximize -> minimize
        eq=concat_blocks(n, [problem.eq, fix]),
        ineq=concat_blocks(n, [problem.ineq, bnd]),
        n_user_eq=problem.eq.n_rows,
        n_user_ineq=problem.ineq.n_rows,
    )


# ---------------------------------------------------------------------------
# KKT assembly and symmetric indefinite factorization
# ---------------------------------------------------------------------------

def kkt_assemble(
    problem: NlpProblem | InternalForm,
    x: np.ndarray,
    duals: Duals,
    mu: float,
    delta_w: float = 0.0,
    delta_c: float = 0.0,
) -> tuple[sp.csc_matrix, np.ndarray]:
    """Sparse symmetric KKT system and right-hand side at the current point.

    Layout: [W + dw*I, Jg', Jh'; Jg, -dc*I, 0; Jh, 0, -diag(s/z)] acting on
    (dx, dy, dz); the slack step is recovered afterwards.  Constraint
    Hessians are constant, so W is a fixed-sparsity weighted sum.
    """
    form = problem if isinstance(problem, InternalForm) else internalize(problem)
    if mu <= 0.0:
        raise ValueError("barrier parameter mu must be positive")
    n, me, mi = form.n_vars, form.eq.n_rows, form.ineq.n_rows
    y, z, s = duals.y, duals.z, duals.s

    wi_e, wj_e, wv_e = form.eq.weighted_hessian_triplets(y)
    wi_i, wj_i, wv_i = form.ineq.weighted_hessian_triplets(z)
    jg = form.eq.jacobian(x).tocoo()
    jh = form.ineq.jacobian(x).tocoo()

    rows = [wi_e, wi_i, jg.row + n, jg.col, jh.row + n + me, jh.col]
    cols = [wj_e, wj_i, jg.col, jg.row + n, jh.col, jh.row + n + me]
    vals = [wv_e, wv_i, jg.data, jg.data, jh.data, jh.data]
    if delta_w > 0.0:
        rows.append(np.arange(n))
        cols.append(np.arange(n))
        vals.append(np.full(n, delta_w))
    # Dual regularization applies to both constraint blocks: redundant active
    # inequalities (degenerate active sets) singularize the KKT system just
    # like rank-deficient equality rows do.
    rows.append(np.arange(n, n + me))
    cols.append(np.arange(n, n + me))
    vals.append(np.full(me, -delta_c))
    rows.append(np.arange(n + me, n + me + mi))
    cols.append(np.arange(n + me, n + me + mi))
    vals.append(-s / z - delta_c)

    dim = n + me + mi
    kkt = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsc()

    grad_lag = form.c + jg.T @ y + jh.T @ z
    rhs = np.concatenate([-grad_lag, -form.eq.value(x), -(form.ineq.value(x) + mu / z)])
    return kkt, rhs


def _ldlt(kdense: np.ndarray):
    """Bunch-Kaufman LDL' with inertia; returns (solve_fn, (pos, neg, zero)).

    Uses LAPACK sytrf/sytrs directly.  2x2 pivots of the Bunch-Kaufman
    factorization are always indefinite (one eigenvalue of each sign), so
    the inertia falls out of the pivot structure without eigenvalue work.
    The zero threshold is absolute: barrier diagonals legitimately reach
    1e10 and beyond, so a relative threshold would misclassify small but
    healthy curvature pivots.
    """
    n = kdense.shape[0]
    sytrf, sytrs, sytrf_lwork = scipy.linalg.get_lapack_funcs(
        ("sytrf", "sytrs", "sytrf_lwork"), (kdense,)
    )
    lwork, _ = sytrf_lwork(n, lower=1)
    ldu, ipiv, info = sytrf(kdense, lower=1, lwork=int(lwork))
    if info < 0:
        raise ValueError(f"sytrf illegal argument {-info}")
    tiny = 1e-12
    d = np.diagonal(ldu)
    # A 2x2 pivot marks both of its rows with a negative ipiv, so the blocks
    # start at every other negative entry.
    two = np.flatnonzero(ipiv < 0)[::2]
    one = np.ones(n, dtype=bool)
    one[two] = one[two + 1] = False
    v = d[one]
    pos = int(np.count_nonzero(v > tiny))
    neg = int(np.count_nonzero(v < -tiny))
    zero = v.size - pos - neg
    a, b, c = d[two], ldu[two + 1, two], d[two + 1]
    det = a * c - b * b
    singular = np.abs(det) <= tiny * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(c))
    # A regular 2x2 pivot has one eigenvalue of each sign; a singular one
    # counts one zero, and its trace signs the other eigenvalue.
    tr = (a + c)[singular]
    tr_pos = int(np.count_nonzero(tr > tiny))
    tr_neg = int(np.count_nonzero(tr < -tiny))
    regular = two.size - tr.size
    pos += regular + tr_pos
    neg += regular + tr_neg
    zero += tr.size + (tr.size - tr_pos - tr_neg)

    def solve(rhs: np.ndarray) -> np.ndarray:
        out, sinfo = sytrs(ldu, ipiv, rhs, lower=1)
        if sinfo != 0:
            raise ValueError(f"sytrs failed with info {sinfo}")
        return out

    return solve, (pos, neg, zero)


# ---------------------------------------------------------------------------
# Main iteration
# ---------------------------------------------------------------------------

def solve(
    problem: NlpProblem,
    options: SolverOptions | None = None,
    x0: np.ndarray | None = None,
) -> Solution:
    """Drive the interior-point iteration to a first-order KKT point.

    Deterministic: identical problems and options reproduce the iteration
    history bit for bit.  Nonconvexity means the result is a KKT point, not
    a certified global optimum.  x0 overrides the flat-start initialization.
    """
    opts = options or SolverOptions()
    form = internalize(problem)
    n, me, mi = form.n_vars, form.eq.n_rows, form.ineq.n_rows

    x = nlp_mod.initial_point(problem) if x0 is None else x0.astype(float).copy()
    h0 = form.ineq.value(x)
    s = np.maximum(-h0, 1e-2)
    z = np.minimum(np.maximum(opts.mu_init / s, 1e-8), 1e8)
    # Least-squares multiplier estimate for the equalities; a poor guess here
    # costs many early iterations on feasibility-dominated steps.
    y = np.zeros(me)
    if me:
        jg0 = form.eq.jacobian(x).toarray()
        rhs0 = -(form.c + form.ineq.jacobian(x).T @ z)
        y_ls, *_ = np.linalg.lstsq(jg0.T, rhs0, rcond=None)
        if np.abs(y_ls).max() <= 1e3:
            y = y_ls

    mu = opts.mu_init
    tau = opts.step_fraction
    delta_last = 0.0
    trace: list[dict] = []
    status = "iteration_limit"
    small_steps = 0
    it = 0

    def feasibility_error() -> float:
        """Largest dual and primal residual at the current point."""
        jg = form.eq.jacobian(x)
        jh = form.ineq.jacobian(x)
        r_d = form.c + jg.T @ y + jh.T @ z
        terms = [np.abs(r_d).max() if n else 0.0]
        if me:
            terms.append(np.abs(form.eq.value(x)).max())
        if mi:
            terms.append(np.abs(form.ineq.value(x) + s).max())
        return max(terms)

    def kkt_error(mu_val: float, feas: float | None = None) -> float:
        """KKT error for barrier mu_val; feas reuses feasibility_error()."""
        feas = feasibility_error() if feas is None else feas
        return max(feas, np.abs(s * z - mu_val).max()) if mi else feas

    def theta(xv: np.ndarray, sv: np.ndarray) -> float:
        t = np.abs(form.eq.value(xv)).max() if me else 0.0
        if mi:
            t = max(t, np.abs(form.ineq.value(xv) + sv).max())
        return t

    while it < opts.max_iter:
        feas = feasibility_error()
        if kkt_error(0.0, feas) <= opts.tol_kkt:
            status = "optimal"
            break
        # Monotone Fiacco-McCormick barrier reduction, gated on the inner
        # problem being solved to within a multiple of the current mu; the
        # target blends the fixed shrink with the measured complementarity.
        if mi and mu > opts.tol_kkt / 100.0 and kkt_error(mu, feas) <= 10.0 * mu:
            compl = float(s @ z) / mi
            mu = max(
                opts.tol_kkt / 100.0,
                min(opts.mu_shrink * mu, max(0.1 * compl, mu**1.5)),
            )

        duals = Duals(y=y, z=z, s=s)
        kkt, rhs = kkt_assemble(form, x, duals, mu)
        # Fortran order hands LAPACK a plain copy instead of a transposed one.
        # sytrf leaves its input intact, so a retry rewrites the diagonal from
        # the saved one rather than copying the whole dense matrix; the
        # regularizations only grow, so every entry it sets is rewritten.
        kdense = kkt.toarray(order="F")
        diag = np.arange(n + me + mi)
        base_diag = kdense[diag, diag]
        solve_fn, inertia = None, None
        delta_w, delta_c = 0.0, 0.0
        for _ in range(60):
            if delta_w > 0.0:
                kdense[diag[:n], diag[:n]] = base_diag[:n] + delta_w
            if delta_c > 0.0:
                kdense[diag[n:], diag[n:]] = base_diag[n:] - delta_c
            solve_fn, inertia = _ldlt(kdense)
            ok = inertia[0] == n and inertia[2] == 0
            if ok:
                break
            if inertia[2] > 0:
                delta_c = 10.0 * delta_c if delta_c > 0.0 else np.sqrt(np.finfo(float).eps) * max(mu, 1e-6)
            if delta_w == 0.0:
                delta_w = max(opts.regularization_min, delta_last / 3.0)
            else:
                delta_w *= 10.0
            if delta_w > 1e12:
                raise KktSingularError(
                    f"KKT inertia {inertia} not correctable at regularization {delta_w:g}"
                )
        delta_last = delta_w

        step = solve_fn(rhs)
        dx = step[:n]
        dy = step[n : n + me]
        dz = step[n + me :]
        ds = mu / z - s - (s / z) * dz if mi else np.zeros(0)

        # Fraction-to-boundary limits keep s and z strictly positive.
        alpha = 1.0
        if mi:
            neg = ds < 0.0
            if np.any(neg):
                alpha = min(1.0, float(np.min(-tau * s[neg] / ds[neg])))
        alpha_z = 1.0
        if mi:
            neg = dz < 0.0
            if np.any(neg):
                alpha_z = min(1.0, float(np.min(-tau * z[neg] / dz[neg])))

        # No merit line search: the fraction-to-boundary step is taken as is,
        # with a divergence guard that halves the step while the infeasibility
        # grows out of proportion.
        theta0 = theta(x, s)
        guard = max(10.0 * theta0, 1e-2)
        accepted = False
        for _ in range(30):
            x_new = x + alpha * dx
            s_new = s + alpha * ds if mi else s
            val = theta(x_new, s_new)
            if np.isfinite(val) and val <= guard:
                accepted = True
                break
            alpha *= 0.5

        if accepted and alpha >= 1e-11:
            small_steps = 0
            x = x + alpha * dx
            y = y + alpha * dy
            if mi:
                s = s + alpha * ds
                z = np.maximum(z + alpha_z * dz, 1e-16)
                # Upper dual safeguard: degenerate active sets have unbounded
                # multipliers, which would blow up the Lagrangian Hessian.
                z = np.minimum(z, np.maximum(1e10 * mu / s, 1e4))
        else:
            small_steps += 1
            delta_last = max(delta_last, 1e-4)
        it += 1

        if small_steps >= 3:
            status = "infeasible_local" if theta(x, s) > 1e-6 else "iteration_limit"
            break
        # Diverging multipliers with persistent constraint violation is the
        # interior-point certificate of local infeasibility.
        dual_norm = max(
            np.abs(y).max() if me else 0.0,
            np.abs(z).max() if mi else 0.0,
        )
        if dual_norm > 1e8 and theta(x, s) > 1e-6:
            status = "infeasible_local"
            break

        if opts.trace:
            trace.append(
                {
                    "iter": it,
                    "mu": mu,
                    "objective": float(-form.c @ x),
                    "kkt_error": kkt_error(0.0),
                    "theta": theta(x, s),
                    "alpha": alpha,
                }
            )

    final_err = kkt_error(0.0)
    if status == "optimal" and mi and np.any(form.ineq.value(x) > opts.tol_kkt):
        status = "iteration_limit"

    ineq_vals_user = problem.ineq.value(x) if problem.ineq.n_rows else np.zeros(0)
    return Solution(
        problem=problem,
        x=x,
        objective=float(problem.obj_coef @ x),
        status=status,
        iterations=it,
        max_kkt_residual=final_err,
        eq_duals=y[: form.n_user_eq].copy(),
        ineq_duals=z[: form.n_user_ineq].copy() if mi else np.zeros(0),
        ineq_active=ineq_vals_user > -1e-6,
        trace=tuple(trace),
    )
