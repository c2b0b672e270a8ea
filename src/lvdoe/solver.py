"""Primal-dual interior-point solver for the quadratic-constraint programs.

Slack-based formulation: minimize f(x) subject to g(x) = 0 and h(x) + s = 0
with s > 0, following the central path with a monotonically reduced barrier
parameter.  Steps come from a symmetric indefinite KKT system factorized by
LDL' with inertia-driven regularization, and are damped only by the
fraction-to-boundary rule plus a divergence guard; on this problem class
(quadratic rows, per-unit scaling) that plain damped-Newton scheme converges
faster and more reliably than a merit line search.

Fixed variables (equal bounds) stay out of the step; finite one-sided bounds
become affine inequality rows.  The inequality block is condensed into the
Hessian, so the dense KKT matrix has a row per free variable and equality
row: [W + Jh' diag(z/s) Jh + dw*I, Jg'; Jg, -dc*I], as in MATPOWER's MIPS.

Each point is evaluated once: an Iterate holds (x, y, z, s) with the rows and
Jacobians at x, and the stopping test, the KKT system, the divergence guard
and the trace all read it.  A guard probe that is accepted becomes the next
Iterate, as Ipopt caches its evaluations per point.

Each iteration first tries dw = dc = 0 and climbs a regularization ladder
while the inertia is wrong.  Once DEGENERATE_ITERATIONS consecutive
iterations have found zero pivots in that first attempt, the equality
Jacobian is taken as rank-deficient and later iterations start the ladder at
dc > 0 directly (Ipopt's degenerate-Jacobian rule, Waechter & Biegler 2006,
Sec. 3.1).  On the bundled feeders the cause is structural: units that share
a bus and phase with free Q leave only their group's total Q and current
fixed, so the unregularized matrix is singular at every iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg

from . import nlp as nlp_mod
from .nlp import NlpProblem, QuadBlock, concat_blocks

MU_INIT = 0.1
MU_SHRINK = 0.2
STEP_FRACTION = 0.995
REGULARIZATION_MIN = 1e-10
# Consecutive iterations with zero pivots at dw = dc = 0 after which the
# remaining iterations of a solve skip that attempt.
DEGENERATE_ITERATIONS = 3


class KktSingularError(RuntimeError):
    """KKT system stayed singular after exhausting the regularization budget."""


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-8
    max_iter: int = 300
    trace: bool = False

    def __post_init__(self) -> None:
        for name in ("tol_kkt", "max_iter"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Iterate:
    """A point of the iteration, with the rows and Jacobians evaluated at x."""

    x: np.ndarray
    y: np.ndarray   # equality multipliers
    z: np.ndarray   # inequality multipliers (internal rows), > 0
    s: np.ndarray   # inequality slacks, > 0
    g: np.ndarray   # equality rows at x
    h: np.ndarray   # inequality rows at x
    jg: np.ndarray  # dense equality Jacobian at x
    jh: np.ndarray  # dense inequality Jacobian at x


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    objective: float  # maximization sense, matching the problem statement
    status: str       # optimal | infeasible_local | iteration_limit
    iterations: int
    max_kkt_residual: float
    ineq_active: np.ndarray   # user inequality rows with slack below tolerance
    factorizations: int       # KKT factorizations over all iterations
    trace: tuple = ()


@dataclass(frozen=True)
class InternalForm:
    """Minimization form over the free variables, bounds expanded into rows.

    The positions that the Hessian terms take in the dense KKT matrix depend
    only on the row structure and the free set, so they are built once here.
    """

    n_vars: int
    c: np.ndarray          # minimize c . x
    eq: QuadBlock          # user equality rows
    ineq: QuadBlock        # user inequality rows, then bound rows
    free: np.ndarray       # variables with lb != ub; the step moves only these
    w_index: np.ndarray    # KKT position of each eq, ineq and condensed Hessian term
    pair_a: np.ndarray     # flat Jh positions (row * n_vars + col) of entry pairs
    pair_b: np.ndarray     # that share a row; their products condense Jh' diag(z/s) Jh


def internalize(problem: NlpProblem) -> InternalForm:
    n = problem.n_vars
    lb, ub = problem.lb, problem.ub

    free = np.flatnonzero(lb != ub)
    bnd = QuadBlock(n)
    for i in free:
        if np.isfinite(ub[i]):
            k = bnd.new_row(f"ub[x{i}]", const=-ub[i])
            bnd.lin(k, i, 1.0)
        if np.isfinite(lb[i]):
            k = bnd.new_row(f"lb[x{i}]", const=lb[i])
            bnd.lin(k, i, -1.0)
    bnd.seal()
    ineq = concat_blocks(n, [problem.ineq, bnd])

    dim = free.size + problem.eq.n_rows
    pos = np.full(n, -1)
    pos[free] = np.arange(free.size)

    def w_pos(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Flat (Fortran) KKT position of W[i, j]; a sink past the end if i or j is fixed."""
        return np.where((pos[i] >= 0) & (pos[j] >= 0), pos[i] + pos[j] * dim, dim * dim)

    nz = np.unique(ineq.jac_index)
    nz = nz[pos[nz % n] >= 0]
    a, b = np.nonzero((nz // n)[:, None] == (nz // n)[None, :])
    pair_a, pair_b = nz[a], nz[b]
    return InternalForm(
        n_vars=n,
        c=-problem.obj_coef,  # maximize -> minimize
        eq=problem.eq,
        ineq=ineq,
        free=free,
        w_index=np.concatenate([
            w_pos(problem.eq.qi, problem.eq.qj),
            w_pos(ineq.qi, ineq.qj),
            w_pos(pair_a % n, pair_b % n),
        ]),
        pair_a=pair_a,
        pair_b=pair_b,
    )


def _evaluate(form: InternalForm, x: np.ndarray, y: np.ndarray, z: np.ndarray, s: np.ndarray) -> Iterate:
    """The iterate (x, y, z, s); the only place the rows and Jacobians are evaluated."""
    return Iterate(
        x=x, y=y, z=z, s=s,
        g=form.eq.value(x), h=form.ineq.value(x),
        jg=form.eq.jacobian(x), jh=form.ineq.jacobian(x),
    )


def _theta(pt: Iterate) -> float:
    """Largest primal residual: equality rows and slacked inequality rows."""
    t = np.abs(pt.g).max() if pt.g.size else 0.0
    if pt.h.size:
        t = max(t, np.abs(pt.h + pt.s).max())
    return t


def _kkt_errors(form: InternalForm, pt: Iterate, *mus: float) -> list[float]:
    """KKT error at pt for each barrier parameter in mus: the largest dual,
    primal and complementarity residual."""
    r_d = (form.c + pt.jg.T @ pt.y + pt.jh.T @ pt.z)[form.free]
    feas = max(np.abs(r_d).max() if form.free.size else 0.0, _theta(pt))
    return [max(feas, np.abs(pt.s * pt.z - mu).max()) if pt.s.size else feas for mu in mus]


# ---------------------------------------------------------------------------
# KKT assembly and symmetric indefinite factorization
# ---------------------------------------------------------------------------

def kkt_assemble(form: InternalForm, pt: Iterate, mu: float) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Dense condensed KKT matrix (Fortran order), right-hand side, and expand.

    Layout: [W + Jh' diag(z/s) Jh, Jg'; Jg, 0] acting on (dx[free], dy);
    solve adds the regularizations dw*I and -dc*I to its diagonal.
    Constraint Hessians are constant, so W is a weighted sum over a fixed
    set of positions.  expand(step) maps a solution to (dx, dy, dz, ds).
    """
    if mu <= 0.0:
        raise ValueError("barrier parameter mu must be positive")
    n, nf, me = form.n_vars, form.free.size, form.eq.n_rows
    dim = nf + me
    y, z, s, h, jh = pt.y, pt.z, pt.s, pt.h, pt.jh
    sigma = z / s

    weights = np.concatenate([
        y[form.eq.qk] * form.eq.qv,
        z[form.ineq.qk] * form.ineq.qv,
        sigma[form.pair_a // n] * jh.take(form.pair_a) * jh.take(form.pair_b),
    ])
    kkt = np.bincount(form.w_index, weights=weights, minlength=dim * dim + 1)[:-1]
    # Fortran order hands LAPACK a plain copy instead of a transposed one.
    kkt = kkt.reshape(dim, dim, order="F")
    kkt[nf:, :nf] = pt.jg[:, form.free]
    kkt[:nf, nf:] = kkt[nf:, :nf].T
    grad = form.c + pt.jg.T @ y + jh.T @ (z + sigma * (h + mu / z))
    rhs = np.concatenate([-grad[form.free], -pt.g])

    def expand(step: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """dx is zero on fixed variables; the condensed inequality rows give
        dz = (z/s)(Jh dx + h + mu/z), and the complementarity rows give ds."""
        dx = np.zeros(n)
        dx[form.free] = step[:nf]
        dz = sigma * (jh @ dx + h + mu / z)
        return dx, step[nf:], dz, mu / z - s - (s / z) * dz

    return kkt, rhs, expand


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
    nf, me, mi = form.free.size, form.eq.n_rows, form.ineq.n_rows

    x = nlp_mod.initial_point(problem) if x0 is None else x0.astype(float).copy()
    # Fixed variables start on their pins; the step never moves them.
    x[problem.lb == problem.ub] = problem.lb[problem.lb == problem.ub]
    # The duals start from this first evaluation; zeros hold their places.
    pt = _evaluate(form, x, np.zeros(me), np.zeros(mi), np.zeros(mi))
    s = np.maximum(-pt.h, 1e-2)
    z = np.minimum(np.maximum(MU_INIT / s, 1e-8), 1e8)
    # Least-squares multiplier estimate for the equalities; a poor guess here
    # costs many early iterations on feasibility-dominated steps.
    y = np.zeros(me)
    if me:
        rhs0 = -(form.c + pt.jh.T @ z)[form.free]
        y_ls, *_ = np.linalg.lstsq(pt.jg[:, form.free].T, rhs0, rcond=None)
        if np.abs(y_ls).max() <= 1e3:
            y = y_ls
    pt = replace(pt, y=y, z=z, s=s)

    mu = MU_INIT
    delta_last = 0.0
    degenerate = 0  # consecutive iterations whose unregularized matrix had zero pivots
    factorizations = 0
    trace: list[dict] = []
    status = "iteration_limit"
    small_steps = 0
    it = 0

    while it < opts.max_iter:
        err, err_mu = _kkt_errors(form, pt, 0.0, mu)
        if err <= opts.tol_kkt:
            status = "optimal"
            break
        # Monotone Fiacco-McCormick barrier reduction, gated on the inner
        # problem being solved to within a multiple of the current mu; the
        # target blends the fixed shrink with the measured complementarity.
        if mi and mu > opts.tol_kkt / 100.0 and err_mu <= 10.0 * mu:
            compl = float(pt.s @ pt.z) / mi
            mu = max(
                opts.tol_kkt / 100.0,
                min(MU_SHRINK * mu, max(0.1 * compl, mu**1.5)),
            )

        kkt, rhs, expand = kkt_assemble(form, pt, mu)
        # sytrf leaves its input intact, so a retry rewrites the diagonal from
        # the saved one rather than copying the whole dense matrix; the
        # regularizations only grow, so every entry it sets is rewritten.
        diag = np.arange(nf + me)
        base_diag = kkt[diag, diag]
        delta_c_first = np.sqrt(np.finfo(float).eps) * max(mu, 1e-6)
        delta_w, delta_c = 0.0, 0.0
        if degenerate >= DEGENERATE_ITERATIONS:
            # Start where the failed unregularized attempt would have left off.
            delta_w, delta_c = max(REGULARIZATION_MIN, delta_last / 3.0), delta_c_first
        iter_factorizations = 0
        factorize_s = 0.0
        for _ in range(60):
            if delta_w > 0.0:
                kkt[diag[:nf], diag[:nf]] = base_diag[:nf] + delta_w
            if delta_c > 0.0:
                kkt[diag[nf:], diag[nf:]] = base_diag[nf:] - delta_c
            t0 = time.perf_counter()
            solve_fn, inertia = _ldlt(kkt)
            factorize_s += time.perf_counter() - t0
            iter_factorizations += 1
            if delta_w == 0.0 and delta_c == 0.0:
                degenerate = degenerate + 1 if inertia[2] > 0 else 0
            if inertia[0] == nf and inertia[2] == 0:
                break
            if inertia[2] > 0:
                delta_c = 10.0 * delta_c if delta_c > 0.0 else delta_c_first
            if delta_w == 0.0:
                delta_w = max(REGULARIZATION_MIN, delta_last / 3.0)
            else:
                delta_w *= 10.0
            if delta_w > 1e12:
                raise KktSingularError(
                    f"KKT inertia {inertia} not correctable at regularization {delta_w:g}"
                )
        delta_last = delta_w
        factorizations += iter_factorizations

        dx, dy, dz, ds = expand(solve_fn(rhs))

        # Fraction-to-boundary limits keep s and z strictly positive.
        alpha = 1.0
        neg = ds < 0.0
        if np.any(neg):
            alpha = min(1.0, float(np.min(-STEP_FRACTION * pt.s[neg] / ds[neg])))
        alpha_z = 1.0
        neg = dz < 0.0
        if np.any(neg):
            alpha_z = min(1.0, float(np.min(-STEP_FRACTION * pt.z[neg] / dz[neg])))

        # No merit line search: the fraction-to-boundary step is taken as is,
        # with a divergence guard that halves the step while the infeasibility
        # grows out of proportion.  Each probe is evaluated once, and an
        # accepted one becomes the next iterate.
        guard = max(10.0 * _theta(pt), 1e-2)
        cand = None
        for _ in range(30):
            probe = _evaluate(form, pt.x + alpha * dx, pt.y, pt.z, pt.s + alpha * ds)
            val = _theta(probe)
            if np.isfinite(val) and val <= guard:
                cand = probe
                break
            alpha *= 0.5

        if cand is not None and alpha >= 1e-11:
            small_steps = 0
            z = np.maximum(pt.z + alpha_z * dz, 1e-16)
            # Upper dual safeguard: degenerate active sets have unbounded
            # multipliers, which would blow up the Lagrangian Hessian.
            z = np.minimum(z, np.maximum(1e10 * mu / cand.s, 1e4))
            pt = replace(cand, y=pt.y + alpha * dy, z=z)
        else:
            small_steps += 1
            delta_last = max(delta_last, 1e-4)
        it += 1

        if small_steps >= 3:
            status = "infeasible_local" if _theta(pt) > 1e-6 else "iteration_limit"
            break
        # Diverging multipliers with persistent constraint violation is the
        # interior-point certificate of local infeasibility.
        dual_norm = max(np.abs(pt.y).max() if me else 0.0, np.abs(pt.z).max() if mi else 0.0)
        if dual_norm > 1e8 and _theta(pt) > 1e-6:
            status = "infeasible_local"
            break

        if opts.trace:
            trace.append({
                "iter": it, "mu": mu, "objective": float(-form.c @ pt.x),
                "kkt_error": _kkt_errors(form, pt, 0.0)[0], "theta": _theta(pt), "alpha": alpha,
                "delta_w": delta_w, "delta_c": delta_c,
                "factorizations": iter_factorizations, "factorize_s": factorize_s,
            })

    if status == "optimal" and np.any(pt.h > opts.tol_kkt):
        status = "iteration_limit"

    return Solution(
        x=pt.x,
        objective=float(problem.obj_coef @ pt.x),
        status=status,
        iterations=it,
        max_kkt_residual=_kkt_errors(form, pt, 0.0)[0],
        ineq_active=pt.h[: problem.ineq.n_rows] > -1e-6,
        factorizations=factorizations,
        trace=tuple(trace),
    )
