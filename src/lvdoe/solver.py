"""Primal-dual interior-point solver for the quadratic-constraint programs.

Slack-based formulation: minimize f(x) subject to g(x) = 0 and h(x) + s = 0
with s > 0, following the central path with a monotonically reduced barrier
parameter.  Steps come from a symmetric indefinite KKT system factorized by
LDL' with inertia-driven regularization, and are damped only by the
fraction-to-boundary rule plus a divergence guard; on this problem class
(quadratic rows, per-unit scaling) that plain damped-Newton scheme converges
faster and more reliably than a merit line search.

Fixed variables (equal bounds) stay out of the step.  Each finite bound of
a free variable is a row sign * x[var] + const <= 0 after the user
inequality rows; its one +-1 entry stays out of the dense Jacobian and its
z/s lands on its variable's diagonal (Ipopt's bound terms, Waechter &
Biegler 2006, Sec. 3).  The inequality rows are condensed into the Hessian,
so the dense KKT matrix has a row per free variable and equality row:
[W + Jh' diag(z/s) Jh + dw*I, Jg'; Jg, -dc*I], as in MATPOWER's MIPS.

Private blocks leave that matrix too.  A block is a connected set V of
free variables outside lin_vars that enter every row only linearly, the
equality rows S whose entries all lie in V together with the user
inequality rows that touch V (which must touch only V), and exactly one
equality row r that has entries in V (coefficients c) and outside it.  V
meets the rest of the system only through r's outside entries j_r, so exact
elimination of the block matrix B = [[H + dw*I, A_S', c'], [A_S, -dc*I, 0],
[c, 0, -dc]], H being V's bound z/s and condensed local inequality rows,
adds w j_r' j_r with w = -(B^-1)_rr to the kept columns and shifts the
right-hand side; V's step and the multipliers of S, r and the local rows are
recovered from B after the reduced solve.  B holds inertia (|V|, |S| + 1,
0) for dw, dc >= 0 under the rule that private_blocks states, so the
reduced matrix keeps the full one's inertia test.  A block of one variable
and no S is a pair, and its B is solved in closed form: w = h / (c^2 +
h*dc).  Each injection's P and Q with its gen_p / gen_q row is a pair;
under the margin objective an injection's (qg, q+, q-, q_aux) with qsplit,
qaux_plus, qaux_minus and gen_q is a block of four.  On feeder_hr, whose 43
units feed 9 injections, this takes 354 -> 318 rows for active export and
381 -> 327 for a stage-2 margin program.

The network's linear rows leave it next, in the reduced-space manner of
Pacaud et al. 2022 (arXiv:2203.11875).  The voltage-drop and KCL rows L
are linear with constant coefficients, and on the free voltages and branch
currents D they form a square nonsingular block A_d, the same in every
period.  So internalize builds T = -A_d^-1 Jg[L, C] once, C being the
element currents that L couples to D; the steps that solve L are dx = x_p
+ Z dr with Z = [T; I], and the factored matrix is [[Z'HZ, Z'Jq'], [Jq Z,
-dc*I]] over the reduced variables and the remaining rows Jq (the loads'
power rows, and the generators' ones that no block took).  L takes no dc,
and it holds inertia (|L|, |L|, 0), so the factored matrix needs one
positive eigenvalue per reduced variable and no zero pivot.  On feeder_hr
this leaves 78 of the 318 rows, and 87 of the 327 of a stage-2 margin
program.

A user inequality row on D is condensed while its z/s is at most
SIGMA_CONDENSED_MAX.  Above that it stays a row of the factored matrix,
with its projected Jacobian and the diagonal -s/z, and adds one negative
eigenvalue: condensed, the projection would spread its weight (1e15 on an
active current limit at the end of a margin solve) over the reduced rows,
and the roundoff of eps times it would bury their smaller pivots.

Each point is evaluated once: an Iterate holds (x, y, z, s) with the rows and
Jacobians at x, and the stopping test, the KKT system, the divergence guard
and the trace all read it.  A guard probe that is accepted becomes the next
Iterate, as Ipopt caches its evaluations per point.

Each iteration first tries dw = dc = 0 and climbs a regularization ladder
while the inertia is wrong.  Units that share a bus and phase share one
injection, so the equality Jacobian keeps no structural null direction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg

from . import nlp as nlp_mod
from .nlp import NlpProblem, QuadBlock

MU_INIT = 0.1
MU_SHRINK = 0.2
STEP_FRACTION = 0.995
REGULARIZATION_MIN = 1e-10
# A user inequality row on the linear rows' columns D whose z/s exceeds this
# stays in the factored matrix instead of being condensed (see kkt_assemble).
SIGMA_CONDENSED_MAX = 1e6


class KktSingularError(RuntimeError):
    """KKT system stayed singular after exhausting the regularization budget."""


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-8
    max_iter: int = 300
    trace: bool = False

    def __post_init__(self) -> None:
        for name in ("tol_kkt", "max_iter"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class Iterate:
    """A point of the iteration, with the rows and Jacobians evaluated at x."""

    x: np.ndarray
    y: np.ndarray   # equality multipliers
    z: np.ndarray   # inequality multipliers (user rows, then bound rows), > 0
    s: np.ndarray   # inequality slacks, > 0
    g: np.ndarray   # equality rows at x
    h: np.ndarray   # inequality rows at x, user rows then bound rows
    jg: np.ndarray  # dense equality Jacobian at x
    jh: np.ndarray  # dense Jacobian of the user inequality rows at x


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
class Blocks:
    """Private blocks of one shape that the KKT system eliminates (see private_blocks)."""

    var: np.ndarray   # (nb, nv) each block's variables V ...
    srow: np.ndarray  # (nb, ns) ... the equality rows S inside it ...
    row: np.ndarray   # (nb,) ... the one equality row r it shares with the kept system ...
    coef: np.ndarray  # (nb, ns + 1, nv) ... and the constant coefficients of S's rows, then r's, on V


@dataclass(frozen=True)
class InternalForm:
    """Minimization form over the free variables, with their finite bounds.

    The positions that the Hessian terms take in the dense kept block depend
    only on the row structure and the free set, so they are built once here,
    as are the private blocks and the basis of the linear rows that the KKT
    system eliminates.  The kept variables come in three runs: the free
    lin_vars D, then the variables that the linear rows couple to them (C),
    then the rest.
    """

    n_vars: int
    c: np.ndarray          # minimize c . x
    eq: QuadBlock          # user equality rows
    ineq: QuadBlock        # user inequality rows
    bnd_var: np.ndarray    # bound rows bnd_sign * x[bnd_var] + bnd_const <= 0, which follow
    bnd_sign: np.ndarray   # the user rows in h, z and s: each free variable's finite upper
    bnd_const: np.ndarray  # bound (+1, -ub), then its finite lower bound (-1, lb)
    free: np.ndarray       # variables with lb != ub; the step moves only these
    keep: np.ndarray       # free variables that are not in a block: D, then C, then the rest
    lin_rows: np.ndarray   # the linear rows L, as many as D
    lin_inv: np.ndarray    # inverse of A_d = Jg[L, D]
    basis: np.ndarray      # T = -A_d^-1 Jg[L, C]; the steps that keep L are (T dr_C, dr)
    basis_gram: np.ndarray  # T' T
    eq_keep: np.ndarray    # equality rows left in the reduced system: neither in L nor in a block
    ineq_on_d: np.ndarray  # user inequality rows with an entry on D
    row_take: np.ndarray   # flat Jg positions of the rows eq_keep, then the blocks' rows r, on keep
    w_index: np.ndarray    # flat position of each eq, ineq, condensed Hessian and bound term:
    hess_size: int         # the kept block, then each block's H, up to hess_size; a sink there
    block_row: np.ndarray  # the blocks' rows r, one shape after the other
    pair_a: np.ndarray     # flat Jh positions (row * n_vars + col) of entry pairs
    pair_b: np.ndarray     # that share a row; their products condense Jh' diag(z/s) Jh
    blocks: tuple[Blocks, ...]


def private_blocks(problem: NlpProblem) -> tuple[Blocks, ...]:
    """The private blocks that the KKT system eliminates, one Blocks per shape.

    Candidates are the free variables outside lin_vars that have no
    quadratic entry and enter no linear row.  They are joined through the
    equality rows whose entries on free variables all lie among them (S) and
    through the user inequality rows that touch them; a component qualifies
    when no inequality row joins it to another variable and exactly one
    further equality row r touches it, and touches no other component.  A
    component that no further row touches takes its last S row as r, whose
    j_r is then zero.

    Qualification rule: V enters rows only linearly, so H is positive
    semidefinite, and every variable of V with a finite bound adds z/s > 0
    to it.  If the rows [A_S; c] have full row rank and their columns on
    V's unbounded variables are linearly independent (both tested by
    _independent), H is positive definite on their null space, so B has
    inertia (|V|, |S| + 1, 0) for every dw >= 0 and dc >= 0, and the
    reduced matrix keeps the inertia test of the full one.  Blocks that fail the rule stay in the KKT system.
    (Under the margin objective q+, q- and q_aux have finite bounds and
    qsplit ties qg to them.)  Blocks come ordered by r, their variables and
    rows in index order; the shapes by (|V|, |S|).
    """
    eq, ineq, n, me = problem.eq, problem.ineq, problem.n_vars, problem.eq.n_rows
    free = problem.lb != problem.ub
    lin_row = np.zeros(me, dtype=bool)
    lin_row[problem.lin_rows] = True
    cand = free.copy()
    cand[problem.lin_vars] = False
    cand[np.concatenate([eq.qi, ineq.qi, eq.li[lin_row[eq.lk]]])] = False

    # The equality rows' entries on free variables: an S row has them all on
    # candidates, a boundary row some.  No quadratic entry is on a candidate.
    ek, ev = np.concatenate([eq.lk, eq.qk]), np.concatenate([eq.li, eq.qi])
    ek, ev = ek[free[ev]], ev[free[ev]]
    inside = cand[ev]
    n_out = np.bincount(ek[~inside], minlength=me)
    k_in, v_in = ek[inside], ev[inside]
    in_s = n_out[k_in] == 0
    s_row = np.zeros(me, dtype=bool)
    s_row[k_in[in_s]] = True
    ik, iv = np.concatenate([ineq.lk, ineq.qk]), np.concatenate([ineq.li, ineq.qi])
    ik, iv = ik[free[iv]], iv[free[iv]]
    touch = np.zeros(ineq.n_rows, dtype=bool)
    touch[ik[cand[iv]]] = True

    # Components of the graph of variables (0..n-1), equality rows (n..) and
    # inequality rows (n+me..) joined by these entries, each labelled by its
    # lowest node: propagate the minimum along the edges, halving the paths.
    a = np.concatenate([v_in[in_s], iv[touch[ik]]])
    b = np.concatenate([n + k_in[in_s], n + me + ik[touch[ik]]])
    size = n + me + ineq.n_rows
    label = np.arange(size)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    ok = np.zeros(size, dtype=bool)
    ok[label[:n][cand]] = True
    ok[label[:n][~cand]] = False
    # Each qualifying component has one boundary row r, which touches no
    # other one; a component that meets none takes its last S row as r.
    t_row, t_comp = np.divmod(np.unique(k_in[~in_s] * size + label[v_in[~in_s]]), size)
    n_touch = np.bincount(t_comp, minlength=size)
    r_of = np.full(size, -1)
    r_of[t_comp] = t_row
    inner = np.flatnonzero(s_row)
    last = np.full(size, -1)
    np.maximum.at(last, label[n + inner], inner)
    r_of = np.where(n_touch == 0, last, r_of)
    ok &= (n_touch <= 1) & (r_of >= 0)
    ok[t_comp[np.bincount(t_row, minlength=me)[t_row] > 1]] = False
    s_row[r_of[ok]] = False

    var = np.flatnonzero(cand & ok[label[:n]])
    srow = np.flatnonzero(s_row & ok[label[n : n + me]])
    var = var[np.lexsort((var, r_of[label[var]]))]
    srow = srow[np.lexsort((srow, r_of[label[n + srow]]))]
    comp = np.unique(label[var])
    nv = np.bincount(label[var], minlength=size)[comp]
    ns = np.bincount(label[n + srow], minlength=size)[comp]

    groups = []
    for shape_v, shape_s in sorted(set(zip(nv.tolist(), ns.tolist()))):
        sel = comp[(nv == shape_v) & (ns == shape_s)]
        sel = sel[np.argsort(r_of[sel])]
        mine = np.zeros(size, dtype=bool)
        mine[sel] = True
        g_var = var[mine[label[var]]].reshape(sel.size, shape_v)
        g_srow = srow[mine[label[n + srow]]].reshape(sel.size, shape_s)
        g_row = r_of[sel]
        # Slot of each block variable and row: S's rows, then r.
        slot_v = np.full(n, -1)
        slot_v[g_var] = np.arange(sel.size)[:, None] * shape_v + np.arange(shape_v)
        slot_r = np.full(me, -1)
        slot_r[g_srow] = np.arange(sel.size)[:, None] * (shape_s + 1) + np.arange(shape_s)
        slot_r[g_row] = np.arange(sel.size) * (shape_s + 1) + shape_s
        k = (slot_v[eq.li] >= 0) & (slot_r[eq.lk] >= 0)
        flat = slot_r[eq.lk[k]] * shape_v + slot_v[eq.li[k]] % shape_v
        coef = np.bincount(flat, weights=eq.lv[k], minlength=sel.size * (shape_s + 1) * shape_v)
        coef = coef.astype(float, copy=False).reshape(sel.size, shape_s + 1, shape_v)
        # The qualification rule, block by block.
        unbounded = ~(np.isfinite(problem.lb[g_var]) | np.isfinite(problem.ub[g_var]))
        a_u = coef * unbounded[:, None, :]
        gram_cols = a_u.transpose(0, 2, 1) @ a_u
        gram_cols[:, range(shape_v), range(shape_v)] += ~unbounded
        good = _independent(coef @ coef.transpose(0, 2, 1)) & _independent(gram_cols)
        if good.any():
            groups.append(Blocks(var=g_var[good], srow=g_srow[good], row=g_row[good], coef=coef[good]))
    return tuple(groups)


def _independent(gram: np.ndarray) -> np.ndarray:
    """Whether the vectors of each stacked Gram matrix are linearly
    independent: its determinant is above 1e-10 of Hadamard's bound, the
    product of its diagonal."""
    return np.linalg.det(gram) > 1e-10 * np.diagonal(gram, axis1=1, axis2=2).prod(axis=1)


def internalize(problem: NlpProblem) -> InternalForm:
    """The solver's form of problem.  Raises ValueError unless the rows
    problem.lin_rows are linear and their block A_d on the free lin_vars is
    square and well conditioned."""
    n, me = problem.n_vars, problem.eq.n_rows
    lb, ub, eq = problem.lb, problem.ub, problem.eq

    free = np.flatnonzero(lb != ub)
    # Each free variable's upper bound x - ub <= 0, then its lower bound lb - x <= 0.
    bnd_const = np.column_stack([-ub[free], lb[free]]).ravel()
    finite = np.isfinite(bnd_const)
    bnd_var = np.repeat(free, 2)[finite]

    blocks = private_blocks(problem)
    in_kkt = np.zeros(n, dtype=bool)
    in_kkt[free] = True
    row_in_kkt = np.ones(me, dtype=bool)
    for blk in blocks:
        in_kkt[blk.var] = False
        row_in_kkt[blk.srow] = row_in_kkt[blk.row] = False

    # The linear rows over every variable, from their linear triplets.
    lin_rows = np.asarray(problem.lin_rows, dtype=np.intp)
    lin_of_row = np.full(me, -1)
    lin_of_row[lin_rows] = np.arange(lin_rows.size)
    sel = lin_of_row[eq.lk] >= 0
    a_lin = np.bincount(lin_of_row[eq.lk[sel]] * n + eq.li[sel], weights=eq.lv[sel], minlength=lin_rows.size * n)
    a_lin = a_lin.reshape(lin_rows.size, n).astype(float, copy=False)
    is_d = np.zeros(n, dtype=bool)
    is_d[problem.lin_vars] = True
    d = np.flatnonzero(in_kkt & is_d)
    rest = np.flatnonzero(in_kkt & ~is_d)
    coupled = np.any(a_lin[:, rest] != 0.0, axis=0)
    keep = np.concatenate([d, rest[coupled], rest[~coupled]])
    a_d = a_lin[:, d]
    try:
        lin_inv = np.linalg.inv(a_d) if a_d.shape[0] == a_d.shape[1] else None
    except np.linalg.LinAlgError:
        lin_inv = None
    # 16 on feeder_hr and 24 on feeder_au; a basis that lost half its digits is useless.
    if lin_inv is None or np.linalg.norm(a_d, 1) * np.linalg.norm(lin_inv, 1) > 1e8 or np.any(lin_of_row[eq.qk] >= 0):
        raise ValueError(
            f"the {lin_rows.size} linear rows do not determine the {d.size} free voltages and branch currents"
        )
    basis = -lin_inv @ a_lin[:, rest[coupled]]

    row_in_kkt[lin_rows] = False
    eq_keep = np.flatnonzero(row_in_kkt)
    block_row = np.concatenate([np.zeros(0, dtype=np.intp), *(blk.row for blk in blocks)])
    nk = keep.size
    # The Hessian's dense blocks in one flat array: the kept block (group 0),
    # then each private block's H.  H[i, j] of variables i and j in one group
    # lies at start[i] + width[i] * slot[i] + slot[j].
    group, start = np.full(n, -1), np.zeros(n, dtype=np.intp)
    width, slot = np.full(n, nk), np.zeros(n, dtype=np.intp)
    group[keep], slot[keep] = 0, np.arange(nk)
    end, n_groups = nk * nk, 1
    for blk in blocks:
        nb, nv = blk.var.shape
        group[blk.var] = n_groups + np.arange(nb)[:, None]
        start[blk.var] = end + nv * nv * np.arange(nb)[:, None]
        width[blk.var], slot[blk.var] = nv, np.arange(nv)
        end, n_groups = end + nb * nv * nv, n_groups + nb

    def w_pos(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Flat position of H[i, j]; a sink at `end` unless i and j share a group."""
        return np.where((group[i] >= 0) & (group[i] == group[j]), start[i] + width[i] * slot[i] + slot[j], end)

    ineq = problem.ineq
    on_d = (group == 0) & (slot < d.size)
    ineq_on_d = np.zeros(ineq.n_rows, dtype=bool)
    ineq_on_d[ineq.qk[on_d[ineq.qi] | on_d[ineq.qj]]] = True
    ineq_on_d[ineq.lk[on_d[ineq.li]]] = True
    nz = np.unique(problem.ineq.jac_index)
    nz = nz[group[nz % n] >= 0]
    a, b = np.nonzero((nz // n)[:, None] == (nz // n)[None, :])
    pair_a, pair_b = nz[a], nz[b]
    return InternalForm(
        n_vars=n,
        c=-problem.obj_coef,  # maximize -> minimize
        eq=eq,
        ineq=problem.ineq,
        bnd_var=bnd_var,
        bnd_sign=np.tile([1.0, -1.0], free.size)[finite],
        bnd_const=bnd_const[finite],
        free=free,
        keep=keep,
        lin_rows=lin_rows,
        lin_inv=lin_inv,
        basis=basis,
        basis_gram=basis.T @ basis,
        eq_keep=eq_keep,
        ineq_on_d=ineq_on_d,
        row_take=(np.concatenate([eq_keep, block_row])[:, None] * n + keep).ravel(),
        w_index=np.concatenate([
            w_pos(eq.qi, eq.qj),
            w_pos(problem.ineq.qi, problem.ineq.qj),
            w_pos(pair_a % n, pair_b % n),
            w_pos(bnd_var, bnd_var),
        ]),
        pair_a=pair_a,
        pair_b=pair_b,
        hess_size=end,
        block_row=block_row,
        blocks=blocks,
    )


def _evaluate(form: InternalForm, x: np.ndarray, y: np.ndarray, z: np.ndarray, s: np.ndarray) -> Iterate:
    """The iterate (x, y, z, s); the only place the rows and Jacobians are evaluated."""
    return Iterate(
        x=x, y=y, z=z, s=s,
        g=form.eq.value(x),
        h=np.concatenate([form.ineq.value(x), form.bnd_sign * x[form.bnd_var] + form.bnd_const]),
        jg=form.eq.jacobian(x), jh=form.ineq.jacobian(x),
    )


def _jh_t(form: InternalForm, jh: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jh' v over every inequality row: the dense user rows, then the bound rows."""
    m = form.ineq.n_rows
    return jh.T @ v[:m] + np.bincount(form.bnd_var, weights=form.bnd_sign * v[m:], minlength=form.n_vars)


def _theta(pt: Iterate) -> float:
    """Largest primal residual: equality rows and slacked inequality rows."""
    t = np.abs(pt.g).max() if pt.g.size else 0.0
    if pt.h.size:
        t = max(t, np.abs(pt.h + pt.s).max())
    return t


def _kkt_errors(form: InternalForm, pt: Iterate, *mus: float) -> list[float]:
    """KKT error at pt for each barrier parameter in mus: the largest dual,
    primal and complementarity residual."""
    r_d = (form.c + pt.jg.T @ pt.y + _jh_t(form, pt.jh, pt.z))[form.free]
    feas = max(np.abs(r_d).max() if form.free.size else 0.0, _theta(pt))
    return [max(feas, np.abs(pt.s * pt.z - mu).max()) if pt.s.size else feas for mu in mus]


# ---------------------------------------------------------------------------
# KKT assembly and symmetric indefinite factorization
# ---------------------------------------------------------------------------

def kkt_assemble(
    form: InternalForm, pt: Iterate, mu: float, delta_w: float = 0.0, delta_c: float = 0.0
) -> tuple[np.ndarray, Callable, Callable]:
    """Dense reduced KKT matrix (Fortran order) at regularization (dw, dc),
    its step function and its regularize function (see the module docstring).

    The kept block H is W + Jh' diag(z/s) Jh on the kept variables, a bound
    row condensing to its z/s on its variable's diagonal and a split row not
    at all; constraint Hessians are constant, so H is a weighted sum over
    fixed positions, and so is each private block's H.  Each block adds
    w j_r' j_r to H, w = -(B^-1)_rr (_block_solver), and shifts the
    right-hand side.  With the linear rows L solved by x_p = A_d^-1 r_L on
    D, the reduced matrix [[Z'HZ, Z'Jq'], [Jq Z, -diag(dc,
    s/z)]] acts on (dr, dy_q), where Jq holds the remaining equality rows
    and then the split rows, whose dz come last in dy_q.  T is nonzero only
    on C, so Z'HZ = H_RR + X + X' with X = T'(H_DR + H_DD T / 2) on the rows
    of C, formed once per iteration; a retry adds dw*(I + T'T), T'T being
    constant, and the block terms w v' v with v = j_r Z.

    step(solve_fn), given the solve of a factorization of the matrix,
    returns (dx, dy, dz, ds).  regularize(dw, dc) rewrites the matrix in
    place from the same unregularized projection, so the matrix depends on
    the iterate and (dw, dc) alone, and returns the new step.
    """
    if mu <= 0.0:
        raise ValueError("barrier parameter mu must be positive")
    n, mi, keep, t = form.n_vars, form.ineq.n_rows, form.keep, form.basis
    nd, nc = t.shape
    nk = keep.size
    nr = nk - nd
    y, z, s, h, jg, jh = pt.y, pt.z, pt.s, pt.h, pt.jg, pt.jh
    sigma = z / s
    # The user rows on D whose z/s is large stay rows; the others are condensed.
    split = np.flatnonzero(form.ineq_on_d & (sigma[:mi] > SIGMA_CONDENSED_MAX))
    sigma_c = sigma.copy()
    sigma_c[split] = 0.0
    nq = form.eq_keep.size
    nqa = nq + split.size
    dim = nr + nqa

    weights = np.concatenate([
        y[form.eq.qk] * form.eq.qv,
        z[form.ineq.qk] * form.ineq.qv,
        sigma_c[form.pair_a // n] * jh.take(form.pair_a) * jh.take(form.pair_b),
        sigma[mi:],
    ])
    # (bincount returns integers when there are no terms at all)
    flat = np.bincount(form.w_index, weights=weights, minlength=form.hess_size + 1).astype(float, copy=False)
    hess = flat[: nk * nk].reshape(nk, nk)

    # The remaining equality rows, the split rows and the blocks' rows r on
    # the kept variables, and their products with Z.
    rows = jg.take(form.row_take).reshape(nq + form.block_row.size, nk)
    if split.size:
        rows = np.concatenate([rows[:nq], jh[np.ix_(split, keep)], rows[nq:]])
    rows_z = rows[:, nd:].astype(float)
    rows_z[:, :nc] += rows[:, :nd] @ t
    jq, jp, v = rows[:nqa], rows[nqa:], rows_z[nqa:]
    x = hess[:nd, nd:].copy()
    x[:, :nc] += 0.5 * (hess[:nd, :nd] @ t)
    x = t.T @ x
    base = hess[nd:, nd:].copy()
    base[:nc] += x
    base[:, :nc] += x.T
    # Fortran order hands LAPACK a plain copy instead of a transposed one.
    kkt = np.zeros((dim, dim), order="F")
    kkt[nr:, :nr] = rows_z[:nqa]
    kkt[:nr, nr:] = rows_z[:nqa].T
    diag = np.arange(dim)
    diag_r, diag_q = diag[:nr], diag[nr : nr + nq]
    kkt[diag[nr + nq :], diag[nr + nq :]] = -s[split] / z[split]

    grad = form.c + jg.T @ y + _jh_t(form, jh, z + sigma_c * (h + mu / z))
    r_x, r_y = -grad, -pt.g
    r_k, b_l = r_x[keep], r_y[form.lin_rows]
    b_q = np.concatenate([r_y[form.eq_keep], -(h[split] + mu / z[split])])
    r_r = r_y[form.block_row]
    # Per block shape: its H, its rows among the blocks' rows r, and the
    # right-hand sides of V and S.
    shapes, end, at = [], nk * nk, 0
    for blk in form.blocks:
        nb, nv = blk.var.shape
        hb = flat[end : end + nb * nv * nv].reshape(nb, nv, nv)
        shapes.append((blk, hb, slice(at, at + nb), r_x[blk.var], r_y[blk.srow]))
        end, at = end + nb * nv * nv, at + nb

    def regularize(delta_w: float, delta_c: float) -> Callable:
        solvers = [_block_solver(blk, hb, delta_w, delta_c) for blk, hb, _, _, _ in shapes]
        w = np.concatenate([np.zeros(0), *(w_b for w_b, _ in solvers)])
        block_terms = (v.T * w) @ v
        block = kkt[:nr, :nr]
        np.add(base, block_terms, out=block)
        block[:nc, :nc] += delta_w * form.basis_gram
        kkt[diag_r, diag_r] += delta_w
        kkt[diag_q, diag_q] = -delta_c

        def h_times(dx_k: np.ndarray) -> np.ndarray:
            """(H + dw*I + block terms) dx_k on the kept variables."""
            return hess @ dx_k + delta_w * dx_k + jp.T @ (w * (jp @ dx_k))

        def step(solve_fn: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
            """dx_k = x_p + Z dr on the kept variables, x_p = A_d^-1 r_L on
            D, with (dr, dy_q) from the reduced solve and A_d' dy_L = (b_x -
            H dx_k - Jq' dy_q)[D]; dy_q holds the split rows' dz after the
            remaining equality rows.  dx is zero on fixed variables; each
            block's B gives dV, dy_S and dy_r, the condensed inequality rows
            dz = (z/s)(Jh dx + h + mu/z), and the complementarity rows ds."""
            u_r = [solve_b(r_v, r_s, r_r[rows])[2] for (_, _, rows, r_v, r_s), (_, solve_b) in zip(shapes, solvers)]
            b_x = r_k - jp.T @ np.concatenate([np.zeros(0), *u_r])
            dx_k = np.zeros(nk)
            dx_k[:nd] = form.lin_inv @ b_l
            b = b_x - h_times(dx_k)
            b[nd : nd + nc] += t.T @ b[:nd]
            sol = solve_fn(np.concatenate([b[nd:], b_q - jq @ dx_k]))
            dx_k[:nd] += t @ sol[:nc]
            dx_k[nd:] = sol[:nr]
            dy_q = sol[nr:]
            u = b_x - h_times(dx_k) - jq.T @ dy_q
            dx = np.zeros(n)
            dx[keep] = dx_k
            dy = np.empty(r_y.size)
            dy[form.lin_rows] = form.lin_inv.T @ u[:nd]
            dy[form.eq_keep] = dy_q[:nq]
            t_r = r_r - jp @ dx_k
            for (blk, _, rows, r_v, r_s), (_, solve_b) in zip(shapes, solvers):
                dx[blk.var], dy[blk.srow], dy[blk.row] = solve_b(r_v, r_s, t_r[rows])
            dz = sigma * (np.concatenate([jh @ dx, form.bnd_sign * dx[form.bnd_var]]) + h + mu / z)
            dz[split] = dy_q[nq:]
            return dx, dy, dz, mu / z - s - (s / z) * dz

        return step

    return kkt, regularize(delta_w, delta_c), regularize


def _block_solver(blk: Blocks, hess: np.ndarray, delta_w: float, delta_c: float) -> tuple[np.ndarray, Callable]:
    """(w, solve) for blocks of one shape with H = hess at (dw, dc).

    Per block, w = -(B^-1)_rr and solve(r_v, r_s, r_r) returns (dV, dy_S,
    dy_r) = B^-1 (r_v, r_s, r_r).  A pair's B = [[h, c], [c, -dc]] is solved
    in closed form, w = h / (c^2 + h*dc), in a few vector operations; larger
    blocks by one batched inverse per shape.
    """
    nb, nv = blk.var.shape
    ns = blk.srow.shape[1]
    if nv == 1 and ns == 0:
        h = hess[:, 0, 0] + delta_w
        c = blk.coef[:, 0, 0]
        det = c * c + h * delta_c  # minus the determinant of each pair's block

        def solve_pair(r_v, r_s, r_r):
            r_v = r_v[:, 0]
            return ((delta_c * r_v + c * r_r) / det)[:, None], r_s, (c * r_v - h * r_r) / det

        return h / det, solve_pair
    m = nv + ns + 1
    mat = np.zeros((nb, m, m))
    mat[:, :nv, :nv] = hess
    mat[:, range(nv), range(nv)] += delta_w
    mat[:, nv:, :nv] = blk.coef
    mat[:, :nv, nv:] = blk.coef.transpose(0, 2, 1)
    mat[:, range(nv, m), range(nv, m)] = -delta_c
    inv = np.linalg.inv(mat)

    def solve(r_v, r_s, r_r):
        sol = (inv @ np.concatenate([r_v, r_s, r_r[:, None]], axis=1)[:, :, None])[:, :, 0]
        return sol[:, :nv], sol[:, nv:-1], sol[:, -1]

    return -inv[:, -1, -1], solve


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
    form: InternalForm | None = None,
) -> Solution:
    """Drive the interior-point iteration to a first-order KKT point.

    Deterministic: identical problems and options reproduce the iteration
    history bit for bit.  Nonconvexity means the result is a KKT point, not
    a certified global optimum.  x0 overrides the flat-start initialization;
    form, internalize() of problem or of a program that differs from it only
    in its pins (another period of the stage), saves building it again.
    """
    opts = options or SolverOptions()
    if form is None:
        form = internalize(problem)
    me, mi = form.eq.n_rows, form.ineq.n_rows + form.bnd_var.size
    n_reduced = form.keep.size - form.lin_rows.size

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
        rhs0 = -(form.c + _jh_t(form, pt.jh, z))[form.free]
        # Jg[:, free] has full row rank on every bundled feeder, so the
        # QR-based gelsy gives the same unique solution as an SVD, faster.
        y_ls, *_ = scipy.linalg.lstsq(pt.jg[:, form.free].T, rhs0, lapack_driver="gelsy")
        if np.abs(y_ls).max() <= 1e3:
            y = y_ls
    pt = replace(pt, y=y, z=z, s=s)

    mu = MU_INIT
    delta_last = 0.0
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

        delta_c_first = np.sqrt(np.finfo(float).eps) * max(mu, 1e-6)
        delta_w, delta_c = 0.0, 0.0
        # sytrf leaves its input intact, so a retry rewrites only the entries
        # that depend on the regularization rather than the whole matrix.
        kkt, step, regularize = kkt_assemble(form, pt, mu)
        iter_factorizations = 0
        factorize_s = 0.0
        for _ in range(60):
            t0 = time.perf_counter()
            solve_fn, inertia = _ldlt(kkt)
            factorize_s += time.perf_counter() - t0
            iter_factorizations += 1
            if inertia[0] == n_reduced and inertia[2] == 0:
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
            step = regularize(delta_w, delta_c)
        delta_last = delta_w
        factorizations += iter_factorizations

        dx, dy, dz, ds = step(solve_fn)

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
