"""Primal-dual interior-point solver for the quadratic-constraint programs.

Slack-based formulation: minimize f(x) subject to g(x) = 0 and h(x) + s = 0
with s > 0, following the central path with a monotonically reduced barrier
parameter.  Steps come from a symmetric indefinite KKT system factorized by
LDL' with inertia-driven regularization, and are damped only by the
fraction-to-boundary rule plus a divergence guard; on this problem class
(quadratic rows, per-unit scaling) that plain damped-Newton scheme converges
faster and more reliably than a merit line search.

Fixed variables (equal bounds) stay out of the step.  Each finite bound of
a free variable is a linear inequality row sign * x[var] + const <= 0, with
one +-1 entry, after the user inequality rows, as MATPOWER's MIPS treats
variable bounds; so its z/s lands on its variable's diagonal.  The
inequality rows are condensed into the Hessian, so the dense KKT matrix has
a row per free variable and equality row: [W + Jh' diag(z/s) Jh + dw*I,
Jg'; Jg, -dc*I], as in MIPS.

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

An inequality row on D is condensed while its z/s is at most
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

The periods and starts of a stage are one lockstep batch (solve_batch): B
instances of one InternalForm that differ only in their start x0, whose
fixed entries carry each period's pins.  Every array of an Iterate has one
row per instance, and each instance keeps its own barrier parameter,
regularization ladder, step lengths, divergence guard, counters, trace and
stopping test; an instance that stops leaves the batch.  So only the Python
overhead of an iteration is shared.  Each operation treats an instance as
it would treat it alone: one BLAS call of the same shape per instance, and
sums in a fixed order, so an instance's iterates do not depend on the batch
it is solved in, and solve() is the batch of one.  The Jacobians are held
as values on their rows' fixed patterns and the Hessian as values on its
fixed pattern, never as dense stacks.  H_DD is block diagonal: the limit
rows on D are |u|^2 of a bus and phase, |i|^2 of a branch and phase and a
bus's VUF, so internalize takes its blocks from the components of its
pattern (30 blocks of 2 and 10 of 6 on feeder_hr in scenario 5).
kkt_assemble builds the reduced matrices of the whole batch at once, with
one gemm per instance and block for H_DD T, and _ldlt factors them one by
one and reads the inertia of all of them in one pass.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

from . import nlp as nlp_mod
from .nlp import NlpProblem, QuadBlock, batched_bincount

MU_INIT = 0.1
MU_SHRINK = 0.2
STEP_FRACTION = 0.995
REGULARIZATION_MIN = 1e-10
# An inequality row on the linear rows' columns D whose z/s exceeds this
# stays in the factored matrix instead of being condensed (see kkt_assemble).
SIGMA_CONDENSED_MAX = 1e6


class KktSingularError(RuntimeError):
    """Never raised: an instance whose KKT system stays singular ends with
    the status singular.  It stays importable, as the TreeIndex imports of
    nlp and oracle stay for the tracer, because the benchmark's
    perfbench/workloads.py:116 names it in an except clause."""


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
    """The points of a batch, one row per instance, with the rows and
    Jacobians evaluated at x."""

    x: np.ndarray
    y: np.ndarray   # equality multipliers
    z: np.ndarray   # inequality multipliers, one per row of form.ineq, > 0
    s: np.ndarray   # inequality slacks, > 0
    g: np.ndarray   # equality rows at x
    h: np.ndarray   # inequality rows at x
    jg: np.ndarray  # equality Jacobian at x, its values on form.eq's pattern
    jh: np.ndarray  # inequality Jacobian at x, its values on form.ineq's pattern

    def take(self, rows: np.ndarray) -> Iterate:
        """The instances `rows` (indices or a mask) of the batch."""
        return Iterate(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    objective: float  # maximization sense, matching the problem statement
    status: str       # optimal | infeasible_local | iteration_limit | singular
    iterations: int
    max_kkt_residual: float
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
    """Minimization form over the free variables, each finite bound of one
    an inequality row.

    The pattern of the Hessian terms in the kept block depends only on the
    row structure and the free set, so it is built once here, as are the
    private blocks and the basis of the linear rows that the KKT system
    eliminates.  The kept variables come in three runs: the free lin_vars
    D, then the variables that the linear rows couple to them (C), then the
    rest.
    """

    n_vars: int
    c: np.ndarray          # minimize c . x
    eq: QuadBlock          # user equality rows
    ineq: QuadBlock        # user inequality rows, then the bound rows: each free variable's
                           # finite upper bound x - ub <= 0, then its finite lower bound lb - x <= 0
    free: np.ndarray       # variables with lb != ub; the step moves only these
    keep: np.ndarray       # free variables that are not in a block: D, then C, then the rest
    keep_pos: np.ndarray   # each variable's position in keep, or -1
    lin_rows: np.ndarray   # the linear rows L, as many as D
    lin_inv: np.ndarray    # inverse of A_d = Jg[L, D]
    basis: np.ndarray      # T = -A_d^-1 Jg[L, C]; the steps that keep L are (T dr_C, dr)
    basis_gram: np.ndarray  # T' T
    eq_keep: np.ndarray    # equality rows left in the reduced system: neither in L nor in a block
    ineq_on_d: np.ndarray  # inequality rows with an entry on D
    row_src: np.ndarray    # entries of eq's Jacobian pattern on the rows eq_keep, then the blocks'
    row_dst: np.ndarray    # rows r, and on keep; their flat positions in those rows on keep
    w_slot: np.ndarray     # Hessian slot of each eq, ineq and condensed term: the kept
    hess_row: np.ndarray   # block's pattern (hess_row, hess_col, positions in keep), then each
    hess_col: np.ndarray   # block's dense H, then a sink for terms across groups, then a zero
    n_hess: int            # slot that no term reaches; n_hess slots in all
    dd_blocks: tuple       # H_DD's diagonal blocks, one (rows, slots, half_t) per size s: rows
                           # (nb, s), their Hessian slots (nb, s, s), the zero slot off the
                           # pattern, and T/2 on the rows (nb, s, nc)
    block_row: np.ndarray  # the blocks' rows r, one shape after the other
    pair_a: np.ndarray     # entries of ineq's Jacobian pattern in pairs that share a row;
    pair_b: np.ndarray     # their products condense Jh' diag(z/s) Jh
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
    # inequality rows (n+me..) joined by these entries.
    a = np.concatenate([v_in[in_s], iv[touch[ik]]])
    b = np.concatenate([n + k_in[in_s], n + me + ik[touch[ik]]])
    size = n + me + ineq.n_rows
    label = _components(size, a, b)
    ok = np.zeros(size, dtype=bool)
    ok[label[:n][cand]] = True
    ok[label[:n][~cand]] = False
    # Each qualifying component has one boundary row r, which touches no
    # other one; a component that meets none takes its last S row as r.
    t_row, t_comp = np.divmod(_unique(k_in[~in_s] * size + label[v_in[~in_s]]), size)
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
    comp = _unique(label[var])
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


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node's component in the graph of the nodes 0..size-1 and the
    edges (a, b), labelled by its lowest node: the minimum is propagated
    along the edges, halving the paths."""
    label = np.arange(size)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a: np.unique without its flags, which
    would load numpy.ma (numpy 2.4's _unique1d asks np.ma.is_masked)."""
    a = np.sort(a, axis=None)
    return a[np.concatenate([[True], a[1:] != a[:-1]])] if a.size else a


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
    # Each free variable's finite upper bound x - ub <= 0, then its finite lower bound lb - x <= 0.
    const = np.column_stack([-ub[free], lb[free]]).ravel()
    finite = np.isfinite(const)
    sign = np.tile([1.0, -1.0], free.size)
    ineq = problem.ineq.with_linear_rows(np.repeat(free, 2)[finite], sign[finite], const[finite])

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
    keep_pos = np.full(n, -1)
    keep_pos[keep] = np.arange(nk)
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

    on_d = (group == 0) & (slot < d.size)
    ineq_on_d = np.zeros(ineq.n_rows, dtype=bool)
    ineq_on_d[ineq.qk[on_d[ineq.qi] | on_d[ineq.qj]]] = True
    ineq_on_d[ineq.lk[on_d[ineq.li]]] = True
    nz = np.flatnonzero(group[ineq.jac_col] >= 0)
    a, b = np.nonzero(ineq.jac_row[nz][:, None] == ineq.jac_row[nz][None, :])
    pair_a, pair_b = nz[a], nz[b]
    terms = np.concatenate([
        w_pos(eq.qi, eq.qj),
        w_pos(ineq.qi, ineq.qj),
        w_pos(ineq.jac_col[pair_a], ineq.jac_col[pair_b]),
    ])
    # Only the kept block's pattern is stored; the blocks' H, the sink and
    # the zero slot follow it as laid out above.
    pattern = _unique(terms[terms < nk * nk])
    in_kept = terms < nk * nk
    w_slot = np.where(in_kept, np.searchsorted(pattern, terms), pattern.size + terms - nk * nk)
    n_hess = pattern.size + end - nk * nk + 2
    hess_row, hess_col = np.divmod(pattern, nk)
    # H_DD's diagonal blocks: the components of its pattern, grouped by size,
    # each a dense block whose entries off the pattern take the zero slot.
    nd = d.size
    dd = np.flatnonzero((hess_row < nd) & (hess_col < nd))
    label = _components(nd, hess_row[dd], hess_col[dd])
    node = _unique(hess_row[dd])
    size = np.bincount(label[node], minlength=nd)[label[node]]
    dd_slot = np.full((nd, nd), n_hess - 1)
    dd_slot[hess_row[dd], hess_col[dd]] = dd
    dd_blocks = []
    for s in _unique(size).tolist():
        rows = node[size == s]
        rows = rows[np.argsort(label[rows], kind="stable")].reshape(-1, s)
        dd_blocks.append((rows, dd_slot[rows[:, :, None], rows[:, None, :]], 0.5 * basis[rows]))

    # eq's Jacobian entries on the rows eq_keep, then the blocks' rows r, and on keep.
    row_pos = np.full(me, -1)
    row_pos[np.concatenate([eq_keep, block_row])] = np.arange(eq_keep.size + block_row.size)
    dst_r, dst_c = row_pos[eq.jac_row], keep_pos[eq.jac_col]
    row_src = np.flatnonzero((dst_r >= 0) & (dst_c >= 0))
    return InternalForm(
        n_vars=n,
        c=-problem.obj_coef,  # maximize -> minimize
        eq=eq,
        ineq=ineq,
        free=free,
        keep=keep,
        keep_pos=keep_pos,
        lin_rows=lin_rows,
        lin_inv=lin_inv,
        basis=basis,
        basis_gram=basis.T @ basis,
        eq_keep=eq_keep,
        ineq_on_d=ineq_on_d,
        row_src=row_src,
        row_dst=dst_r[row_src] * nk + dst_c[row_src],
        w_slot=w_slot,
        hess_row=hess_row,
        hess_col=hess_col,
        n_hess=n_hess,
        dd_blocks=tuple(dd_blocks),
        block_row=block_row,
        pair_a=pair_a,
        pair_b=pair_b,
        blocks=blocks,
    )


def _evaluate(form: InternalForm, x: np.ndarray, y: np.ndarray, z: np.ndarray, s: np.ndarray) -> Iterate:
    """The iterates (x, y, z, s) of a batch, one row per instance (a single
    point is a batch of one); the only place the rows and Jacobians are
    evaluated."""
    x, y, z, s = (np.atleast_2d(a) for a in (x, y, z, s))
    return Iterate(
        x=x, y=y, z=z, s=s,
        g=form.eq.value(x),
        h=form.ineq.value(x),
        jg=form.eq.jacobian_values(x), jh=form.ineq.jacobian_values(x),
    )


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v per instance, v (B, k) and a (m, k) or (B, m, k): one matrix-vector product each."""
    return np.matmul(a, v[..., None])[..., 0]


def _jt(block: QuadBlock, jac: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J' v per instance, J being block's Jacobian with the values jac."""
    return batched_bincount(block.jac_col, jac * v[:, block.jac_row], block.n_vars)


def _theta(pt: Iterate) -> np.ndarray:
    """Largest primal residual per instance: equality rows and slacked inequality rows."""
    return np.maximum(np.abs(pt.g).max(axis=1, initial=0.0), np.abs(pt.h + pt.s).max(axis=1, initial=0.0))


def _kkt_errors(form: InternalForm, pt: Iterate, *mus) -> list[np.ndarray]:
    """KKT error per instance at pt for each barrier parameter in mus (a
    number or one per instance): the largest dual, primal and
    complementarity residual."""
    r_d = (form.c + _jt(form.eq, pt.jg, pt.y) + _jt(form.ineq, pt.jh, pt.z))[:, form.free]
    feas = np.maximum(np.abs(r_d).max(axis=1, initial=0.0), _theta(pt))
    return [np.maximum(feas, np.abs(pt.s * pt.z - np.reshape(mu, (-1, 1))).max(axis=1, initial=0.0)) for mu in mus]


# ---------------------------------------------------------------------------
# KKT assembly and symmetric indefinite factorization
# ---------------------------------------------------------------------------

def kkt_assemble(form: InternalForm, pt: Iterate, mu) -> tuple[np.ndarray, np.ndarray, Callable, Callable]:
    """Dense reduced KKT matrices of a batch, unregularized, as (kkt, dims,
    step, regularize); mu is a number or one per instance (see the module
    docstring).

    kkt is (dim, dim, B) in Fortran order: instance b's matrix is
    kkt[:d, :d, b] with d = dims[b], dim the largest; its split rows make
    the difference.  The kept block H is W + Jh' diag(z/s) Jh on the kept
    variables without the split rows, so a bound row adds its z/s to its
    variable's diagonal; constraint Hessians are constant, so H is a
    weighted sum over fixed positions, and so is each private block's H.
    Each block adds w j_r' j_r to H, w = -(B^-1)_rr (_block_solver), and
    shifts the right-hand side.  With the linear rows L solved by x_p =
    A_d^-1 r_L on D, the reduced matrix [[Z'HZ, Z'Jq'], [Jq Z, -diag(dc,
    s/z)]] acts on (dr, dy_q), where Jq holds the remaining equality rows
    and then the split rows, whose dz come last in dy_q.  T is nonzero only
    on C, so Z'HZ = H_RR + X + X' with X = T'(H_DR + H_DD T / 2) on the rows
    of C, formed once per iteration (H_DD T / 2 one diagonal block of H_DD
    at a time, a gemm per instance and block, batched per block size); a
    retry adds dw*(I + T'T), T'T being constant, and the block terms w v' v
    with v = j_r Z.

    step(solve_fn), given a function that solves every instance's matrix
    for a (B, dim) right-hand side, returns (dx, dy, dz, ds), one row per
    instance.  regularize(dw, dc, which) rewrites the matrices of the
    instances `which` (all by default) in place from the same
    unregularized projection, so each matrix depends on its iterate and
    (dw, dc) alone, and step then solves at the new regularization; dw and
    dc are numbers or one per instance.
    """
    n_b = pt.x.shape[0]
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (n_b,))
    if not np.all(mu > 0.0):
        raise ValueError("barrier parameter mu must be positive")
    n, mi, keep, t, ineq = form.n_vars, form.ineq.n_rows, form.keep, form.basis, form.ineq
    nd, nc = t.shape
    nk = keep.size
    nr = nk - nd
    nq = form.eq_keep.size
    y, z, s, h, jg, jh = pt.y, pt.z, pt.s, pt.h, pt.jg, pt.jh
    sigma = z / s
    # The inequality rows on D whose z/s is large stay rows (split rows); the
    # others are condensed.  Each split row's place in its matrix follows
    # its instance's remaining equality rows.
    sb, sr = np.nonzero(form.ineq_on_d & (sigma > SIGMA_CONDENSED_MAX))
    n_split = np.bincount(sb, minlength=n_b)
    place = nr + nq + np.arange(sb.size) - np.repeat(np.cumsum(n_split) - n_split, n_split)
    sigma_c = sigma.copy()
    sigma_c[sb, sr] = 0.0
    dims = nr + nq + n_split
    dim = nr + nq + n_split.max(initial=0)

    weights = np.concatenate([
        y[:, form.eq.qk] * form.eq.qv,
        z[:, ineq.qk] * ineq.qv,
        sigma_c[:, ineq.jac_row[form.pair_a]] * jh[:, form.pair_a] * jh[:, form.pair_b],
    ], axis=1)
    hess = batched_bincount(form.w_slot, weights, form.n_hess)
    del weights
    n_pat = form.hess_row.size
    h_row, h_col = form.hess_row, form.hess_col
    dr = np.flatnonzero((h_row < nd) & (h_col >= nd))
    rr = np.flatnonzero((h_row >= nd) & (h_col >= nd))

    # The remaining equality rows (Jq) and the blocks' rows r (Jp) on the
    # kept variables: their entries, for the products with them, and their
    # products with Z, through the dense rows; then the split rows.
    n_blk = form.block_row.size
    e_row, e_col = np.divmod(form.row_dst, nk)
    e_val = jg[:, form.row_src]
    on_q = e_row < nq
    q_row, q_col, q_val = e_row[on_q], e_col[on_q], e_val[:, on_q]
    p_row, p_col, p_val = e_row[~on_q] - nq, e_col[~on_q], e_val[:, ~on_q]
    q_d = q_col < nd

    def jp_times(dx_k: np.ndarray) -> np.ndarray:
        return batched_bincount(p_row, p_val * dx_k[:, p_col], n_blk)

    def jp_t(u: np.ndarray) -> np.ndarray:
        return batched_bincount(p_col, p_val * u[:, p_row], nk)

    rows = np.zeros((n_b, (nq + n_blk) * nk))
    rows[:, form.row_dst] = e_val
    rows = rows.reshape(n_b, nq + n_blk, nk)
    rows_z = rows[:, :, nd:].copy()
    rows_z[:, :, :nc] += rows[:, :, :nd] @ t
    del rows
    v = rows_z[:, nq:]
    split_rows = np.zeros((sb.size, nk))
    if sb.size:
        split_id = np.full((n_b, mi), -1)
        split_id[sb, sr] = np.arange(sb.size)
        eb, ee = np.nonzero(split_id[:, ineq.jac_row] >= 0)
        col = form.keep_pos[ineq.jac_col[ee]]
        on = col >= 0
        split_rows[split_id[eb[on], ineq.jac_row[ee[on]]], col[on]] = jh[eb[on], ee[on]]
    split_z = split_rows[:, nd:].copy()
    split_z[:, :nc] += (split_rows[:, None, :nd] @ t)[:, 0]

    x = np.zeros((n_b, nd * nr))
    x[:, h_row[dr] * nr + h_col[dr] - nd] = hess[:, dr]
    x = x.reshape(n_b, nd, nr)
    # H_DD T / 2 added to X's columns of C: one gemm per instance and block.
    for rows, slots, half_t in form.dd_blocks:
        x[:, rows, :nc] += hess[:, slots] @ half_t
    x = t.T @ x
    base = np.zeros((n_b, nr * nr))
    base[:, (h_row[rr] - nd) * nr + h_col[rr] - nd] = hess[:, rr]
    base = base.reshape(n_b, nr, nr)
    base[:, :nc] += x
    base[:, :, :nc] += x.transpose(0, 2, 1)
    # Fortran order hands LAPACK a plain copy of each matrix; kv[b] is instance b's.
    kkt = np.zeros((dim, dim, n_b), order="F")
    kv = kkt.transpose(2, 0, 1)
    kv[:, nr : nr + nq, :nr] = rows_z[:, :nq]
    kv[:, :nr, nr : nr + nq] = rows_z[:, :nq].transpose(0, 2, 1)
    kv[sb, place, :nr] = split_z
    kv[sb, :nr, place] = split_z
    kv[sb, place, place] = -s[sb, sr] / z[sb, sr]
    diag_r, diag_q = np.arange(nr), np.arange(nr, nr + nq)

    grad = form.c + _jt(form.eq, jg, y) + _jt(ineq, jh, z + sigma_c * (h + mu[:, None] / z))
    r_x, r_y = -grad, -pt.g
    r_k, b_l = r_x[:, keep], r_y[:, form.lin_rows]
    b_q = r_y[:, form.eq_keep]
    b_s = -(h[sb, sr] + mu[sb] / z[sb, sr])
    r_r = r_y[:, form.block_row]
    # Per block shape: its H, its rows among the blocks' rows r, and the
    # right-hand sides of V and S.
    shapes, end, at = [], n_pat, 0
    for blk in form.blocks:
        nb, nv = blk.var.shape
        hb = hess[:, end : end + nb * nv * nv].reshape(n_b, nb, nv, nv)
        shapes.append((blk, hb, slice(at, at + nb), r_x[:, blk.var], r_y[:, blk.srow]))
        end, at = end + nb * nv * nv, at + nb
    reg_w = np.zeros(n_b)
    reg_c = np.zeros(n_b)

    def regularize(delta_w, delta_c, which=None) -> None:
        # All instances as a basic slice: their arrays are then views, not copies.
        which = slice(None) if which is None else np.asarray(which)
        reg_w[which] = np.broadcast_to(delta_w, (n_b,))[which]
        reg_c[which] = np.broadcast_to(delta_c, (n_b,))[which]
        dw, dc = reg_w[which], reg_c[which]
        w_b = [_block_solver(blk, hb[which], dw, dc)[0] for blk, hb, *_ in shapes]
        w = np.concatenate([np.zeros((dw.size, 0)), *w_b], axis=1)
        v_w = v[which]
        block = (v_w.transpose(0, 2, 1) * w[:, None, :]) @ v_w
        block += base[which]
        if dw.any():  # adding zero would change no entry
            block[:, :nc, :nc] += dw[:, None, None] * form.basis_gram
            block[:, diag_r, diag_r] += dw[:, None]
        kv[which, :nr, :nr] = block
        kv[np.arange(n_b)[which, None], diag_q, diag_q] = -dc[:, None]

    def step(solve_fn: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """dx_k = x_p + Z dr on the kept variables, x_p = A_d^-1 r_L on D,
        with (dr, dy_q) from the reduced solve and A_d' dy_L = (b_x - H dx_k
        - Jq' dy_q)[D]; dy_q holds the split rows' dz after the remaining
        equality rows.  dx is zero on fixed variables; each block's B gives
        dV, dy_S and dy_r, the condensed inequality rows dz = (z/s)(Jh dx +
        h + mu/z), and the complementarity rows ds."""
        solvers = [_block_solver(blk, hb, reg_w, reg_c) for blk, hb, *_ in shapes]
        w = np.concatenate([np.zeros((n_b, 0)), *(w_b for w_b, _ in solvers)], axis=1)

        def h_times(dx_k: np.ndarray) -> np.ndarray:
            """(H + dw*I + block terms) dx_k on the kept variables."""
            h_dx = batched_bincount(h_row, hess[:, :n_pat] * dx_k[:, h_col], nk)
            return h_dx + reg_w[:, None] * dx_k + jp_t(w * jp_times(dx_k))

        u_r = [solve_b(r_v, r_s, r_r[:, rows])[2] for (_, _, rows, r_v, r_s), (_, solve_b) in zip(shapes, solvers)]
        b_x = r_k - jp_t(np.concatenate([np.zeros((n_b, 0)), *u_r], axis=1))
        dx_k = np.zeros((n_b, nk))
        dx_k[:, :nd] = _mv(form.lin_inv, b_l)
        b = b_x - h_times(dx_k)
        b[:, nd : nd + nc] += _mv(t.T, b[:, :nd])
        rhs = np.zeros((n_b, dim))
        rhs[:, :nr] = b[:, nd:]
        rhs[:, nr : nr + nq] = b_q - batched_bincount(q_row, q_val * dx_k[:, q_col], nq)
        rhs[sb, place] = b_s - np.matmul(split_rows[:, None, :], dx_k[sb, :, None])[:, 0, 0]
        sol = solve_fn(rhs)
        dx_k[:, :nd] += _mv(t, sol[:, :nc])
        dx_k[:, nd:] = sol[:, :nr]
        dy_q, dz_split = sol[:, nr : nr + nq], sol[sb, place]
        u = (b_x - h_times(dx_k))[:, :nd] - batched_bincount(q_col[q_d], q_val[:, q_d] * dy_q[:, q_row[q_d]], nd)
        np.subtract.at(u, sb, split_rows[:, :nd] * dz_split[:, None])
        dx = np.zeros((n_b, n))
        dx[:, keep] = dx_k
        dy = np.empty_like(r_y)
        dy[:, form.lin_rows] = _mv(form.lin_inv.T, u)
        dy[:, form.eq_keep] = dy_q
        t_r = r_r - jp_times(dx_k)
        for (blk, _, rows, r_v, r_s), (_, solve_b) in zip(shapes, solvers):
            dx[:, blk.var], dy[:, blk.srow], dy[:, blk.row] = solve_b(r_v, r_s, t_r[:, rows])
        jh_dx = batched_bincount(ineq.jac_row, jh * dx[:, ineq.jac_col], mi)
        dz = sigma * (jh_dx + h + mu[:, None] / z)
        dz[sb, sr] = dz_split
        return dx, dy, dz, mu[:, None] / z - s - (s / z) * dz

    regularize(0.0, 0.0)
    return kkt, dims, step, regularize


def _block_solver(
    blk: Blocks, hess: np.ndarray, delta_w: np.ndarray, delta_c: np.ndarray
) -> tuple[np.ndarray, Callable]:
    """(w, solve) for blocks of one shape, hess (B, nb, nv, nv) their H in
    each instance and (dw, dc) each instance's regularization.

    Per block, w = -(B^-1)_rr and solve(r_v, r_s, r_r) returns (dV, dy_S,
    dy_r) = B^-1 (r_v, r_s, r_r).  A pair's B = [[h, c], [c, -dc]] is solved
    in closed form, w = h / (c^2 + h*dc), in a few vector operations; larger
    blocks by one batched inverse per shape.
    """
    nv = blk.var.shape[1]
    ns = blk.srow.shape[1]
    dw, dc = delta_w[:, None], delta_c[:, None]
    if nv == 1 and ns == 0:
        h = hess[:, :, 0, 0] + dw
        c = blk.coef[:, 0, 0]
        det = c * c + h * dc  # minus the determinant of each pair's block

        def solve_pair(r_v, r_s, r_r):
            r_v = r_v[:, :, 0]
            return ((dc * r_v + c * r_r) / det)[:, :, None], r_s, (c * r_v - h * r_r) / det

        return h / det, solve_pair
    m = nv + ns + 1
    mat = np.zeros((*hess.shape[:2], m, m))
    mat[:, :, :nv, :nv] = hess
    mat[:, :, range(nv), range(nv)] += dw[:, :, None]
    mat[:, :, nv:, :nv] = blk.coef
    mat[:, :, :nv, nv:] = blk.coef.transpose(0, 2, 1)
    mat[:, :, range(nv, m), range(nv, m)] = -dc[:, :, None]
    inv = np.linalg.inv(mat)

    def solve(r_v, r_s, r_r):
        sol = _mv(inv, np.concatenate([r_v, r_s, r_r[:, :, None]], axis=2))
        return sol[..., :nv], sol[..., nv:-1], sol[..., -1]

    return -inv[:, :, -1, -1], solve


def _scipy_folder() -> Path:
    """scipy's package folder, found without running scipy/__init__.py,
    which would load 23 more modules (subprocess among them): about 1.3 MB
    and 8 ms."""
    from importlib import util

    spec = util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed: the solver needs its LAPACK extension")
    return Path(spec.origin).parent


def _load_scipy_file(name: str, path: Path) -> ModuleType:
    """scipy's module `name` run from its file alone, outside its package."""
    from importlib import util

    spec = util.spec_from_file_location(f"scipy.{name}", path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def scipy_version() -> str:
    """The installed scipy's version string, read from scipy/version.py."""
    return _load_scipy_file("version", _scipy_folder() / "version.py").version


@functools.cache
def _lapack() -> ModuleType:
    """scipy's compiled LAPACK extension, scipy/linalg/_flapack, loaded alone.

    The solver calls only its dsytrf, dsytrs and dgelsy; importing the
    scipy.linalg package for them would load about 330 more modules, which
    cost about 160 ms and 21 MB.  The extension is loaded by path, so not
    even scipy/__init__.py runs.  It is loaded on the first factorization,
    so importing the package or running only the power-flow oracle loads no
    LAPACK.  A later import of scipy.linalg reuses this extension.
    """
    from importlib import machinery

    folder = _scipy_folder() / "linalg"
    for suffix in machinery.EXTENSION_SUFFIXES:
        if (path := folder / f"_flapack{suffix}").is_file():
            return _load_scipy_file("linalg._flapack", path)
    raise ImportError(f"scipy {scipy_version()} has no LAPACK extension _flapack in {folder}")


@functools.cache
def _sytrf_lwork(n: int) -> int:
    return int(_lapack().dsytrf_lwork(n, lower=1)[0])


def _ldlt(mats: Sequence[np.ndarray]) -> tuple[list, np.ndarray]:
    """Bunch-Kaufman LDL' of each symmetric matrix, from its lower triangle;
    returns (factors, inertia), factors[k] for _ldlt_solve and inertia[k] =
    (pos, neg, zero) of mats[k].

    Uses LAPACK sytrf directly, once per matrix, and reads the inertia of
    all of them in one pass.  2x2 pivots of the Bunch-Kaufman factorization
    are always indefinite (one eigenvalue of each sign), so the inertia
    falls out of the pivot structure without eigenvalue work.  The zero
    threshold is absolute: barrier diagonals legitimately reach 1e10 and
    beyond, so a relative threshold would misclassify small but healthy
    curvature pivots.
    """
    sytrf = _lapack().dsytrf
    tiny = 1e-12
    sizes = np.array([a.shape[0] for a in mats], dtype=np.intp)
    # Row k holds matrix k's pivots, padded with 1x1 pivots of zero, which
    # count as neither sign; a 2x2 pivot on rows i and i + 1 of matrix k is
    # [[d[k, i], sub[k, i + 1]], [sub[k, i + 1], d[k, i + 1]]].
    d, sub = np.zeros((2, sizes.size, sizes.max(initial=0) + 1))
    two = np.zeros((sizes.size, d.shape[1] - 1), dtype=bool)
    factors = []
    for k, a in enumerate(mats):
        ldu, ipiv, info = sytrf(a, lower=1, lwork=_sytrf_lwork(a.shape[0]))
        if info < 0:
            raise ValueError(f"sytrf illegal argument {-info}")
        factors.append((ldu, ipiv))
        d[k, : ipiv.size], sub[k, 1 : ipiv.size] = ldu.diagonal(), ldu.diagonal(-1)
        two[k, : ipiv.size] = ipiv < 0
    # A 2x2 pivot marks both of its rows with a negative ipiv and every
    # matrix holds an even number of them, so a matrix's blocks start at
    # every other negative entry of its rows.
    start = two & (np.cumsum(two, axis=1) % 2 == 1)
    a, b, c = d[:, :-1], sub[:, 1:], d[:, 1:]
    singular = np.abs(a * c - b * b) <= tiny * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(c))
    # A regular 2x2 pivot has one eigenvalue of each sign; a singular one
    # counts one zero, and its trace signs the other eigenvalue.
    tr = a + c
    regular = (start & ~singular).sum(axis=1)
    pos = (~two & (a > tiny)).sum(axis=1) + regular + (start & singular & (tr > tiny)).sum(axis=1)
    neg = (~two & (a < -tiny)).sum(axis=1) + regular + (start & singular & (tr < -tiny)).sum(axis=1)
    return factors, np.column_stack([pos, neg, sizes - pos - neg])


def _ldlt_solve(factor: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """The solution of a matrix that _ldlt factored, for one right-hand side."""
    ldu, ipiv = factor
    if not ipiv.size:  # sytrs rejects an empty system
        return rhs.copy()
    out, info = _lapack().dsytrs(ldu, ipiv, rhs, lower=1)
    if info != 0:
        raise ValueError(f"sytrs failed with info {info}")
    return out


def _max_step(v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Per instance, the fraction-to-boundary step: the largest alpha <= 1
    with v + alpha dv >= (1 - STEP_FRACTION) v."""
    neg = dv < 0.0
    ratio = np.where(neg, -STEP_FRACTION * v / np.where(neg, dv, -1.0), np.inf)
    return np.minimum(1.0, ratio.min(axis=1, initial=np.inf))


def _newton_step(form: InternalForm, pt: Iterate, mu: np.ndarray, delta_last: np.ndarray) -> tuple:
    """The regularized Newton step of every instance of pt at its barrier
    parameter mu: (dx, dy, dz, ds, dw, dc, factorizations, factorize_s,
    singular), one row or entry per instance.

    Each instance first tries dw = dc = 0 and climbs its own regularization
    ladder, from delta_last (its last iteration's dw), while its inertia is
    wrong; the matrices are freed on return.  An instance whose dw passes
    1e12 stops climbing and is marked singular, and its step is not solved.
    """
    n_a = pt.x.shape[0]
    n_reduced = form.keep.size - form.lin_rows.size
    delta_c_first = np.sqrt(np.finfo(float).eps) * np.maximum(mu, 1e-6)
    delta_w, delta_c = np.zeros(n_a), np.zeros(n_a)
    # sytrf leaves its input intact, so a retry rewrites only the entries
    # that depend on the regularization rather than the whole matrix, and
    # only of the instances whose inertia is still wrong.
    kkt, dims, step, regularize = kkt_assemble(form, pt, mu)
    factors: dict = {}
    iter_factorizations = np.zeros(n_a, dtype=int)
    factorize_s = np.zeros(n_a)
    singular = np.zeros(n_a, dtype=bool)
    pending = np.arange(n_a)
    for _ in range(60):
        t0 = time.perf_counter()
        got, inertia = _ldlt([kkt[: dims[k], : dims[k], k] for k in pending])
        # Each instance's trace gets its share of the lockstep factorization time.
        factorize_s[pending] += (time.perf_counter() - t0) / pending.size
        factors.update(zip(pending.tolist(), got))
        del got
        iter_factorizations[pending] += 1
        wrong = (inertia[:, 0] != n_reduced) | (inertia[:, 2] != 0)
        if not wrong.any():
            break
        pending, inertia = pending[wrong], inertia[wrong]
        # The retried instances' factors are dropped before they are factored again.
        factors.update(dict.fromkeys(pending.tolist()))
        dc, dw = delta_c[pending], delta_w[pending]
        delta_c[pending] = np.where(inertia[:, 2] > 0, np.where(dc > 0.0, 10.0 * dc, delta_c_first[pending]), dc)
        delta_w[pending] = np.where(dw == 0.0, np.maximum(REGULARIZATION_MIN, delta_last[pending] / 3.0), 10.0 * dw)
        singular[pending] = delta_w[pending] > 1e12
        pending = pending[~singular[pending]]
        if not pending.size:
            break
        regularize(delta_w, delta_c, pending)

    del kkt, regularize  # the factors are all the step needs

    def solve_fn(rhs: np.ndarray) -> np.ndarray:
        sol = np.zeros_like(rhs)
        for k in np.flatnonzero(~singular):
            sol[k, : dims[k]] = _ldlt_solve(factors[k], rhs[k, : dims[k]])
        return sol

    return (*step(solve_fn), delta_w, delta_c, iter_factorizations, factorize_s, singular)


def _take_step(
    form: InternalForm, pt: Iterate, mu: np.ndarray, dx: np.ndarray, dy: np.ndarray, dz: np.ndarray, ds: np.ndarray
) -> tuple[Iterate, np.ndarray, np.ndarray]:
    """The next iterate of every instance of pt, whether it moved, and its
    step length alpha.

    Fraction-to-boundary limits keep s and z strictly positive.  No merit
    line search: the fraction-to-boundary step is taken as is, with a
    divergence guard that halves the step while the infeasibility grows out
    of proportion.  Each probe is evaluated once, and an accepted one
    becomes the next iterate; an instance whose guard accepts no step of at
    least 1e-11 stays where it is.
    """
    alpha = _max_step(pt.s, ds)
    alpha_z = _max_step(pt.z, dz)
    guard = np.maximum(10.0 * _theta(pt), 1e-2)
    accepted = np.zeros(alpha.size, dtype=bool)
    cand = {name: getattr(pt, name).copy() for name in ("x", "s", "g", "h", "jg", "jh")}
    probing = np.arange(alpha.size)
    for _ in range(30):
        a_p = alpha[probing, None]
        probe = _evaluate(
            form, pt.x[probing] + a_p * dx[probing], pt.y[probing], pt.z[probing], pt.s[probing] + a_p * ds[probing]
        )
        val = _theta(probe)
        ok = np.isfinite(val) & (val <= guard[probing])
        for name, rows in cand.items():
            rows[probing[ok]] = getattr(probe, name)[ok]
        accepted[probing[ok]] = True
        probing = probing[~ok]
        alpha[probing] *= 0.5
        if not probing.size:
            break

    took = accepted & (alpha >= 1e-11)
    z = np.maximum(pt.z + alpha_z[:, None] * dz, 1e-16)
    # Upper dual safeguard: degenerate active sets have unbounded
    # multipliers, which would blow up the Lagrangian Hessian.
    z = np.minimum(z, np.maximum(1e10 * mu[:, None] / cand["s"], 1e4))
    new = dict(cand, y=pt.y + alpha[:, None] * dy, z=z)
    moved = Iterate(**{f.name: np.where(took[:, None], new[f.name], getattr(pt, f.name)) for f in fields(Iterate)})
    return moved, took, alpha


# ---------------------------------------------------------------------------
# Main iteration
# ---------------------------------------------------------------------------

def solve(problem: NlpProblem, options: SolverOptions | None = None) -> Solution:
    """Drive the interior-point iteration to a first-order KKT point:
    solve_batch's batch of one from the flat start.

    Deterministic: identical problems and options reproduce the iteration
    history bit for bit.  Nonconvexity means the result is a KKT point, not
    a certified global optimum.
    """
    return solve_batch(internalize(problem), nlp_mod.initial_point(problem)[None], options)[0]


def solve_batch(form: InternalForm, x0: np.ndarray, options: SolverOptions | None = None) -> tuple[Solution, ...]:
    """Drive B instances of form to first-order KKT points in lockstep.

    x0 is (B, n_vars), each instance's start with its fixed entries on its
    pins: the instances are the programs of one stage, which differ only in
    their pins, at their starts.  Each instance iterates exactly as it
    would alone, and leaves the batch when it stops; the Solutions come in
    the order of x0.  An instance stops as optimal; as iteration_limit at
    max_iter, or when stuck (three steps in a row not taken) at a feasible
    point; as infeasible_local when stuck at an infeasible one or on the
    certificate of local infeasibility; or as singular when its KKT
    inertia is still wrong as its dw passes 1e12.  Each Solution holds the
    instance's last iterate, and no instance's failure ends another.
    """
    opts = options or SolverOptions()
    x = np.array(x0, dtype=float, ndmin=2)
    n_b = x.shape[0]
    me, mi = form.eq.n_rows, form.ineq.n_rows

    # The duals start from this first evaluation; zeros hold their places.
    pt = _evaluate(form, x, np.zeros((n_b, me)), np.zeros((n_b, mi)), np.zeros((n_b, mi)))
    s = np.maximum(-pt.h, 1e-2)
    z = np.minimum(np.maximum(MU_INIT / s, 1e-8), 1e8)
    # Least-squares multiplier estimate for the equalities; a poor guess here
    # costs many early iterations on feasibility-dominated steps.
    y = np.zeros((n_b, me))
    if me:
        rhs0 = -(form.c + _jt(form.ineq, pt.jh, z))[:, form.free]
        jg = np.zeros((me, form.n_vars))
        # Jg[:, free] has full row rank on every bundled feeder, so the QR-based
        # gelsy gives the same unique solution as an SVD, faster.  It is called
        # as lstsq(..., lapack_driver="gelsy") calls it, one workspace query a batch.
        eps = np.finfo(float).eps
        gelsy, lwork = _lapack().dgelsy, int(_lapack().dgelsy_lwork(form.free.size, me, 1, eps)[0])
        for k in range(n_b):
            jg[form.eq.jac_row, form.eq.jac_col] = pt.jg[k]
            a, b = np.asarray_chkfinite(jg[:, form.free].T), np.asarray_chkfinite(rhs0[k])
            y_ls = gelsy(a, b, np.zeros(me, dtype=np.int32), eps, lwork, False, False)[1][:me]
            if np.abs(y_ls).max() <= 1e3:
                y[k] = y_ls
        del jg, a, b
    pt = replace(pt, y=y, z=z, s=s)

    # Per instance of the batch; pt holds the rows of the instances `ids`
    # that still iterate, all at iteration `it`.
    ids = np.arange(n_b)
    mu = np.full(n_b, MU_INIT)
    delta_last = np.zeros(n_b)
    small_steps = np.zeros(n_b, dtype=int)
    factorizations = np.zeros(n_b, dtype=int)
    # Per instance, what its trace reads of its last step.
    alpha, delta_w, delta_c, factorize_s, theta = np.zeros((5, n_b))
    step_factorizations = np.zeros(n_b, dtype=int)
    traces: list[list[dict]] = [[] for _ in range(n_b)]
    out: list[Solution | None] = [None] * n_b
    it = 0

    def leave(rows: np.ndarray, status) -> None:
        """End the active instances `rows` (a mask) at their current iterate
        with `status` (one, or one per active instance): record their
        Solutions and drop them from the batch."""
        nonlocal pt, ids
        if not rows.any():
            return
        ended = pt.take(rows)
        errors = _kkt_errors(form, ended, 0.0)[0]
        for k, (i, st) in enumerate(zip(ids[rows], np.broadcast_to(status, rows.shape)[rows])):
            out[i] = Solution(
                x=ended.x[k],
                objective=float(-form.c @ ended.x[k]),
                status=str(st),
                iterations=it,
                max_kkt_residual=float(errors[k]),
                factorizations=int(factorizations[i]),
                trace=tuple(traces[i]),
            )
        pt, ids = pt.take(~rows), ids[~rows]

    while ids.size:
        if it >= opts.max_iter:
            leave(np.ones(ids.size, dtype=bool), "iteration_limit")
            break
        err, err_mu = _kkt_errors(form, pt, 0.0, mu[ids])
        # Monotone Fiacco-McCormick barrier reduction, gated on the inner
        # problem being solved to within a multiple of the current mu; the
        # target blends the fixed shrink with the measured complementarity.
        if mi:
            m_u = mu[ids]
            compl = np.matmul(pt.s[:, None, :], pt.z[:, :, None])[:, 0, 0] / mi
            shrink = (m_u > opts.tol_kkt / 100.0) & (err_mu <= 10.0 * m_u)
            target = np.maximum(opts.tol_kkt / 100.0, np.minimum(MU_SHRINK * m_u, np.maximum(0.1 * compl, m_u**1.5)))
            mu[ids] = np.where(shrink, target, m_u)
        leave(err <= opts.tol_kkt, "optimal")
        if not ids.size:
            break

        dx, dy, dz, ds, *last, singular = _newton_step(form, pt, mu[ids], delta_last[ids])
        delta_w[ids], delta_c[ids], step_factorizations[ids], factorize_s[ids] = last
        delta_last[ids] = delta_w[ids]
        factorizations[ids] += step_factorizations[ids]
        if singular.any():
            leave(singular, "singular")
            if not ids.size:
                break
            dx, dy, dz, ds = (v[~singular] for v in (dx, dy, dz, ds))

        pt, took, alpha[ids] = _take_step(form, pt, mu[ids], dx, dy, dz, ds)
        small_steps[ids] = np.where(took, 0, small_steps[ids] + 1)
        delta_last[ids] = np.where(took, delta_last[ids], np.maximum(delta_last[ids], 1e-4))
        it += 1

        theta[ids] = _theta(pt)
        stuck = small_steps[ids] >= 3
        # Diverging multipliers with persistent constraint violation is the
        # interior-point certificate of local infeasibility.
        dual_norm = np.maximum(np.abs(pt.y).max(axis=1, initial=0.0), np.abs(pt.z).max(axis=1, initial=0.0))
        infeasible = (dual_norm > 1e8) & (theta[ids] > 1e-6)
        leave(stuck | infeasible, np.where(stuck & (theta[ids] <= 1e-6), "iteration_limit", "infeasible_local"))

        if opts.trace and ids.size:
            objective = np.matmul(pt.x[:, None, :], -form.c)[:, 0]
            kkt_error = _kkt_errors(form, pt, 0.0)[0]
            for k, i in enumerate(ids):
                traces[i].append({
                    "iter": it, "mu": float(mu[i]), "objective": float(objective[k]),
                    "kkt_error": float(kkt_error[k]), "theta": float(theta[i]), "alpha": float(alpha[i]),
                    "delta_w": float(delta_w[i]), "delta_c": float(delta_c[i]),
                    "factorizations": int(step_factorizations[i]), "factorize_s": float(factorize_s[i]),
                })

    return tuple(out)
