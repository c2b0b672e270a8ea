"""Scenario-dependent nonconvex program over rectangular voltages/currents.

Variables, equality physics, scenario-selected inequality limits and the
objective are assembled into a purely quadratic description: every row is
0.5 x'Ax + b'x + c with a constant A, so first derivatives are affine and
second derivatives never change between iterations.  The solver consumes
this structure directly.  Every row, bound, start and decode addresses x
through VarLayout, which cuts range(n_vars) into one index array per block.
Generation enters as one injection per (bus, phase); the units behind it
exist only in decode_generation and decode_state.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

# TreeIndex is unused here but stays importable: the benchmark's tracer counts its calls by this name.
from .netmodel import NetworkCase, PHASES, TreeIndex, slack_reference  # noqa: F401
from .phasecalc import LimitKind, PhasorState, _HALF_SQRT3


class Objective(str, Enum):
    ACTIVE_EXPORT = "active_export"
    REACTIVE_MARGIN = "reactive_margin"


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: int
    objective: Objective = Objective.ACTIVE_EXPORT

    def __post_init__(self) -> None:
        if self.scenario not in (1, 2, 3, 4, 5):
            raise ValueError(f"unknown scenario {self.scenario}")


_SCENARIO_LIMITS: dict[int, frozenset[LimitKind]] = {
    1: frozenset(),
    2: frozenset({LimitKind.VOLTAGE, LimitKind.VUF}),
    3: frozenset({LimitKind.VOLTAGE, LimitKind.CURRENT}),
    4: frozenset({LimitKind.CURRENT, LimitKind.VUF}),
    5: frozenset({LimitKind.VOLTAGE, LimitKind.CURRENT, LimitKind.VUF}),
}


def constraint_set_for(spec: ScenarioSpec) -> frozenset[LimitKind]:
    return _SCENARIO_LIMITS[spec.scenario]


# ---------------------------------------------------------------------------
# Quadratic row storage
# ---------------------------------------------------------------------------

class QuadBlock:
    """Rows of the form 0.5 x'A_k x + b_k'x + c_k with constant A_k.

    Quadratic coefficients are stored as (row, i, j, v) triplets of the full
    symmetric matrices, linear ones as (row, i, v) triplets.
    """

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.labels: list[str] = []
        self._qk: list[int] = []
        self._qi: list[int] = []
        self._qj: list[int] = []
        self._qv: list[float] = []
        self._lk: list[int] = []
        self._li: list[int] = []
        self._lv: list[float] = []
        self._c0: list[float] = []
        self._sealed = False

    # -- construction ------------------------------------------------------
    def new_row(self, label: str, const: float = 0.0) -> int:
        self.labels.append(label)
        self._c0.append(const)
        return len(self._c0) - 1

    def lin(self, k: int, i: int, v: float) -> None:
        self._lk.append(k)
        self._li.append(i)
        self._lv.append(v)

    def quad(self, k: int, i: int, j: int, coeff: float) -> None:
        """Add coeff * x_i * x_j to row k."""
        if i == j:
            self._qk.append(k)
            self._qi.append(i)
            self._qj.append(i)
            self._qv.append(2.0 * coeff)
        else:
            self._qk.extend((k, k))
            self._qi.extend((i, j))
            self._qj.extend((j, i))
            self._qv.extend((coeff, coeff))

    def sym_matrix(self, k: int, idx: np.ndarray, m: np.ndarray) -> None:
        """Add x[idx]' M x[idx] to row k (M symmetric)."""
        d = len(idx)
        for a in range(d):
            for b in range(d):
                if m[a, b] != 0.0:
                    self._qk.append(k)
                    self._qi.append(int(idx[a]))
                    self._qj.append(int(idx[b]))
                    self._qv.append(2.0 * m[a, b])

    def seal(self) -> None:
        self.qk = np.asarray(self._qk, dtype=np.intp)
        self.qi = np.asarray(self._qi, dtype=np.intp)
        self.qj = np.asarray(self._qj, dtype=np.intp)
        self.qv = np.asarray(self._qv, dtype=float)
        self.lk = np.asarray(self._lk, dtype=np.intp)
        self.li = np.asarray(self._li, dtype=np.intp)
        self.lv = np.asarray(self._lv, dtype=float)
        self.c0 = np.asarray(self._c0, dtype=float)
        # The Jacobian's pattern: the distinct flat positions (row * n_vars +
        # col) of its entries, one per linear triplet and one per quadratic
        # triplet, in row-major order; jac_slot is each triplet's entry.
        flat = np.concatenate([self.lk * self.n_vars + self.li, self.qk * self.n_vars + self.qi])
        pattern, self.jac_slot = np.unique(flat, return_inverse=True)
        self.jac_row, self.jac_col = np.divmod(pattern, self.n_vars)
        self._sealed = True

    def with_linear_rows(self, var: np.ndarray, coef: np.ndarray, const: np.ndarray) -> QuadBlock:
        """A sealed copy of these rows followed by one row coef[k] * x[var[k]] +
        const[k] per k, labelled ub[x<var>] where coef > 0 and lb[x<var>] elsewhere."""
        out = QuadBlock(self.n_vars)
        for name in ("_qk", "_qi", "_qj", "_qv", "_lk", "_li", "_lv", "_c0"):
            setattr(out, name, list(getattr(self, name)))
        out.labels = self.labels + [f"{'ub' if c > 0 else 'lb'}[x{i}]" for i, c in zip(var.tolist(), coef.tolist())]
        out._lk += range(self.n_rows, self.n_rows + len(var))
        out._li += var.tolist()
        out._lv += coef.tolist()
        out._c0 += const.tolist()
        out.seal()
        return out

    @property
    def n_rows(self) -> int:
        return len(self.c0) if self._sealed else len(self._c0)

    # -- evaluation --------------------------------------------------------
    # Each method takes one point x or a (B, n_vars) batch of points, and
    # evaluates every point of a batch exactly as it would evaluate it alone.
    def value(self, x: np.ndarray) -> np.ndarray:
        """The rows at x: (n_rows,), or (B, n_rows) for a batch."""
        xb = np.atleast_2d(x)
        out = np.repeat(self.c0[None], xb.shape[0], axis=0)
        if self.lk.size:
            out += batched_bincount(self.lk, self.lv * xb[:, self.li], self.n_rows)
        if self.qk.size:
            out += 0.5 * batched_bincount(self.qk, self.qv * xb[:, self.qi] * xb[:, self.qj], self.n_rows)
        return out if x.ndim == 2 else out[0]

    def jacobian_values(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian at x on its pattern (jac_row, jac_col): (nnz,), or (B, nnz) for a batch."""
        xb = np.atleast_2d(x)
        data = np.concatenate([np.broadcast_to(self.lv, (xb.shape[0], self.lv.size)), self.qv * xb[:, self.qj]], axis=1)
        out = batched_bincount(self.jac_slot, data, self.jac_row.size)
        return out if x.ndim == 2 else out[0]


def batched_bincount(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """np.bincount(index, weights[b], minlength=size) for each row b of the
    (B, len(index)) weights, as a (B, size) float array: each sum adds its
    terms in index order, as one bincount of that row would."""
    b = weights.shape[0]
    flat = (np.arange(b)[:, None] * size + index).ravel()
    # (bincount returns integers when there are no terms at all)
    return np.bincount(flat, weights=weights.ravel(), minlength=b * size).astype(float, copy=False).reshape(b, size)


# ---------------------------------------------------------------------------
# Variable layout
# ---------------------------------------------------------------------------

# Blocks of x in storage order; see VarLayout.
_BLOCKS = ("u_re", "u_im", "ib_re", "ib_im", "il_re", "il_im", "pl", "ql", "ig_re", "ig_im", "pg", "qg", "qplus", "qminus", "qaux")


@dataclass(frozen=True, eq=False)
class VarLayout:
    """The vector x as one partition of range(n_vars) into the _BLOCKS index arrays.

    u_re, u_im are (n_bus, 3) and ib_re, ib_im (n_branch, 3); il_*, pl, ql hold
    one position per load entry and ig_*, pg, qg one per injection.  An
    injection is a (bus, phase) that generator entries feed: its units see
    one voltage and their currents only add, so they share one current, P
    and Q.  qplus, qminus and qaux hold one position per injection of
    split_injections: with the reactive split, those whose units have a
    reactive rating at all; without it, none.  Each array indexes x
    directly: x[lay.pg], lb[lay.u_re[slack]].
    """

    load_entries: tuple[tuple[int, int], ...]  # (load, phase)
    gen_entries: tuple[tuple[int, int], ...]   # (generator, phase)
    injections: tuple[tuple[int, int], ...]    # (bus, phase), in order of their first generator entry
    gen_injection: np.ndarray                  # the injection of each generator entry
    split_injections: np.ndarray               # the injections that qplus, qminus and qaux belong to
    with_reactive_split: bool
    n_vars: int
    u_re: np.ndarray
    u_im: np.ndarray
    ib_re: np.ndarray
    ib_im: np.ndarray
    il_re: np.ndarray
    il_im: np.ndarray
    pl: np.ndarray
    ql: np.ndarray
    ig_re: np.ndarray
    ig_im: np.ndarray
    pg: np.ndarray
    qg: np.ndarray
    qplus: np.ndarray
    qminus: np.ndarray
    qaux: np.ndarray

    @classmethod
    def of(cls, case: NetworkCase, with_reactive_split: bool) -> VarLayout:
        loads, gens = tuple(case.load_entries()), tuple(case.gen_entries())
        first: dict[tuple[int, int], int] = {}
        for g, p in gens:
            first.setdefault((case.bus_pos[case.generators[g].bus], p), len(first))
        gen_injection = np.array([first[case.bus_pos[case.generators[g].bus], p] for g, p in gens], dtype=np.intp)
        q_abs_max = [case.generators[g].q_abs_max for g, _ in gens]
        rating = np.bincount(gen_injection, weights=q_abs_max, minlength=len(first))
        split = np.flatnonzero(rating > 0.0) if with_reactive_split else np.zeros(0, dtype=np.intp)
        shapes = [(len(case.buses), 3)] * 2 + [(len(case.branches), 3)] * 2 + [(len(loads),)] * 4
        shapes += [(len(first),)] * 4 + [(split.size,)] * 3
        blocks, end = {}, 0
        for name, shape in zip(_BLOCKS, shapes):
            start, end = end, end + math.prod(shape)
            blocks[name] = np.arange(start, end).reshape(shape)
        return cls(loads, gens, tuple(first), gen_injection, split, with_reactive_split, end, **blocks)


def _entry_arrays(entries: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """(element indices, phase indices) of (element, phase) entries."""
    return tuple(np.array(entries, dtype=np.intp).reshape(len(entries), 2).T)


@dataclass(frozen=True)
class NlpProblem:
    """One period's program: maximize obj_coef . x subject to eq = 0, ineq <= 0, lb <= x <= ub.

    The period enters only through the pins lb == ub (pin_period).  lin_rows are the
    voltage-drop and KCL rows of eq: linear, and as many as the free lin_vars
    (every u and i_branch column but the slack voltages), which they
    determine from the element currents.
    """

    case: NetworkCase
    period: int
    constraint_set: frozenset[LimitKind]
    layout: VarLayout
    eq: QuadBlock
    ineq: QuadBlock
    lb: np.ndarray
    ub: np.ndarray
    obj_coef: np.ndarray
    lin_rows: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.layout.n_vars

    @property
    def lin_vars(self) -> np.ndarray:
        """The u and i_branch columns."""
        lay = self.layout
        return np.concatenate([lay.u_re.ravel(), lay.u_im.ravel(), lay.ib_re.ravel(), lay.ib_im.ravel()])


def build_problem(case: NetworkCase, spec: ScenarioSpec, period: int, **kwargs) -> NlpProblem:
    """Assemble the program of one scenario (2 to 5) and one period.

    Each scenario selects its technical-limit subset.  Scenario 1, the
    static grid-code cap, is closed form (cli._run_scenario_1) and has no
    program: it raises ValueError.  Keyword options are forwarded to
    build_custom.
    """
    if spec.scenario == 1:
        raise ValueError("scenario 1 is closed form and has no program")
    return build_custom(case, constraint_set_for(spec), spec.objective, period, **kwargs)


def build_custom(
    case: NetworkCase,
    constraints: frozenset[LimitKind] | set[LimitKind],
    objective: Objective,
    period: int,
    *,
    fix_q_zero: bool = False,
    bound_q_by_rating: bool = False,
    fixed_p: np.ndarray | None = None,
) -> NlpProblem:
    """Assemble a program for an arbitrary technical-constraint subset.

    fixed_p, a dense (n_gen, 3) array in pu, pins each injection's P at its
    units' sum (used by the two-stage reactive-margin pipeline); fix_q_zero
    disables reactive support, and bound_q_by_rating boxes each injection's
    Q by its units' summed per-phase rating.  No run path sets fix_q_zero:
    it exists for criterion 3, which compares the Q = 0 program with
    oracle.doe_bisection, whose searches hold Q at 0.
    """
    if not case.in_per_unit:
        raise ValueError("case must be in per-unit")
    if not 0 <= period < case.horizon:
        raise ValueError(f"period {period} outside horizon {case.horizon}")
    objective = Objective(objective)
    constraints = frozenset(constraints)

    layout = VarLayout.of(case, with_reactive_split=(objective is Objective.REACTIVE_MARGIN))

    eq, lin_rows = _equality_block(case, layout)
    ineq = _inequality_block(case, layout, constraints)
    lb, ub = _bounds(
        case,
        layout,
        period,
        fix_q_zero=fix_q_zero,
        bound_q_by_rating=bound_q_by_rating,
        fixed_p=fixed_p,
    )

    obj = np.zeros(layout.n_vars)
    obj[layout.pg if objective is Objective.ACTIVE_EXPORT else layout.qaux] = 1.0

    return NlpProblem(
        case=case,
        period=period,
        constraint_set=constraints,
        layout=layout,
        eq=eq,
        ineq=ineq,
        lb=lb,
        ub=ub,
        obj_coef=obj,
        lin_rows=lin_rows,
    )


def _equality_block(case: NetworkCase, layout: VarLayout) -> tuple[QuadBlock, np.ndarray]:
    """The equality rows, and the indices of the voltage-drop and KCL rows among them."""
    eq = QuadBlock(layout.n_vars)

    # Branch voltage-drop laws, real and imaginary rows per phase.
    for l, br in enumerate(case.branches):
        i = case.bus_pos[br.from_bus]
        j = case.bus_pos[br.to_bus]
        for p in range(3):
            k = eq.new_row(f"vdrop_re[{br.id},{PHASES[p]}]")
            eq.lin(k, layout.u_re[j, p], 1.0)
            eq.lin(k, layout.u_re[i, p], -1.0)
            for q in range(3):
                if br.r[p, q] != 0.0:
                    eq.lin(k, layout.ib_re[l, q], br.r[p, q])
                if br.x[p, q] != 0.0:
                    eq.lin(k, layout.ib_im[l, q], -br.x[p, q])
        for p in range(3):
            k = eq.new_row(f"vdrop_im[{br.id},{PHASES[p]}]")
            eq.lin(k, layout.u_im[j, p], 1.0)
            eq.lin(k, layout.u_im[i, p], -1.0)
            for q in range(3):
                if br.r[p, q] != 0.0:
                    eq.lin(k, layout.ib_im[l, q], br.r[p, q])
                if br.x[p, q] != 0.0:
                    eq.lin(k, layout.ib_re[l, q], br.x[p, q])

    n_vdrop = eq.n_rows

    # Power definition of each load phase (P, Q are variables pinned by bounds).
    for e, (d, p) in enumerate(layout.load_entries):
        ld = case.loads[d]
        n = case.bus_pos[ld.bus]
        k = eq.new_row(f"load_p[{ld.id},{PHASES[p]}]")
        eq.quad(k, layout.u_re[n, p], layout.il_re[e], 1.0)
        eq.quad(k, layout.u_im[n, p], layout.il_im[e], 1.0)
        eq.lin(k, layout.pl[e], -1.0)
        k = eq.new_row(f"load_q[{ld.id},{PHASES[p]}]")
        eq.quad(k, layout.u_im[n, p], layout.il_re[e], 1.0)
        eq.quad(k, layout.u_re[n, p], layout.il_im[e], -1.0)
        eq.lin(k, layout.ql[e], -1.0)

    # Power definition of each injection (P, Q are variables).
    for e, (n, p) in enumerate(layout.injections):
        name = f"{case.buses[n].id},{PHASES[p]}"
        k = eq.new_row(f"gen_p[{name}]")
        eq.quad(k, layout.u_re[n, p], layout.ig_re[e], 1.0)
        eq.quad(k, layout.u_im[n, p], layout.ig_im[e], 1.0)
        eq.lin(k, layout.pg[e], -1.0)
        k = eq.new_row(f"gen_q[{name}]")
        eq.quad(k, layout.u_im[n, p], layout.ig_re[e], 1.0)
        eq.quad(k, layout.u_re[n, p], layout.ig_im[e], -1.0)
        eq.lin(k, layout.qg[e], -1.0)

    # Nodal current balance at every non-slack bus, a re and an im row per
    # phase: demand - generation - A' i_branch = 0.  One pass over the
    # elements files each term under its bus and phase; a row lists its
    # loads, then its injection, then its branches in index order.
    tree = case.tree
    terms: dict[tuple[int, int], list[tuple[int, int, float]]] = defaultdict(list)  # (re col, im col, coef)
    for e, (d, p) in enumerate(layout.load_entries):
        terms[tree.load_bus[d], p].append((layout.il_re[e], layout.il_im[e], 1.0))
    for e, (n, p) in enumerate(layout.injections):
        terms[n, p].append((layout.ig_re[e], layout.ig_im[e], -1.0))
    for l, n in zip(*np.nonzero(tree.A)):
        for p in range(3):
            terms[n, p].append((layout.ib_re[l, p], layout.ib_im[l, p], -tree.A[l, n]))
    kcl_start = eq.n_rows
    for n, bus in enumerate(case.buses):
        if n == case.slack:
            continue
        for p in range(3):
            for part, name in enumerate(("re", "im")):
                k = eq.new_row(f"kcl_{name}[{bus.id},{PHASES[p]}]")
                for term in terms[n, p]:
                    eq.lin(k, term[part], term[2])
    lin_rows = np.concatenate([np.arange(n_vdrop), np.arange(kcl_start, eq.n_rows)])

    # Reactive import/export split for the margin objective.
    for k_split, e in enumerate(layout.split_injections):
        n, p = layout.injections[e]
        k = eq.new_row(f"qsplit[{case.buses[n].id},{PHASES[p]}]")
        eq.lin(k, layout.qg[e], 1.0)
        eq.lin(k, layout.qplus[k_split], -1.0)
        eq.lin(k, layout.qminus[k_split], 1.0)

    eq.seal()
    return eq, lin_rows


def _inequality_block(case: NetworkCase, layout: VarLayout, constraints: frozenset[LimitKind]) -> QuadBlock:
    ineq = QuadBlock(layout.n_vars)
    h = _HALF_SQRT3

    if LimitKind.CURRENT in constraints:
        for l, br in enumerate(case.branches):
            for p in range(3):
                k = ineq.new_row(f"imax[{br.id},{PHASES[p]}]", const=-br.i_max**2)
                ineq.quad(k, layout.ib_re[l, p], layout.ib_re[l, p], 1.0)
                ineq.quad(k, layout.ib_im[l, p], layout.ib_im[l, p], 1.0)

    if LimitKind.VOLTAGE in constraints:
        for n, bus in enumerate(case.buses):
            if n == case.slack:
                continue  # held at the reference by bounds
            for p in range(3):
                k = ineq.new_row(f"vmax[{bus.id},{PHASES[p]}]", const=-bus.vmax**2)
                ineq.quad(k, layout.u_re[n, p], layout.u_re[n, p], 1.0)
                ineq.quad(k, layout.u_im[n, p], layout.u_im[n, p], 1.0)
                k = ineq.new_row(f"vmin[{bus.id},{PHASES[p]}]", const=bus.vmin**2)
                ineq.quad(k, layout.u_re[n, p], layout.u_re[n, p], -1.0)
                ineq.quad(k, layout.u_im[n, p], layout.u_im[n, p], -1.0)

    if LimitKind.VUF in constraints:
        # Squared negative-sequence magnitude bounded by (vuf_max^2) times the
        # squared positive-sequence magnitude; both as quadratic forms over
        # (re_a, re_b, re_c, im_a, im_b, im_c).
        w2_re = np.array([1.0, -0.5, -0.5, 0.0, h, -h])
        w2_im = np.array([0.0, -h, h, 1.0, -0.5, -0.5])
        w1_re = np.array([1.0, -0.5, -0.5, 0.0, -h, h])
        w1_im = np.array([0.0, h, -h, 1.0, -0.5, -0.5])
        for n, bus in enumerate(case.buses):
            if n == case.slack:
                continue
            gamma = bus.vuf_max**2
            m = (
                np.outer(w2_re, w2_re)
                + np.outer(w2_im, w2_im)
                - gamma * (np.outer(w1_re, w1_re) + np.outer(w1_im, w1_im))
            )
            idx = np.concatenate([layout.u_re[n], layout.u_im[n]])
            k = ineq.new_row(f"vuf[{bus.id}]")
            ineq.sym_matrix(k, idx, m)

    # Margin auxiliaries: q_aux bounded by both directions of the split.
    for k_split, e in enumerate(layout.split_injections):
        n, p = layout.injections[e]
        name = f"{case.buses[n].id},{PHASES[p]}"
        k = ineq.new_row(f"qaux_plus[{name}]")
        ineq.lin(k, layout.qaux[k_split], 1.0)
        ineq.lin(k, layout.qplus[k_split], -1.0)
        k = ineq.new_row(f"qaux_minus[{name}]")
        ineq.lin(k, layout.qaux[k_split], 1.0)
        ineq.lin(k, layout.qminus[k_split], -1.0)

    ineq.seal()
    return ineq


def _bounds(
    case: NetworkCase,
    layout: VarLayout,
    period: int,
    *,
    fix_q_zero: bool,
    bound_q_by_rating: bool,
    fixed_p: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    lb = np.full(layout.n_vars, -np.inf)
    ub = np.full(layout.n_vars, np.inf)

    ref = slack_reference()
    lb[layout.u_re[case.slack]] = ub[layout.u_re[case.slack]] = ref.real
    lb[layout.u_im[case.slack]] = ub[layout.u_im[case.slack]] = ref.imag

    # An injection's Q is boxed by its units' summed rating.
    q_max = _injection_sums(layout, np.array([case.generators[g].q_abs_max for g, _ in layout.gen_entries]))
    lb[layout.pg] = 0.0
    if fix_q_zero:
        lb[layout.qg] = ub[layout.qg] = 0.0
    elif bound_q_by_rating:
        lb[layout.qg] = -q_max
        ub[layout.qg] = q_max
    if layout.with_reactive_split:
        # An injection with no reactive rating has no split: its Q is pinned at 0.
        unrated = np.ones(len(layout.injections), dtype=bool)
        unrated[layout.split_injections] = False
        lb[layout.qg[unrated]] = ub[layout.qg[unrated]] = 0.0
        lb[layout.qplus] = lb[layout.qminus] = lb[layout.qaux] = 0.0
        ub[layout.qplus] = ub[layout.qminus] = q_max[layout.split_injections]

    _pin(case, layout, lb, ub, period, fixed_p)
    return lb, ub


def _pin(
    case: NetworkCase, layout: VarLayout, lb: np.ndarray, ub: np.ndarray, period: int, fixed_p: np.ndarray | None
) -> None:
    """Write the pins of period into lb and ub: each load phase's P and Q
    and, when fixed_p is given, each injection's P as its units' sum."""
    # The load entries follow each load's profile rows in order.
    lb[layout.pl] = ub[layout.pl] = np.concatenate([np.zeros(0), *(ld.p[:, period] for ld in case.loads)])
    lb[layout.ql] = ub[layout.ql] = np.concatenate([np.zeros(0), *(ld.q[:, period] for ld in case.loads)])
    if fixed_p is not None:
        lb[layout.pg] = ub[layout.pg] = _injection_sums(layout, fixed_p[_entry_arrays(layout.gen_entries)])


def pin_period(problem: NlpProblem, period: int, fixed_p: np.ndarray | None = None) -> NlpProblem:
    """problem with the pins of another period of its stage; fixed_p must be
    given exactly when problem was built with it.  Its rows, objective and
    free set are problem's own, so internalize() of either serves both."""
    lay = problem.layout
    if not 0 <= period < problem.case.horizon:
        raise ValueError(f"period {period} outside horizon {problem.case.horizon}")
    pins_p = bool(np.all(problem.lb[lay.pg] == problem.ub[lay.pg]))
    if lay.pg.size and (fixed_p is not None) != pins_p:
        raise ValueError("fixed_p must be given exactly when the program pins P")
    lb, ub = problem.lb.copy(), problem.ub.copy()
    _pin(problem.case, lay, lb, ub, period, fixed_p)
    return replace(problem, period=period, lb=lb, ub=ub)


def _injection_sums(layout: VarLayout, per_entry: np.ndarray) -> np.ndarray:
    """Sum over each injection's generator entries of a per-entry array."""
    return np.bincount(layout.gen_injection, weights=per_entry, minlength=len(layout.injections))


# ---------------------------------------------------------------------------
# Decoding and the flat start
# ---------------------------------------------------------------------------

def _unit_shares(case: NetworkCase, layout: VarLayout) -> tuple[np.ndarray, np.ndarray]:
    """Each generator entry's share of its injection's P and of its Q.

    P is shared by p_cap and Q by q_abs_max, and equally where an
    injection's ratings sum to 0.  Each unit's reactive margin, q_abs_max -
    |Q|, is then its rating share of the injection's, so the units' margins
    add up to the injection's: the optimum of a program with one Q per unit.
    """
    units = [case.generators[g] for g, _ in layout.gen_entries]
    count = np.bincount(layout.gen_injection, minlength=len(layout.injections))[layout.gen_injection]
    shares = []
    for rating in (np.array([u.p_cap for u in units]), np.array([u.q_abs_max for u in units])):
        total = _injection_sums(layout, rating)[layout.gen_injection]
        shares.append(np.divide(rating, total, out=1.0 / count, where=total > 0.0))
    return shares[0], shares[1]


def decode_state(problem: NlpProblem, x: np.ndarray) -> PhasorState:
    """Unpack a solution vector into a single-period phasor state.

    Each unit draws the part of its injection's current that carries its
    decoded power, conj(s_unit / s_injection) of it, so the units' currents
    sum to the injection's (its P share where the injection carries none).
    """
    lay = problem.layout
    case = problem.case

    i_load = np.zeros((len(case.loads), 3, 1), dtype=complex)
    i_load[(*_entry_arrays(lay.load_entries), 0)] = x[lay.il_re] + 1j * x[lay.il_im]
    share_p, share_q = _unit_shares(case, lay)
    inj = lay.gen_injection
    s_inj = x[lay.pg][inj] + 1j * x[lay.qg][inj]
    s_unit = share_p * x[lay.pg][inj] + 1j * share_q * x[lay.qg][inj]
    part = np.divide(s_unit, s_inj, out=share_p.astype(complex), where=s_inj != 0.0)
    i_gen = np.zeros((len(case.generators), 3, 1), dtype=complex)
    i_gen[(*_entry_arrays(lay.gen_entries), 0)] = (x[lay.ig_re] + 1j * x[lay.ig_im])[inj] * np.conj(part)
    return PhasorState(
        case=case,
        u=(x[lay.u_re] + 1j * x[lay.u_im])[:, :, None],
        i_branch=(x[lay.ib_re] + 1j * x[lay.ib_im])[:, :, None],
        i_load=i_load,
        i_gen=i_gen,
    )


def decode_generation(problem: NlpProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-generator (n_gen, 3) active/reactive outputs: each unit's share
    (_unit_shares) of its injection's P and Q."""
    lay = problem.layout
    entries = _entry_arrays(lay.gen_entries)
    share_p, share_q = _unit_shares(problem.case, lay)
    pg = np.zeros((len(problem.case.generators), 3))
    qg = np.zeros_like(pg)
    pg[entries] = share_p * x[lay.pg][lay.gen_injection]
    qg[entries] = share_q * x[lay.qg][lay.gen_injection]
    return pg, qg


def initial_point(problem: NlpProblem, voltage_scale: float = 1.0) -> np.ndarray:
    """Flat start of one program: balanced voltages, element currents from one backward sweep.

    Each injection pinned by bounds draws its current at the flat voltage,
    and the currents are accumulated down the case's tree, which satisfies
    nodal balance exactly at the start; fixed variables sit at their pinned
    values.  voltage_scale shifts the initial magnitude away from nominal,
    giving a deterministic family of starting points for multi-start
    polishing.
    """
    lay = problem.layout
    case = problem.case
    tree = case.tree
    x = np.zeros(lay.n_vars)
    ref = slack_reference(vm=voltage_scale)
    x[lay.u_re] = ref.real
    x[lay.u_im] = ref.imag
    fixed = problem.lb == problem.ub
    x[fixed] = problem.lb[fixed]

    # Every load phase, and the injections that two-stage runs pin (a free P
    # or Q is still 0 in x); an injection's current enters the balance negated.
    load, load_phase = _entry_arrays(lay.load_entries)
    inj_bus, inj_phase = _entry_arrays(lay.injections)
    bus = np.concatenate([tree.load_bus[load], inj_bus])
    phase = np.concatenate([load_phase, inj_phase])
    sign = np.repeat([1.0, -1.0], [load.size, inj_bus.size])
    s = x[np.concatenate([lay.pl, lay.pg])] + 1j * x[np.concatenate([lay.ql, lay.qg])]
    on = s != 0.0
    cur = np.conj(s[on] / ref[phase[on]])
    x[np.concatenate([lay.il_re, lay.ig_re])[on]] = cur.real
    x[np.concatenate([lay.il_im, lay.ig_im])[on]] = cur.imag
    i_net = np.zeros((len(case.buses), 3), dtype=complex)
    np.add.at(i_net, (bus[on], phase[on]), sign[on] * cur)

    # Real and imaginary parts are multiplied apart: a complex product would
    # turn some zero currents into -0.0.
    x[lay.ib_re] = tree.P @ i_net.real
    x[lay.ib_im] = tree.P @ i_net.imag
    return x
