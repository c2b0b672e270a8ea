import dataclasses
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lvdoe import netmodel as nm, nlp, oracle, phasecalc as pc, solver
from lvdoe.nlp import Objective, QuadBlock, ScenarioSpec, build_custom, build_problem
from lvdoe.phasecalc import LimitKind
from lvdoe.solver import SolverOptions, internalize, kkt_assemble, solve

from conftest import dense_jacobian, force_singular, two_bus_case


def toy_form(lb: float = -np.inf, ub: float = 2.0, eq_row: str | None = None) -> solver.InternalForm:
    """min -x subject to lb <= x <= ub, optionally with the equality row
    x - 1 = 0 (eq_row="linear") or 0.5 x^2 - 0.5 = 0 (eq_row="quadratic")."""
    eq = QuadBlock(1)
    if eq_row == "linear":
        eq.lin(eq.new_row("x-1", const=-1.0), 0, 1.0)
    elif eq_row == "quadratic":
        eq.quad(eq.new_row("x^2-1", const=-0.5), 0, 0, 0.5)
    eq.seal()
    ineq = QuadBlock(1)
    ineq.seal()
    toy = SimpleNamespace(
        n_vars=1, lb=np.array([lb]), ub=np.array([ub]), eq=eq, ineq=ineq, obj_coef=np.array([1.0]),
        lin_rows=np.zeros(0, dtype=np.intp), lin_vars=np.zeros(0, dtype=np.intp),
    )
    return internalize(toy)


def assemble_one(form, pt, mu, delta_w=0.0, delta_c=0.0):
    """kkt_assemble of a batch of one iterate, regularized by (delta_w,
    delta_c), as (matrix, step, regularize) of that instance: its step takes
    the solve of one right-hand side and returns the instance's (dx, dy, dz, ds)."""
    kkt, dims, step, regularize = kkt_assemble(form, pt, mu)
    regularize(delta_w, delta_c)
    assert kkt.shape[2] == 1

    def one_step(solve_fn):
        return tuple(a[0] for a in step(lambda r: solve_fn(r[0])[None]))

    return kkt[: dims[0], : dims[0], 0], one_step, regularize


def perturbed_point(prob, form, seed):
    rng = np.random.default_rng(seed)
    x = nlp.initial_point(prob)
    x[form.free] += 0.05 * rng.standard_normal(form.free.size)
    mi = form.ineq.n_rows
    return solver._evaluate(
        form,
        x,
        y=rng.standard_normal(form.eq.n_rows),
        z=rng.uniform(0.2, 1.0, mi),
        s=rng.uniform(0.2, 1.0, mi),
    )


def fingerprint(value):
    """value with every array as (dtype, shape, bytes), recursing into
    dataclasses, QuadBlocks and tuples, so that == compares bit for bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple((f.name, fingerprint(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, QuadBlock):
        return tuple((name, fingerprint(v)) for name, v in sorted(vars(value).items()))
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    return value


def bound_rows(prob):
    """(Jacobian, constants) of the rows sign * x_i + const <= 0: each free
    variable's finite upper bound, then its finite lower bound."""
    rows, const = [], []
    for i in np.flatnonzero(prob.lb != prob.ub):
        for sign, bound in ((1.0, prob.ub[i]), (-1.0, prob.lb[i])):
            if np.isfinite(bound):
                rows.append(sign * np.eye(prob.n_vars)[i])
                const.append(-sign * bound)
    return np.reshape(rows, (len(const), prob.n_vars)), np.array(const)


def full_augmented_system(prob, pt, mu, delta_w, y_fix, delta_c=0.0):
    """The uncondensed reference: every variable kept, fixed variables as
    equality rows, equality rows with a -delta_c diagonal except the linear
    rows prob.lin_rows, user inequality rows and bound rows kept with their
    -s/z diagonal.  Unknowns (dx, dy, dy_fix, dz)."""
    jb, cb = bound_rows(prob)
    n, me, mi = prob.n_vars, prob.eq.n_rows, prob.ineq.n_rows + cb.size
    fixed = np.flatnonzero(prob.lb == prob.ub)
    x, y, z, s = pt.x[0], pt.y[0], pt.z[0], pt.s[0]
    w = delta_w * np.eye(n)
    for block, lam in ((prob.eq, y), (prob.ineq, z)):
        np.add.at(w, (block.qi, block.qj), lam[block.qk] * block.qv)
    jg, jh = dense_jacobian(prob.eq, x), np.vstack([dense_jacobian(prob.ineq, x), jb])
    jf = np.eye(n)[fixed]
    cons = np.vstack([jg, jf, jh])
    dim = n + me + fixed.size + mi
    k = np.zeros((dim, dim))
    k[:n, :n] = w
    k[n:, :n] = cons
    k[:n, n:] = cons.T
    regularized = np.ones(me)
    regularized[prob.lin_rows] = 0.0
    k[n : n + me, n : n + me] = -delta_c * np.diag(regularized)
    k[n + me + fixed.size :, n + me + fixed.size :] = -np.diag(s / z)
    grad = -prob.obj_coef + jg.T @ y + jf.T @ y_fix + jh.T @ z
    h = np.concatenate([prob.ineq.value(x), jb @ x + cb])
    rhs = np.concatenate([-grad, -prob.eq.value(x), -(x[fixed] - prob.lb[fixed]), -(h + mu / z)])
    return k, rhs


# feeder_hr has 18 private pairs; two_bus and synth4 have fewer, and a
# stage-2 margin program on feeder_hr has 9 blocks of four variables.  The
# "-dc" cases put an equality regularization on every kept and eliminated row
# that is not linear.
WITH_FULL_REFERENCE = [
    ("two_bus", 0.0), ("synth4", 0.0), ("feeder_hr", 0.0), ("feeder_hr", 1e-3),
    ("feeder_hr_margin", 0.0), ("feeder_hr_margin", 1e-3),
]
WITH_FULL_REFERENCE_IDS = ["two_bus", "synth4", "feeder_hr", "feeder_hr-dc", "feeder_hr-margin", "feeder_hr-margin-dc"]


def reference_problem(request, network):
    """Scenario 5, period 0 of network; "feeder_hr_margin" is feeder_hr's
    stage-2 margin program, P pinned at 0.01 pu."""
    if network == "two_bus":
        return build_problem(two_bus_case(), ScenarioSpec(5), 0)
    if network == "feeder_hr_margin":
        case = request.getfixturevalue("feeder_hr")
        fixed_p = np.full((len(case.generators), 3), 0.01)
        return build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 0, fixed_p=fixed_p)
    return build_problem(request.getfixturevalue(network), ScenarioSpec(5), 0)


def block_inertia_deficit(prob, form, k_full):
    """Sum over the private blocks of |V| minus the positive eigenvalues of
    the block's part of k_full (full_augmented_system): V, S, r, and V's
    inequality rows, user and bound rows alike, which form.ineq holds in
    k_full's order.  Inertia adds over a Schur complement (Haynsworth), so
    the full matrix has the reduced one's positive eigenvalues plus those of
    every block."""
    n, me, nf = prob.n_vars, prob.eq.n_rows, np.count_nonzero(prob.lb == prob.ub)
    first_ineq = n + me + nf
    deficit = 0
    for blk in form.blocks:
        for var, srow, row in zip(blk.var, blk.srow, blk.row):
            local = np.unique(form.ineq.lk[np.isin(form.ineq.li, var)])
            idx = np.concatenate([var, n + srow, [n + row], first_ineq + local])
            deficit += var.size - np.count_nonzero(np.linalg.eigvalsh(k_full[np.ix_(idx, idx)]) > 0.0)
    return deficit


def no_blocks(problem):
    return ()


def toy_block_problem():
    """max x0 + m subject to 0.5 x0^2 - q - 0.5 = 0 (the row r), q - p + m = 0
    (S), p + m - 1.5 <= 0, -2 <= x0 <= 2 and 0 <= p, m <= 1: one block
    V = {q, p, m} with q unbounded, tied to the kept x0 by r."""
    eq = QuadBlock(4)
    r = eq.new_row("r", const=-0.5)
    eq.quad(r, 0, 0, 0.5)
    eq.lin(r, 1, -1.0)
    k = eq.new_row("s")
    for i, coef in ((1, 1.0), (2, -1.0), (3, 1.0)):
        eq.lin(k, i, coef)
    eq.seal()
    ineq = QuadBlock(4)
    k = ineq.new_row("p+m", const=-1.5)
    ineq.lin(k, 2, 1.0)
    ineq.lin(k, 3, 1.0)
    ineq.seal()
    return SimpleNamespace(
        n_vars=4, lb=np.array([-2.0, -np.inf, 0.0, 0.0]), ub=np.array([2.0, np.inf, 1.0, 1.0]), eq=eq, ineq=ineq,
        obj_coef=np.array([1.0, 0.0, 0.0, 1.0]), lin_rows=np.zeros(0, dtype=np.intp),
        lin_vars=np.zeros(0, dtype=np.intp),
    )


class TestKktAssemble:
    def test_one_by_one_matches_hand_algebra(self):
        # Bound rows x - ub <= 0 (sign +1), then lb - x <= 0 (sign -1); at x = 0.5
        # each is -1.5.  An upper bound, a lower bound, and both.
        for lb, ub, sign in ((-np.inf, 2.0, [1.0]), (-1.0, np.inf, [-1.0]), (-1.0, 2.0, [1.0, -1.0])):
            form = toy_form(lb=lb, ub=ub)
            m = len(sign)
            sign, h = np.array(sign), np.full(m, -1.5)
            x, s, z, mu = np.array([0.5]), np.array([1.5, 1.2])[:m], np.array([0.1, 0.4])[:m], 0.3
            pt = solver._evaluate(form, x, y=np.zeros(0), z=z, s=s)
            np.testing.assert_array_equal(pt.h[0], h)
            kkt, step, regularize = assemble_one(form, pt, mu)
            # [sum z/s]: the bound rows condensed into the Hessian
            sigma = z / s
            np.testing.assert_allclose(kkt, [[sigma.sum()]], rtol=1e-15)
            # rhs: -(c + Jh' z + Jh' (z/s)(h + mu/z)) with c = -1, the first
            # right-hand side that step hands to the solve
            rhs = -(-1.0 + sign @ z + sign @ (sigma * (h + mu / z)))
            seen = []
            step(lambda r: seen.append(r) or np.linalg.solve(kkt, r))
            np.testing.assert_allclose(seen[0], [rhs], rtol=1e-15)
            # with the regularization dw = 0.01 that solve adds on a retry
            regularize(0.01, 0.0)
            np.testing.assert_allclose(kkt, [[0.01 + sigma.sum()]], rtol=1e-15)
            dx, dy, dz, ds = step(lambda r: np.linalg.solve(kkt, r))
            np.testing.assert_allclose(dx, [rhs / (0.01 + sigma.sum())], rtol=1e-15)
            np.testing.assert_allclose(dz, sigma * (sign * dx + h + mu / z), rtol=1e-15)
            np.testing.assert_allclose(ds, mu / z - s - (s / z) * dz, rtol=1e-15)
            assert dy.size == 0

    def test_user_rows_kept_as_given(self, synth4_unbal):
        # One inequality format: the problem's rows bit for bit, then one
        # linear row per finite bound of a free variable, upper before lower.
        for objective in Objective:
            prob = build_problem(synth4_unbal, ScenarioSpec(5, objective), 12)
            form = internalize(prob)
            user, rows, (jb, cb) = prob.ineq, form.ineq, bound_rows(prob)
            m, nl = user.n_rows, user.lk.size
            assert rows.n_rows == m + cb.size and cb.size > 0
            for name in ("qk", "qi", "qj", "qv"):
                np.testing.assert_array_equal(getattr(rows, name), getattr(user, name))
            for name in ("lk", "li", "lv"):
                np.testing.assert_array_equal(getattr(rows, name)[:nl], getattr(user, name))
            np.testing.assert_array_equal(rows.c0, np.concatenate([user.c0, cb]))
            assert rows.labels[:m] == user.labels
            x = perturbed_point(prob, form, 4).x[0]
            np.testing.assert_array_equal(dense_jacobian(rows, x), np.vstack([dense_jacobian(user, x), jb]))
            pt = solver._evaluate(form, x, np.zeros(prob.eq.n_rows), np.ones(rows.n_rows), np.ones(rows.n_rows))
            np.testing.assert_array_equal(pt.h[0], rows.value(x))
            np.testing.assert_array_equal(pt.h[0, :m], user.value(x))

    def test_symmetry_on_real_problem(self):
        case = two_bus_case()
        prob = build_problem(case, ScenarioSpec(5), 0)
        form = internalize(prob)
        pt = perturbed_point(prob, form, 2)
        stack, dims, _, regularize = kkt_assemble(form, pt, 0.1)
        regularize(1e-4, 1e-6)
        assert isinstance(stack, np.ndarray) and stack.flags.f_contiguous and stack.shape[2] == 1
        (pairs,) = form.blocks
        n_pairs, n_lin = pairs.row.size, prob.lin_rows.size
        assert pairs.var.shape == (n_pairs, 1) and n_pairs > 0 and n_lin == 12
        assert dims[0] == stack.shape[0] == np.count_nonzero(prob.lb != prob.ub) + prob.eq.n_rows - 2 * n_pairs - 2 * n_lin
        kkt = stack[:, :, 0]
        assert np.abs(kkt - kkt.T).max() <= 1e-14

    def test_rejects_nonpositive_mu(self):
        form = toy_form()
        with pytest.raises(ValueError, match="mu"):
            kkt_assemble(form, solver._evaluate(form, np.zeros(1), np.zeros(0), np.ones(1), np.ones(1)), 0.0)

    @pytest.mark.parametrize("network, delta_c", WITH_FULL_REFERENCE, ids=WITH_FULL_REFERENCE_IDS)
    def test_condensed_step_matches_full_augmented_system(self, request, network, delta_c):
        prob = reference_problem(request, network)
        form = internalize(prob)
        pt = perturbed_point(prob, form, 7)
        mu, delta_w = 0.1, 0.5
        y_fix = np.random.default_rng(8).standard_normal(np.count_nonzero(prob.lb == prob.ub))
        kkt, step, _ = assemble_one(form, pt, mu, delta_w, delta_c)
        dx, dy, dz, ds = step(lambda r: np.linalg.solve(kkt, r))

        k_full, rhs_full = full_augmented_system(prob, pt, mu, delta_w, y_fix, delta_c)
        ref = np.linalg.solve(k_full, rhs_full)
        n, me = prob.n_vars, prob.eq.n_rows
        dx_ref, dy_ref, dz_ref = ref[:n], ref[n : n + me], ref[n + me + y_fix.size :]
        ds_ref = mu / pt.z[0] - pt.s[0] - (pt.s[0] / pt.z[0]) * dz_ref
        for got, want in ((dx, dx_ref), (dy, dy_ref), (dz, dz_ref), (ds, ds_ref)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
        assert np.all(dx[prob.lb == prob.ub] == 0.0)

    @pytest.mark.parametrize("network, delta_c", WITH_FULL_REFERENCE, ids=WITH_FULL_REFERENCE_IDS)
    def test_inertia_test_agrees_with_full_system(self, request, network, delta_c):
        prob = reference_problem(request, network)
        form = internalize(prob)
        pt = perturbed_point(prob, form, 3)
        y_fix = np.zeros(np.count_nonzero(prob.lb == prob.ub))
        kkt, _, regularize = assemble_one(form, pt, 0.1)
        outcomes = set()
        # A negative shift stands in for negative curvature of W.  It also
        # shifts the blocks, which have none (their variables enter every row
        # linearly), so a block may then lose a positive eigenvalue that the
        # reduced matrix cannot see; the blocks' own inertia is counted apart.
        for delta_w in (-10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0, 100.0):
            regularize(delta_w, delta_c)
            _, ((pos, _, zero),) = solver._ldlt([kkt])
            k_full, _ = full_augmented_system(prob, pt, 0.1, delta_w, y_fix, delta_c)
            full_pos = int(np.count_nonzero(np.linalg.eigvalsh(k_full) > 0.0))
            deficit = block_inertia_deficit(prob, form, k_full)
            assert deficit == 0 or delta_w < 0.0
            condensed_ok = pos == form.keep.size - form.lin_rows.size and zero == 0
            assert condensed_ok == (full_pos + deficit == prob.n_vars)
            outcomes.add(condensed_ok)
        assert outcomes == {True, False}


class TestLdlt:
    def test_inertia_of_saddle(self):
        # [[z/s, 1], [1, 0]]: one free variable, one equality row 0.5 x^2 - 0.5 = 0
        # (quadratic, so the pair is not eliminated)
        form = toy_form(eq_row="quadratic")
        pt = solver._evaluate(form, np.array([1.0]), np.zeros(1), np.ones(1), np.ones(1))
        kkt = assemble_one(form, pt, 0.1)[0]
        np.testing.assert_allclose(kkt, [[1.0, 1.0], [1.0, 0.0]])
        _, inertia = solver._ldlt([kkt])
        assert inertia.tolist() == [[1, 1, 0]]

    def test_solve_matches_dense_reference(self):
        rng = np.random.default_rng(4)
        mats = []
        for n in (3, 10, 40):
            a = rng.standard_normal((n, n))
            mats.append(a + a.T + 0.1 * np.eye(n))
        # One call factors them all and reads each one's inertia.
        factors, inertia = solver._ldlt(mats)
        for k, factor, got in zip(mats, factors, inertia):
            b = rng.standard_normal(k.shape[0])
            np.testing.assert_allclose(solver._ldlt_solve(factor, b), np.linalg.solve(k, b), rtol=1e-9, atol=1e-9)
            ev = np.linalg.eigvalsh(k)
            assert got.tolist() == [(ev > 0).sum(), (ev < 0).sum(), 0]

    def test_detects_singularity(self):
        k = np.zeros((2, 2))
        k[0, 0] = 1.0
        _, inertia = solver._ldlt([k])
        assert inertia[0, 2] == 1

    def test_missing_extension_names_folder_and_version(self, monkeypatch, synth2):
        import importlib.machinery

        import scipy

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix.so"])
        solver._lapack.cache_clear()
        folder = str(Path(scipy.__file__).parent / "linalg")
        with pytest.raises(ImportError, match=re.escape(folder)) as err:
            solve(build_problem(synth2, ScenarioSpec(5), 0))
        assert f"scipy {scipy.__version__}" in str(err.value)

    def test_missing_scipy_raises_import_error(self, monkeypatch, synth2):
        import importlib.util

        monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: None)
        solver._lapack.cache_clear()
        solver.scipy_version.cache_clear()
        with pytest.raises(ImportError, match="scipy"):
            solve(build_problem(synth2, ScenarioSpec(5), 0))
        with pytest.raises(ImportError, match="scipy"):
            solver.scipy_version()


class TestSolve:
    def test_single_binding_constraint_matches_bisection(self):
        # loose voltage/unbalance limits leave the branch ampacity as the
        # only active network limit
        case = two_bus_case(i_max=40.0, vmax=1.4, vmin=0.5, vuf_max=0.3, load=False)
        prob = build_problem(case, ScenarioSpec(5), 0)
        sol = solve(prob)
        assert sol.status == "optimal"
        limit = oracle.doe_bisection(case, "g1", {LimitKind.CURRENT, LimitKind.VOLTAGE, LimitKind.VUF}, 0)
        assert sol.objective == pytest.approx(limit, rel=5e-3)

    def test_engineered_infeasibility(self):
        # the fixed load drags phase b below 1.05 pu; no reactive support
        # exists, so the voltage floor cannot be met
        case = two_bus_case(load_kw=3.0, vmin=1.05, vmax=1.2)
        prob = build_problem(case, ScenarioSpec(5), 0)
        sol = solve(prob)
        assert sol.status == "infeasible_local"

    def test_determinism_bit_identical(self):
        case = two_bus_case()
        prob = build_problem(case, ScenarioSpec(5), 0)
        a = solve(prob)
        b = solve(prob)
        assert a.iterations == b.iterations
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.x, b.x)

    def test_optimal_solution_is_feasible(self):
        case = two_bus_case()
        prob = build_problem(case, ScenarioSpec(5), 2)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.max_kkt_residual <= 1e-8
        state = nlp.decode_state(prob, sol.x)
        assert pc.check_limits(state, prob.constraint_set, tol=1e-6) == []
        assert pc.max_kcl_residual(state) <= 1e-8
        assert pc.max_voltage_drop_residual(state) <= 1e-8

    def test_flat_start_feasible_on_no_load_network(self):
        case = two_bus_case(load=False)
        prob = build_problem(case, ScenarioSpec(5), 0)
        x0 = nlp.initial_point(prob)
        assert np.abs(prob.eq.value(x0)).max() <= 1e-12

    def test_active_set_reported(self):
        case = two_bus_case(load=False)
        prob = build_problem(case, ScenarioSpec(5), 0)
        sol = solve(prob)
        active = [prob.ineq.labels[i] for i in np.flatnonzero(prob.ineq.value(sol.x) > -1e-6)]
        assert active  # something binds, otherwise export would be unbounded

    def test_trace_records_iterations(self):
        case = two_bus_case()
        prob = build_problem(case, ScenarioSpec(5), 0)
        sol = solve(prob, SolverOptions(trace=True))
        assert len(sol.trace) == sol.iterations
        assert {"iter", "mu", "objective", "kkt_error", "delta_w", "delta_c", "factorize_s"} <= set(sol.trace[0])
        assert sum(rec["factorizations"] for rec in sol.trace) == sol.factorizations
        assert min(rec["factorizations"] for rec in sol.trace) >= 1

    def test_iteration_limit_status(self):
        case = two_bus_case()
        prob = build_problem(case, ScenarioSpec(5), 0)
        sol = solve(prob, SolverOptions(max_iter=2))
        assert sol.status == "iteration_limit"

    def test_pinned_variables_stay_on_their_pins(self, synth4_unbal):
        # Slack voltages and load powers in an active-export solve, and every
        # pinned P as well in a two-stage stage-2 (reactive-margin) solve.
        case = synth4_unbal
        stage1 = build_problem(case, ScenarioSpec(5), 19, bound_q_by_rating=True)
        sol1 = solve(stage1)
        assert sol1.status == "optimal"
        pg, _ = nlp.decode_generation(stage1, sol1.x)
        fixed_p = pg * (1.0 - 1e-4)  # dense (n_gen, 3), as two-stage runs pass it
        stage2 = build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 19, fixed_p=fixed_p)
        sol2 = solve(stage2)
        assert sol2.status == "optimal"
        n_loads = len(stage1.layout.load_entries)
        assert np.count_nonzero(stage2.lb == stage2.ub) > np.count_nonzero(stage1.lb == stage1.ub) == 6 + 2 * n_loads
        np.testing.assert_array_equal(nlp.decode_generation(stage2, sol2.x)[0], fixed_p)
        for prob, sol in ((stage1, sol1), (stage2, sol2)):
            pinned = prob.lb == prob.ub
            np.testing.assert_array_equal(sol.x[pinned], prob.lb[pinned])

    def test_reactive_freedom_never_hurts(self):
        case = two_bus_case()
        free = solve(build_problem(case, ScenarioSpec(5), 0))
        pinned = solve(
            build_custom(
                case,
                {LimitKind.VOLTAGE, LimitKind.CURRENT, LimitKind.VUF},
                Objective.ACTIVE_EXPORT,
                0,
                fix_q_zero=True,
            )
        )
        assert free.objective >= pinned.objective - 1e-6


class TestInjections:
    """Units that share a bus and phase share one current, P and Q, so the
    program keeps no structural null direction."""

    @pytest.mark.parametrize(
        "fixture, period",
        [("feeder_hr", 3), ("feeder_hr", 19), ("synth4_unbal", 3), ("synth4_unbal", 19)],
    )
    def test_first_attempt_never_singular(self, request, monkeypatch, fixture, period):
        # Each iteration's first, unregularized matrix has no zero pivot; with
        # one current per unit it had one in every iteration of these solves.
        inertias = []
        ldlt = solver._ldlt

        def recording(mats):
            out = ldlt(mats)
            inertias.extend(out[1].tolist())
            return out

        monkeypatch.setattr(solver, "_ldlt", recording)
        prob = build_problem(request.getfixturevalue(fixture), ScenarioSpec(5), period)
        sol = solve(prob, SolverOptions(trace=True))
        assert sol.status == "optimal" and len(inertias) == sol.factorizations
        first = np.cumsum([0] + [rec["factorizations"] for rec in sol.trace])[:-1]
        assert first.size == sol.iterations
        assert all(inertias[i][2] == 0 for i in first)

    @pytest.mark.parametrize(
        "fixture, period, stage",
        [("feeder_hr", 12, "active"), ("feeder_hr", 12, "margin"), ("synth4_unbal", 3, "active")],
    )
    def test_merged_units_same_optimum(self, request, fixture, period, stage):
        # Each (bus, phase)'s units merged into one unit with their summed
        # ratings: the same program, so the same optimum, and each merged
        # unit reports the sum of its units' P and Q.
        case = request.getfixturevalue(fixture)
        groups: dict[tuple[str, int], list[int]] = {}
        for g, ph in case.gen_entries():
            groups.setdefault((case.generators[g].bus, ph), []).append(g)
        merged = dataclasses.replace(case, generators=tuple(
            nm.Generator(f"{bus}-{ph}", bus, ("abc"[ph],), p_cap=sum(case.generators[g].p_cap for g in units),
                         q_abs_max=sum(case.generators[g].q_abs_max for g in units))
            for (bus, ph), units in groups.items()
        ))

        def group_sums(per_unit):
            out = np.zeros((len(groups), 3))
            for m, ((_, ph), units) in enumerate(groups.items()):
                out[m, ph] = per_unit[units, ph].sum()
            return out

        if stage == "active":
            progs = [build_problem(c, ScenarioSpec(5), period) for c in (case, merged)]
        else:
            stage1 = build_problem(case, ScenarioSpec(5), period, bound_q_by_rating=True)
            fixed_p = nlp.decode_generation(stage1, solve(stage1).x)[0] * (1.0 - 1e-4)
            spec = ScenarioSpec(5, Objective.REACTIVE_MARGIN)
            progs = [build_problem(case, spec, period, fixed_p=fixed_p),
                     build_problem(merged, spec, period, fixed_p=group_sums(fixed_p))]
        units, one = (solve(prob) for prob in progs)
        assert units.status == one.status == "optimal"
        assert abs(units.objective - one.objective) <= 1e-9
        for got, want in zip(nlp.decode_generation(progs[1], one.x), nlp.decode_generation(progs[0], units.x)):
            np.testing.assert_allclose(got, group_sums(want), rtol=0.0, atol=1e-12)


def labels(block, rows):
    return {block.labels[k].split("[")[0] for k in np.ravel(rows)}


class TestPairElimination:
    """Each private block, a set of free variables that enter only their own
    rows and bounds and one equality row shared with the rest, is eliminated
    from the KKT system with its rows; a pair is a block of one variable."""

    def test_pairs_and_reduced_dimensions(self, feeder_hr):
        prob = build_problem(feeder_hr, ScenarioSpec(5), 12)
        form = internalize(prob)
        # 43 units feed 9 injections, each a P and a Q pair.
        (pairs,) = form.blocks
        assert pairs.var.shape == (18, 1) and pairs.srow.shape == (18, 0)
        assert labels(prob.eq, pairs.row) == {"gen_p", "gen_q"}
        assert form.free.size + prob.eq.n_rows == 354
        kkt = assemble_one(form, perturbed_point(prob, form, 1), 0.1)[0]
        assert form.lin_rows.size == 120
        assert kkt.shape == (78, 78)

        # A stage-2 margin program: P pinned, each injection's Q a block of
        # four with its split rows, removed with its gen_q row.
        fixed_p = np.full((len(feeder_hr.generators), 3), 0.01)
        stage2 = build_problem(feeder_hr, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 12, fixed_p=fixed_p)
        form2 = internalize(stage2)
        (blocks,) = form2.blocks
        assert blocks.var.shape == (9, 4) and blocks.srow.shape == (9, 1)
        kkt2 = assemble_one(form2, perturbed_point(stage2, form2, 1), 0.1)[0]
        assert form2.free.size + stage2.eq.n_rows == 381
        assert kkt2.shape[0] == 381 - 9 * 6 - 2 * 120 == 87

    def test_blocks_of_a_margin_program(self, feeder_hr):
        fixed_p = np.full((len(feeder_hr.generators), 3), 0.01)
        prob = build_problem(feeder_hr, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 12, fixed_p=fixed_p)
        (blocks,) = internalize(prob).blocks
        lay = prob.layout
        np.testing.assert_array_equal(blocks.var, np.column_stack([lay.qg, lay.qplus, lay.qminus, lay.qaux]))
        assert labels(prob.eq, blocks.row) == {"gen_q"} and labels(prob.eq, blocks.srow) == {"qsplit"}
        # Each block's local inequality rows are its two q_aux rows.
        for var in blocks.var:
            local = prob.ineq.lk[np.isin(prob.ineq.li, var)]
            assert local.size == 4 and labels(prob.ineq, local) == {"qaux_plus", "qaux_minus"}
        # qsplit's coefficients on (qg, q+, q-, q_aux), then gen_q's.
        np.testing.assert_array_equal(blocks.coef, np.broadcast_to([[1, -1, 1, 0], [-1, 0, 0, 0]], (9, 2, 4)))

        # The same program with P free (--reactive-p free) adds the gen_p pairs.
        free_p = build_problem(feeder_hr, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 12)
        pairs, blocks = internalize(free_p).blocks
        assert pairs.var.shape == (9, 1) and labels(free_p.eq, pairs.row) == {"gen_p"}
        assert blocks.var.shape == (9, 4)

    def test_blocks_that_break_the_rule_stay(self):
        # Without the bounds on p and m, H is zero on the null space of
        # [S; r] and B would be singular at dw = 0.
        prob = toy_block_problem()
        assert internalize(prob).blocks[0].var.tolist() == [[1, 2, 3]]
        unbounded = SimpleNamespace(**{**vars(prob), "lb": np.array([-2.0, -np.inf, -np.inf, -np.inf]),
                                       "ub": np.array([2.0, np.inf, np.inf, np.inf])})
        form = internalize(unbounded)
        assert form.blocks == () and form.keep.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("delta_w, delta_c", [(0.0, 0.0), (0.01, 0.0), (0.0, 0.2), (0.01, 0.2)])
    def test_lone_block_matches_hand_algebra(self, delta_w, delta_c):
        prob = toy_block_problem()
        form = internalize(prob)
        (blk,) = form.blocks
        assert blk.srow.tolist() == [[1]] and blk.row.tolist() == [0] and form.keep.tolist() == [0]
        pt = solver._evaluate(
            form, np.array([0.5, -0.3, 0.4, 0.7]), y=np.array([0.3, -0.2]),
            z=np.array([0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7]), s=np.array([0.4, 1.5, 2.5, 0.4, 0.6, 0.3, 0.7]),
        )
        mu = 0.3
        kkt, step, _ = assemble_one(form, pt, mu, delta_w, delta_c)
        assert kkt.shape == (1, 1)
        dx, dy, dz, ds = step(lambda r: np.linalg.solve(kkt, r))
        # The full system with every row kept (no fixed variables, so no y_fix).
        k_full, rhs_full = full_augmented_system(prob, pt, mu, delta_w, np.zeros(0), delta_c)
        want = np.linalg.solve(k_full, rhs_full)
        np.testing.assert_allclose(np.concatenate([dx, dy, dz]), want, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(ds, mu / pt.z[0] - pt.s[0] - (pt.s[0] / pt.z[0]) * dz, rtol=1e-14)

    @pytest.mark.parametrize("delta_w, delta_c", [(0.0, 0.0), (0.01, 0.0), (0.0, 0.2), (0.01, 0.2)])
    def test_lone_pair_matches_hand_algebra(self, delta_w, delta_c):
        # min -x s.t. x <= 2 and x - 1 = 0: the pair (x, row) leaves nothing behind.
        form = toy_form(ub=2.0, eq_row="linear")
        x, y, s, z, mu = np.array([0.5]), np.array([0.3]), np.array([1.5]), np.array([0.1]), 0.3
        kkt, step, _ = assemble_one(form, solver._evaluate(form, x, y=y, z=z, s=s), mu, delta_w, delta_c)
        assert kkt.shape == (0, 0)
        seen = []
        dx, dy, dz, ds = step(lambda r: seen.append(r) or np.zeros(0))
        assert [r.shape for r in seen] == [(0,)]
        h = 0.1 / 1.5 + delta_w
        r_x = -(-1.0 + 0.3 + 0.1 + (0.1 / 1.5) * (-1.5 + 3.0))
        r_y = -(0.5 - 1.0)
        want = np.linalg.solve([[h, 1.0], [1.0, -delta_c]], [r_x, r_y])
        np.testing.assert_allclose(np.concatenate([dx, dy]), want, rtol=1e-14)
        np.testing.assert_allclose(dz, (0.1 / 1.5) * (dx + (-1.5 + 3.0)), rtol=1e-15)

    @pytest.mark.parametrize(
        "fixture, period",
        [("feeder_hr", 3), ("feeder_hr", 19), ("synth4_unbal", 3), ("synth4_unbal", 19)],
    )
    def test_same_solves_without_elimination(self, request, monkeypatch, fixture, period):
        case = request.getfixturevalue(fixture)
        prob = build_problem(case, ScenarioSpec(5), period)
        reduced = solve(prob)
        monkeypatch.setattr(solver, "private_blocks", no_blocks)
        full = solve(prob)
        assert reduced.status == full.status == "optimal"
        assert reduced.iterations == full.iterations
        assert reduced.factorizations == full.factorizations
        p_reduced, _ = nlp.decode_generation(prob, reduced.x)
        p_full, _ = nlp.decode_generation(prob, full.x)
        assert np.abs(p_reduced - p_full).max() * case.s_base <= 1e-6


class TestLinearBasis:
    """The voltage-drop and KCL rows leave the KKT system through a constant basis Z = [T; I]."""

    def test_basis_spans_the_null_space_of_the_linear_rows(self, feeder_hr):
        prob = build_problem(feeder_hr, ScenarioSpec(5), 12)
        form = internalize(prob)
        nd, nc = form.basis.shape
        assert nd == form.lin_rows.size == 120 and form.keep.size - nd == nc == 48
        a_k = dense_jacobian(prob.eq, nlp.initial_point(prob))[np.ix_(form.lin_rows, form.keep)]
        z = np.vstack([form.basis, np.eye(form.keep.size - nd)[:nc]])
        assert np.abs(a_k[:, : nd + nc] @ z).max() <= 1e-12 * np.abs(a_k).max() * np.abs(z).max()
        # The other kept columns enter no linear row.
        assert not a_k[:, nd + nc :].any()

    @pytest.mark.parametrize("stage", ["active", "active-rated-q", "margin-pinned-p"])
    @pytest.mark.parametrize("fixture", ["feeder_hr", "synth4_unbal"])
    def test_basis_is_the_same_in_every_period(self, request, fixture, stage):
        # Periods differ only in their pins: load powers, and stage-2 P.  So the
        # whole form, not only the basis, is the same in every period.
        case = request.getfixturevalue(fixture)
        p_cap = np.array([g.p_cap for g in case.generators])[:, None, None]
        fixed_p = np.random.default_rng(3).uniform(0.0, 1.0, (len(case.generators), 3, case.horizon)) * p_cap

        def program(t):
            if stage == "margin-pinned-p":
                return build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), t, fixed_p=fixed_p[:, :, t])
            return build_problem(case, ScenarioSpec(5), t, bound_q_by_rating=stage == "active-rated-q")

        probs = [program(t) for t in range(case.horizon)]
        forms = [fingerprint(internalize(prob)) for prob in probs]
        assert all(f == forms[0] for f in forms[1:])
        assert not np.array_equal(probs[0].lb, probs[12].lb)

    @pytest.mark.parametrize("sigma", [1e8, 1e15])
    def test_split_rows_keep_the_step_of_the_full_system(self, feeder_hr, sigma):
        # Two voltage and two current limits on D near their end-game weights z/s;
        # condensed, the projection would spread them over the reduced rows.
        prob = build_problem(feeder_hr, ScenarioSpec(5), 12)
        form = internalize(prob)
        pt = perturbed_point(prob, form, 7)
        labels = [label.split("[")[0] for label in prob.ineq.labels]
        split = [labels.index("vmax"), labels.index("vmax") + 4, labels.index("imax"), labels.index("imax") + 7]
        assert form.ineq_on_d[split].all() and solver.SIGMA_CONDENSED_MAX < sigma
        s = pt.s.copy()
        s[0, split] = pt.z[0, split] / sigma
        pt = dataclasses.replace(pt, s=s)
        mu, delta_w = 0.1, 0.5
        kkt, step, _ = assemble_one(form, pt, mu, delta_w)
        assert kkt.shape[0] == 78 + len(split)
        dx, dy, dz, ds = step(lambda r: np.linalg.solve(kkt, r))

        y_fix = np.random.default_rng(8).standard_normal(np.count_nonzero(prob.lb == prob.ub))
        k_full, rhs_full = full_augmented_system(prob, pt, mu, delta_w, y_fix)
        ref = np.linalg.solve(k_full, rhs_full)
        n, me = prob.n_vars, prob.eq.n_rows
        dx_ref, dy_ref, dz_ref = ref[:n], ref[n : n + me], ref[n + me + y_fix.size :]
        for got, want in ((dx, dx_ref), (dy, dy_ref), (dz, dz_ref)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    def test_margin_solve_insensitive_to_roundoff_of_its_start(self, feeder_hr):
        # Stage 2 ends with current limits at z/s near 1e15; a start moved by
        # 1e-13 relative must not move the optimum beyond the solver's tolerance.
        stage1 = build_problem(feeder_hr, ScenarioSpec(5), 14, bound_q_by_rating=True)
        p_gen, _ = nlp.decode_generation(stage1, solve(stage1).x)
        prob = build_problem(
            feeder_hr, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 14, fixed_p=p_gen * (1 - 1e-4)
        )
        x0 = nlp.initial_point(prob)
        moved = x0.copy()
        moved[prob.lb != prob.ub] *= 1 + 1e-13
        a, b = solver.solve_batch(internalize(prob), np.array([x0, moved]))
        assert a.status == b.status == "optimal"
        assert abs(a.objective - b.objective) <= 1e-9
        _, q_a = nlp.decode_generation(prob, a.x)
        _, q_b = nlp.decode_generation(prob, b.x)
        assert np.abs(q_a - q_b).max() * feeder_hr.s_base <= 1e-6

    def test_rejects_linear_rows_that_do_not_determine_the_columns(self):
        # Two free variables, both lin_vars; rows x0 + x1 = 1 and 2 x0 + 2 x1 = 2.
        eq = QuadBlock(2)
        for k, coef in enumerate((1.0, 2.0)):
            eq.new_row(f"r{k}", const=-coef)
            eq.lin(k, 0, coef)
            eq.lin(k, 1, coef)
        eq.seal()
        ineq = QuadBlock(2)
        ineq.seal()
        toy = SimpleNamespace(
            n_vars=2, lb=np.full(2, -np.inf), ub=np.full(2, np.inf), eq=eq, ineq=ineq, obj_coef=np.zeros(2),
            lin_rows=np.array([0, 1]), lin_vars=np.array([0, 1]),
        )
        with pytest.raises(ValueError, match="linear rows"):
            internalize(toy)
        with pytest.raises(ValueError, match="linear rows"):
            internalize(SimpleNamespace(**{**vars(toy), "lin_rows": np.array([0])}))


class TestHddBlocks:
    """kkt_assemble forms H_DD T / 2 from H_DD's diagonal blocks, one gemm
    per instance and block, so an instance's matrix does not depend on its batch."""

    @pytest.mark.parametrize("scenario, stage", [(2, "active"), (3, "active"), (4, "active"), (5, "active"), (5, "margin")])
    @pytest.mark.parametrize("fixture", ["feeder_hr", "synth4_unbal", "feeder_au"])
    def test_blocks_rebuild_h_dd(self, request, fixture, scenario, stage):
        case = request.getfixturevalue(fixture)
        if stage == "margin":
            problem = stage2_program(case)[0]
        else:
            problem = build_problem(case, ScenarioSpec(scenario), 0)
        form = internalize(problem)
        nd, nc = form.basis.shape
        on_d = (form.hess_row < nd) & (form.hess_col < nd)
        # Distinct values on the pattern, zero in every other slot.
        hess = np.zeros(form.n_hess)
        hess[np.flatnonzero(on_d)] = np.arange(1.0, 1.0 + np.count_nonzero(on_d))
        want = np.zeros((nd, nd))
        want[form.hess_row[on_d], form.hess_col[on_d]] = hess[np.flatnonzero(on_d)]
        got = np.zeros((nd, nd))
        covered = np.zeros(nd, dtype=int)
        for rows, slots, half_t in form.dd_blocks:
            nb, width = rows.shape
            assert slots.shape == (nb, width, width) and half_t.shape == (nb, width, nc)
            got[rows[:, :, None], rows[:, None, :]] = hess[slots]
            np.add.at(covered, rows, 1)
            np.testing.assert_array_equal(half_t, 0.5 * form.basis[rows])
        np.testing.assert_array_equal(got, want)
        # Each row of H_DD with an entry lies in exactly one block.
        np.testing.assert_array_equal(covered, want.any(axis=1))
        # |u|^2 of a bus and phase and |i|^2 of a branch and phase on (re, im)
        # are blocks of 2; a bus's VUF joins its three phases' six, and their |u|^2.
        sizes = {2: [6], 3: [2], 4: [2, 6], 5: [2, 6]}[scenario]
        assert [rows.shape[1] for rows, _, _ in form.dd_blocks] == sizes

    @pytest.mark.parametrize("fixture, scenario", [("feeder_hr", 5), ("synth4_unbal", 4)])
    def test_matrix_of_an_instance_does_not_depend_on_its_batch(self, request, fixture, scenario):
        case = request.getfixturevalue(fixture)
        problem = build_problem(case, ScenarioSpec(scenario), 0)
        form = internalize(problem)
        _, x0 = stage_starts(problem, scales=(1.0,))
        rng = np.random.default_rng(5)
        n_b, mi = x0.shape[0], form.ineq.n_rows
        x0[:, form.free] += 0.05 * rng.standard_normal((n_b, form.free.size))
        z = rng.uniform(0.2, 1.0, (n_b, mi))
        s = rng.uniform(0.2, 1.0, (n_b, mi))
        # Every other instance has two limit rows on D beyond SIGMA_CONDENSED_MAX: split rows.
        on_d = np.flatnonzero(form.ineq_on_d)
        s[::2, on_d[[0, -1]]] = z[::2, on_d[[0, -1]]] / 1e9
        pt = solver._evaluate(form, x0, rng.standard_normal((n_b, form.eq.n_rows)), z, s)
        mu = rng.uniform(1e-3, 1e-1, n_b)
        kkt, dims, _, regularize = kkt_assemble(form, pt, mu)
        assert np.any(dims > dims.min())
        retried = np.arange(1, n_b, 3)
        regularize(np.full(n_b, 1e-4), np.full(n_b, 1e-8), retried)
        for k in range(n_b):
            alone, dim, _, reg_alone = kkt_assemble(form, pt.take([k]), mu[k])
            if k in retried:
                reg_alone(1e-4, 1e-8)
            assert dim[0] == dims[k]
            assert np.array_equal(kkt[: dims[k], : dims[k], k], alone[: dim[0], : dim[0], 0])


class TestOneEvaluationPerIterate:
    """Each point is evaluated once, rows and Jacobians together, and an
    accepted guard probe is not evaluated again as the next iterate."""

    @pytest.mark.parametrize("fixture, period", [("feeder_hr", 19), ("synth4_unbal", 12)])
    def test_each_point_evaluated_once(self, request, monkeypatch, fixture, period):
        prob = build_problem(request.getfixturevalue(fixture), ScenarioSpec(5), period)
        values, jacobians, iterates = [], [], []
        value, jacobian, assemble = QuadBlock.value, QuadBlock.jacobian_values, solver.kkt_assemble

        def counting_value(block, x):
            values.append(x.tobytes())
            return value(block, x)

        def counting_jacobian(block, x):
            jacobians.append(x.tobytes())
            return jacobian(block, x)

        def recording_assemble(form, pt, mu):
            iterates.append(pt.x.tobytes())
            return assemble(form, pt, mu)

        monkeypatch.setattr(QuadBlock, "value", counting_value)
        monkeypatch.setattr(QuadBlock, "jacobian_values", counting_jacobian)
        monkeypatch.setattr(solver, "kkt_assemble", recording_assemble)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert len(iterates) == sol.iterations
        # Evaluated points that never became an iterate: probes the guard rejected.
        rejected = len(set(values) - set(iterates) - {sol.x.tobytes()})
        assert len(values) == len(jacobians)
        assert len(values) <= 2 * (sol.iterations + 1 + rejected)


class TestOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.tol_kkt == 1e-8
        assert opts.max_iter == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol_kkt=-1e-8)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # a nan tolerance would never stop the iteration before max_iter
        with pytest.raises(ValueError, match="finite"):
            SolverOptions(tol_kkt=tol)


def stage_starts(problem, fixed_p=None, scales=(1.0, 0.9)):
    """The programs of problem's stage, one per period, and every period's
    starts at scales, as one (periods * scales, n_vars) batch."""
    pins = [None if fixed_p is None else fixed_p[:, :, t] for t in range(problem.case.horizon)]
    probs = [problem] + [nlp.pin_period(problem, t, pins[t]) for t in range(1, problem.case.horizon)]
    return probs, np.array([nlp.initial_point(prob, scale) for prob in probs for scale in scales])


def stage2_program(case):
    """The stage-2 margin program of a two-stage run, P pinned a whisker
    below the stage-1 optimum of every period."""
    stage1 = build_problem(case, ScenarioSpec(5), 0, bound_q_by_rating=True)
    probs, x0 = stage_starts(stage1, scales=(1.0,))
    sols = solver.solve_batch(internalize(stage1), x0)
    assert all(sol.status == "optimal" for sol in sols)
    fixed_p = np.stack([nlp.decode_generation(p, sol.x)[0] for p, sol in zip(probs, sols)], axis=2) * (1.0 - 1e-4)
    spec = ScenarioSpec(5, Objective.REACTIVE_MARGIN)
    return build_problem(case, spec, 0, fixed_p=fixed_p[:, :, 0]), fixed_p


class TestLockstepBatch:
    """A stage's periods and starts are solved as one batch, in which each
    instance iterates exactly as it would alone."""

    @pytest.mark.parametrize(
        "fixture, scenario, stage",
        [("feeder_hr", 5, "active"), ("feeder_hr", 5, "margin")]
        + [("synth4_unbal", scenario, "active") for scenario in (2, 3, 4, 5)],
    )
    def test_batch_does_not_change_its_instances(self, request, fixture, scenario, stage):
        case = request.getfixturevalue(fixture)
        if stage == "margin":
            problem, fixed_p = stage2_program(case)
        else:
            problem, fixed_p = build_problem(case, ScenarioSpec(scenario), 0), None
        probs, x0 = stage_starts(problem, fixed_p)
        form = internalize(problem)
        batch = solver.solve_batch(form, x0)
        assert len(batch) == 2 * case.horizon
        for t in (3, 12, 19):
            for k in (2 * t, 2 * t + 1):
                (alone,) = solver.solve_batch(form, x0[k][None])
                got = batch[k]
                assert (got.status, got.iterations, got.factorizations) == (
                    alone.status, alone.iterations, alone.factorizations)
                np.testing.assert_allclose(got.x, alone.x, rtol=0.0, atol=1e-12)

    def test_a_failed_instance_leaves_the_others_alone(self, synth2):
        # Period 7's load at 100 times its profile: both its starts end
        # infeasible, and every other instance matches its lone solve.
        loads = []
        for ld in synth2.loads:
            p, q = ld.p.copy(), ld.q.copy()
            p[:, 7] *= 100.0
            q[:, 7] *= 100.0
            loads.append(dataclasses.replace(ld, p=p, q=q))
        case = dataclasses.replace(synth2, loads=tuple(loads))
        problem = build_problem(case, ScenarioSpec(5), 0)
        probs, x0 = stage_starts(problem)
        form = internalize(problem)
        batch = solver.solve_batch(form, x0)
        failed = [k for k, sol in enumerate(batch) if sol.status != "optimal"]
        assert failed == [14, 15]
        for k, got in enumerate(batch):
            (alone,) = solver.solve_batch(form, x0[k][None])
            assert (got.status, got.iterations, got.factorizations) == (
                alone.status, alone.iterations, alone.factorizations)
            np.testing.assert_allclose(got.x, alone.x, rtol=0.0, atol=1e-12)

    def test_a_singular_instance_leaves_the_others_alone(self, monkeypatch, synth2):
        # Period 7's start 1 is singular from its first iteration: it ends
        # there, at its start, and every other instance is bit for bit the
        # one of the unforced batch.
        problem = build_problem(synth2, ScenarioSpec(5), 0)
        probs, x0 = stage_starts(problem)
        form = internalize(problem)
        unforced = solver.solve_batch(form, x0)
        force_singular(monkeypatch, [15])
        forced = solver.solve_batch(form, x0)
        assert forced[15].status == "singular" and forced[15].iterations == 0
        assert np.array_equal(forced[15].x, x0[15]) and forced[15].factorizations > 20
        for k, (got, want) in enumerate(zip(forced, unforced)):
            if k != 15:
                assert got.status == want.status == "optimal"
                assert np.array_equal(got.x, want.x)
                assert (got.iterations, got.factorizations) == (want.iterations, want.factorizations)
