import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from lvdoe import nlp, oracle, phasecalc as pc, solver
from lvdoe.netmodel import load_network
from lvdoe.nlp import Objective, QuadBlock, ScenarioSpec, build_custom, build_problem
from lvdoe.phasecalc import LimitKind
from lvdoe.solver import SolverOptions, internalize, kkt_assemble, solve

from conftest import fixture_path, two_bus_case


def toy_form(ub: float = 2.0, eq_row: bool = False) -> solver.InternalForm:
    """min -x subject to x <= ub, optionally with the equality row x - 1 = 0."""
    eq = QuadBlock(1)
    if eq_row:
        eq.lin(eq.new_row("x-1", const=-1.0), 0, 1.0)
    eq.seal()
    ineq = QuadBlock(1)
    ineq.seal()
    toy = SimpleNamespace(
        n_vars=1, lb=np.array([-np.inf]), ub=np.array([ub]), eq=eq, ineq=ineq, obj_coef=np.array([1.0])
    )
    return internalize(toy)


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


def full_augmented_system(prob, form, pt, mu, delta_w, y_fix):
    """The uncondensed reference: fixed variables as equality rows, inequality
    rows kept with their -s/z diagonal.  Unknowns (dx, dy, dy_fix, dz)."""
    n, me, mi = prob.n_vars, prob.eq.n_rows, form.ineq.n_rows
    fixed = np.flatnonzero(prob.lb == prob.ub)
    x, y, z, s = pt.x, pt.y, pt.z, pt.s
    w = delta_w * np.eye(n)
    for block, lam in ((form.eq, y), (form.ineq, z)):
        np.add.at(w, (block.qi, block.qj), lam[block.qk] * block.qv)
    jg, jh = form.eq.jacobian(x), form.ineq.jacobian(x)
    jf = np.eye(n)[fixed]
    cons = np.vstack([jg, jf, jh])
    dim = n + me + fixed.size + mi
    k = np.zeros((dim, dim))
    k[:n, :n] = w
    k[n:, :n] = cons
    k[:n, n:] = cons.T
    k[n + me + fixed.size :, n + me + fixed.size :] = -np.diag(s / z)
    grad = form.c + jg.T @ y + jf.T @ y_fix + jh.T @ z
    rhs = np.concatenate([-grad, -form.eq.value(x), -(x[fixed] - prob.lb[fixed]), -(form.ineq.value(x) + mu / z)])
    return k, rhs


class TestKktAssemble:
    def test_one_by_one_matches_hand_algebra(self):
        form = toy_form(ub=2.0)
        x, s, z, mu = np.array([0.5]), np.array([1.5]), np.array([0.1]), 0.3
        kkt, rhs, expand = kkt_assemble(form, solver._evaluate(form, x, y=np.zeros(0), z=z, s=s), mu)
        # [z/s]: the bound row x - ub <= 0 condensed into the Hessian
        np.testing.assert_allclose(kkt, [[0.1 / 1.5]], rtol=1e-15)
        # rhs: -(c + Jh' z + Jh' (z/s)(h + mu/z)) with h = x - ub = -1.5
        np.testing.assert_allclose(rhs, [-(-1.0 + 0.1 + (0.1 / 1.5) * (-1.5 + 3.0))], rtol=1e-15)
        # with the regularization dw = 0.01 that solve adds on a retry
        dx, dy, dz, ds = expand(np.linalg.solve(kkt + 0.01, rhs))
        np.testing.assert_allclose(dx, rhs / (0.01 + 0.1 / 1.5), rtol=1e-15)
        np.testing.assert_allclose(dz, (0.1 / 1.5) * (dx + (-1.5 + 3.0)), rtol=1e-15)
        np.testing.assert_allclose(ds, 3.0 - 1.5 - 15.0 * dz, rtol=1e-15)
        assert dy.size == 0

    def test_symmetry_on_real_problem(self):
        case = two_bus_case()
        prob = build_problem(case, ScenarioSpec(5), 0)
        form = internalize(prob)
        pt = perturbed_point(prob, form, 2)
        kkt, _, _ = kkt_assemble(form, pt, mu=0.1)
        assert isinstance(kkt, np.ndarray) and kkt.flags.f_contiguous
        assert kkt.shape[0] == np.count_nonzero(prob.lb != prob.ub) + prob.eq.n_rows
        assert np.abs(kkt - kkt.T).max() <= 1e-14

    def test_rejects_nonpositive_mu(self):
        form = toy_form()
        with pytest.raises(ValueError, match="mu"):
            kkt_assemble(form, solver._evaluate(form, np.zeros(1), np.zeros(0), np.ones(1), np.ones(1)), 0.0)

    @pytest.mark.parametrize("network", ["two_bus", "synth4"])
    def test_condensed_step_matches_full_augmented_system(self, network, synth4):
        case = two_bus_case() if network == "two_bus" else synth4
        prob = build_problem(case, ScenarioSpec(5), 0)
        form = internalize(prob)
        pt = perturbed_point(prob, form, 7)
        mu, delta_w = 0.1, 0.5
        y_fix = np.random.default_rng(8).standard_normal(np.count_nonzero(prob.lb == prob.ub))
        kkt, rhs, expand = kkt_assemble(form, pt, mu)
        kkt[np.arange(form.free.size), np.arange(form.free.size)] += delta_w
        dx, dy, dz, ds = expand(np.linalg.solve(kkt, rhs))

        k_full, rhs_full = full_augmented_system(prob, form, pt, mu, delta_w, y_fix)
        ref = np.linalg.solve(k_full, rhs_full)
        n, me = prob.n_vars, prob.eq.n_rows
        dx_ref, dy_ref, dz_ref = ref[:n], ref[n : n + me], ref[n + me + y_fix.size :]
        ds_ref = mu / pt.z - pt.s - (pt.s / pt.z) * dz_ref
        for got, want in ((dx, dx_ref), (dy, dy_ref), (dz, dz_ref), (ds, ds_ref)):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())
        assert np.all(dx[prob.lb == prob.ub] == 0.0)

    @pytest.mark.parametrize("network", ["two_bus", "synth4"])
    def test_inertia_test_agrees_with_full_system(self, network, synth4):
        case = two_bus_case() if network == "two_bus" else synth4
        prob = build_problem(case, ScenarioSpec(5), 0)
        form = internalize(prob)
        pt = perturbed_point(prob, form, 3)
        y_fix = np.zeros(np.count_nonzero(prob.lb == prob.ub))
        outcomes = set()
        # A negative shift stands in for negative curvature of W.
        for delta_w in (-10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0, 100.0):
            kkt, _, _ = kkt_assemble(form, pt, 0.1)
            kkt[np.arange(form.free.size), np.arange(form.free.size)] += delta_w
            _, (pos, _, zero) = solver._ldlt(kkt)
            k_full, _ = full_augmented_system(prob, form, pt, 0.1, delta_w, y_fix)
            full_pos = int(np.count_nonzero(np.linalg.eigvalsh(k_full) > 0.0))
            condensed_ok = pos == form.free.size and zero == 0
            assert condensed_ok == (full_pos == prob.n_vars)
            outcomes.add(condensed_ok)
        assert outcomes == {True, False}


class TestLdlt:
    def test_inertia_of_saddle(self):
        # [[z/s, 1], [1, 0]]: one free variable, one equality row
        form = toy_form(eq_row=True)
        pt = solver._evaluate(form, np.array([1.0]), np.zeros(1), np.ones(1), np.ones(1))
        kkt, _, _ = kkt_assemble(form, pt, 0.1)
        np.testing.assert_allclose(kkt, [[1.0, 1.0], [1.0, 0.0]])
        _, inertia = solver._ldlt(kkt)
        assert inertia == (1, 1, 0)

    def test_solve_matches_dense_reference(self):
        rng = np.random.default_rng(4)
        for n in (3, 10, 40):
            a = rng.standard_normal((n, n))
            k = a + a.T + 0.1 * np.eye(n)
            b = rng.standard_normal(n)
            fn, inertia = solver._ldlt(k)
            np.testing.assert_allclose(fn(b), np.linalg.solve(k, b), rtol=1e-9, atol=1e-9)
            ev = np.linalg.eigvalsh(k)
            assert inertia == ((ev > 0).sum(), (ev < 0).sum(), 0)

    def test_detects_singularity(self):
        k = np.zeros((2, 2))
        k[0, 0] = 1.0
        _, inertia = solver._ldlt(k)
        assert inertia[2] == 1


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
        active = [prob.ineq.labels[i] for i in np.flatnonzero(sol.ineq_active)]
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
        # Slack voltages in an active-export solve, and every pinned P as
        # well in a two-stage stage-2 (reactive-margin) solve.
        case = synth4_unbal
        stage1 = build_problem(case, ScenarioSpec(5), 19, bound_q_by_rating=True)
        sol1 = solve(stage1)
        assert sol1.status == "optimal"
        pg, _ = nlp.decode_generation(stage1, sol1.x)
        fixed_p = pg * (1.0 - 1e-4)  # dense (n_gen, 3), as two-stage runs pass it
        stage2 = build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 19, fixed_p=fixed_p)
        sol2 = solve(stage2)
        assert sol2.status == "optimal"
        assert np.count_nonzero(stage2.lb == stage2.ub) > np.count_nonzero(stage1.lb == stage1.ub) == 6
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


class TestDegenerateJacobianRule:
    """Skipping the unregularized attempt once it has been singular three
    iterations running only removes factorizations that would fail."""

    THRESHOLD = solver.DEGENERATE_ITERATIONS

    @staticmethod
    def solve_counting(monkeypatch, prob, threshold):
        calls = []
        ldlt = solver._ldlt

        def counting(k):
            calls.append(k.shape[0])
            return ldlt(k)

        monkeypatch.setattr(solver, "_ldlt", counting)
        monkeypatch.setattr(solver, "DEGENERATE_ITERATIONS", threshold)
        sol = solve(prob)
        assert sol.factorizations == len(calls)
        return sol

    @pytest.mark.parametrize(
        "fixture, period",
        [("feeder_hr", 3), ("feeder_hr", 19), ("synth4_unbal", 3), ("synth4_unbal", 19)],
    )
    def test_same_iterates_fewer_factorizations(self, request, monkeypatch, fixture, period):
        # Co-located units with free Q make every unregularized matrix singular.
        prob = build_problem(request.getfixturevalue(fixture), ScenarioSpec(5), period)
        ladder = self.solve_counting(monkeypatch, prob, 10**9)
        rule = self.solve_counting(monkeypatch, prob, self.THRESHOLD)
        assert rule.status == ladder.status == "optimal"
        assert rule.iterations == ladder.iterations
        assert rule.x.tobytes() == ladder.x.tobytes()
        assert rule.factorizations < ladder.factorizations

    def test_nonsingular_problem_unchanged(self, monkeypatch):
        case = load_network(fixture_path("synth4.json"), fixture_path("synth4_loads.csv"))
        prob = build_problem(case, ScenarioSpec(5), 12)
        ladder = self.solve_counting(monkeypatch, prob, 10**9)
        rule = self.solve_counting(monkeypatch, prob, self.THRESHOLD)
        assert rule.factorizations == ladder.factorizations
        assert rule.x.tobytes() == ladder.x.tobytes()


class TestOneEvaluationPerIterate:
    """Each point is evaluated once, rows and Jacobians together, and an
    accepted guard probe is not evaluated again as the next iterate."""

    @pytest.mark.parametrize("fixture, period", [("feeder_hr", 19), ("synth4_unbal", 12)])
    def test_each_point_evaluated_once(self, request, monkeypatch, fixture, period):
        prob = build_problem(request.getfixturevalue(fixture), ScenarioSpec(5), period)
        values, jacobians, iterates = [], [], []
        value, jacobian, assemble = QuadBlock.value, QuadBlock.jacobian, solver.kkt_assemble

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
        monkeypatch.setattr(QuadBlock, "jacobian", counting_jacobian)
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
