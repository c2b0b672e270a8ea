import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvdoe import nlp, oracle, phasecalc as pc, solver
from lvdoe.netmodel import PHASE_INDEX, TreeIndex, slack_reference
from lvdoe.nlp import Objective, ScenarioSpec, build_custom, build_problem
from lvdoe.oracle import (
    BISECTION_TOL,
    InfeasibleAtZeroExportError,
    InjectionSet,
    PowerFlowDivergedError,
    doe_bisection,
    solve_pf,
    validate,
)
from lvdoe.phasecalc import LimitKind

from conftest import two_bus_case


def solution_injections(case, prob, x) -> InjectionSet:
    """Loads at their profiles, generation as the optimizer set it in prob's period."""
    inj = InjectionSet.from_case(case)
    inj.p_gen[:, :, prob.period], inj.q_gen[:, :, prob.period] = nlp.decode_generation(prob, x)
    return inj


def one_generator(case, gen_id: str, p: float, q: float, period: int) -> InjectionSet:
    """Loads at their profiles, gen_id at (p, q) pu on each of its phases in period."""
    inj = InjectionSet.from_case(case)
    g = case.gen_index(gen_id)
    for ph in case.generators[g].phases:
        inj.p_gen[g, PHASE_INDEX[ph], period] = p
        inj.q_gen[g, PHASE_INDEX[ph], period] = q
    return inj


def optimizer_voltages(prob, x) -> np.ndarray:
    return nlp.decode_state(prob, x).u[:, :, 0]


def feasible_at(case, gen_id: str, limits, p: float, period: int = 0) -> bool:
    """The search's question at one export, answered by check_limits."""
    try:
        state = solve_pf(case, one_generator(case, gen_id, p, 0.0, period), period)
    except PowerFlowDivergedError:
        return False
    return not pc.check_limits(state, limits)


def pure_bisection(case, gen_id: str, limits, period: int) -> float:
    """Reference search: halve [0, 10 x p_cap] until it is BISECTION_TOL wide."""
    lo, hi = 0.0, oracle.BRACKET_CAP_MULTIPLE * case.generators[case.gen_index(gen_id)].p_cap
    if feasible_at(case, gen_id, limits, hi, period):
        return hi
    if not feasible_at(case, gen_id, limits, lo, period):
        raise InfeasibleAtZeroExportError(gen_id)
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible_at(case, gen_id, limits, mid, period) else (lo, mid)
    return lo


def dense_zp(case) -> np.ndarray:
    """blockdiag(Z) (P x I3) over every bus, built entry by entry."""
    n_br, n = len(case.branches), len(case.buses)
    zp = np.zeros((3 * n_br, 3 * n), dtype=complex)
    for l, br in enumerate(case.branches):
        for m in range(n):
            for p in range(3):
                for q in range(3):
                    zp[3 * l + p, 3 * m + q] = br.z[p, q] * case.tree.P[l, m]
    return zp


def count_power_flows(monkeypatch) -> list[float]:
    """Record the target export of every oracle.solve_pf call from now on."""
    probes = []

    def counted(case, injections, period):
        probes.append(float(injections.p_gen[:, :, period].max()))
        return solve_pf(case, injections, period)

    monkeypatch.setattr(oracle, "solve_pf", counted)
    return probes


class TestSolvePf:
    def test_zero_injections_propagate_slack(self):
        case = two_bus_case(load=False)
        state = solve_pf(case, InjectionSet.from_case(case), 0)
        ref = slack_reference()
        for n in range(2):
            np.testing.assert_allclose(state.u[n, :, 0], ref, atol=1e-14)
        assert np.abs(state.i_branch).max() == 0.0

    def test_single_load_drops_voltage(self):
        case = two_bus_case(load_kw=1.0)
        state = solve_pf(case, InjectionSet.from_case(case), 0)
        # load is on phase b; that phase sags, the others stay at nominal
        assert abs(state.u[1, 1, 0]) < 1.0
        assert pc.max_kcl_residual(state) <= 1e-10
        assert pc.max_voltage_drop_residual(state) <= 1e-10

    def test_element_powers_match_injections(self):
        case = two_bus_case(load_kw=2.0)
        inj = one_generator(case, "g1", 0.02, 0.005, 0)
        state = solve_pf(case, inj, 0)
        # the load (phase b) and the unit (phase a) both sit at bus 1
        s_load = state.u[1, 1, 0] * np.conj(state.i_load[0, 1, 0])
        assert s_load.real == pytest.approx(inj.p_load[0, 1, 0], abs=1e-10)
        assert s_load.imag == pytest.approx(inj.q_load[0, 1, 0], abs=1e-10)
        s_gen = state.u[1, 0, 0] * np.conj(state.i_gen[0, 0, 0])
        assert s_gen.real == pytest.approx(0.02, abs=1e-10)
        assert s_gen.imag == pytest.approx(0.005, abs=1e-10)

    def test_nlp_solution_reproduced(self):
        case = two_bus_case()
        prob = build_problem(case, ScenarioSpec(5), 1)
        sol = solver.solve(prob)
        assert sol.status == "optimal"
        pf_state = solve_pf(case, solution_injections(case, prob, sol.x), 1)
        assert np.abs(pf_state.u[:, :, 0] - optimizer_voltages(prob, sol.x)).max() <= 1e-6

    def test_divergence_on_absurd_injection(self):
        case = two_bus_case()
        inj = one_generator(case, "g1", 1000.0, 0.0, 0)
        with pytest.raises(PowerFlowDivergedError):
            solve_pf(case, inj, 0)

    def test_multi_branch_tree_orientation(self, synth4):
        # synth4 stores all branches pointing away from the slack; flip ln1,
        # which feeds two buses, in a copy and confirm identical physics
        l = synth4.branch_pos["ln1"]
        flipped = dataclasses.replace(synth4, branches=tuple(
            dataclasses.replace(br, from_bus=br.to_bus, to_bus=br.from_bus) if k == l else br
            for k, br in enumerate(synth4.branches)
        ))
        assert TreeIndex(flipped).down_sign[l] == -1.0
        for case in (synth4, flipped):
            dense = dense_zp(case)
            assert not dense[:, 3 * case.slack : 3 * case.slack + 3].any()
            np.testing.assert_array_equal(case.zp_u, np.delete(dense, np.s_[3 * case.slack : 3 * case.slack + 3], axis=1))
        assert flipped.zp_u is not synth4.zp_u
        inj = one_generator(synth4, "g1", 0.02, 0.0, 12)
        stored = solve_pf(synth4, inj, 12)
        state = solve_pf(flipped, inj, 12)
        np.testing.assert_allclose(state.u, stored.u, rtol=0.0, atol=1e-12)
        expect = stored.i_branch.copy()
        expect[l] *= -1.0
        np.testing.assert_allclose(state.i_branch, expect, rtol=0.0, atol=1e-12)
        assert pc.max_kcl_residual(state) <= 1e-10
        assert pc.max_voltage_drop_residual(state) <= 1e-10

        prob = build_problem(flipped, ScenarioSpec(5), 12)
        kcl = np.array([label.startswith("kcl_") for label in prob.eq.labels])
        assert np.abs(prob.eq.value(nlp.initial_point(prob))[kcl]).max() <= 1e-12


class TestBisection:
    def test_unconstrained_returns_bracket_top(self):
        case = two_bus_case(vmax=2.0, vmin=0.1, vuf_max=0.5, i_max=5000.0, load=False)
        limit = doe_bisection(case, "g1", {LimitKind.VOLTAGE}, 0)
        assert limit == pytest.approx(10.0 * case.generators[0].p_cap)

    def test_voltage_limit_matches_closed_form(self):
        case = two_bus_case(load=False)
        br = case.branches[0]
        r, x = br.r[0, 0], br.x[0, 0]
        z2 = r * r + x * x
        vmax = case.buses[1].vmax
        # |U|^2 = m solves m^2 - m(1 + 2rP) + |z|^2 P^2 = 0; at the limit
        # m = vmax^2, giving the quadratic below (first positive root).
        p_closed = (r * vmax**2 - vmax * math.sqrt(r**2 * vmax**2 - z2 * (vmax**2 - 1))) / z2
        limit = doe_bisection(case, "g1", {LimitKind.VOLTAGE}, 0)
        assert limit == pytest.approx(p_closed, abs=2e-6)

    def test_current_limit_matches_closed_form(self):
        case = two_bus_case(load=False)
        br = case.branches[0]
        r, x = br.r[0, 0], br.x[0, 0]
        i = br.i_max
        p_closed = r * i * i + i * math.sqrt(1.0 - (i * x) ** 2)
        limit = doe_bisection(case, "g1", {LimitKind.CURRENT}, 0)
        assert limit == pytest.approx(p_closed, abs=2e-6)

    def test_full_set_at_most_each_individual_limit(self):
        case = two_bus_case(load=False)
        singles = [
            doe_bisection(case, "g1", {k}, 0)
            for k in (LimitKind.VOLTAGE, LimitKind.CURRENT, LimitKind.VUF)
        ]
        combined = doe_bisection(case, "g1", set(pc.ALL_LIMITS), 0)
        assert combined <= min(singles) + 1e-6

    def test_monotone_in_constraint_set(self):
        case = two_bus_case(load=False)
        l_v = doe_bisection(case, "g1", {LimitKind.VOLTAGE}, 0)
        l_vc = doe_bisection(case, "g1", {LimitKind.VOLTAGE, LimitKind.CURRENT}, 0)
        l_all = doe_bisection(case, "g1", set(pc.ALL_LIMITS), 0)
        assert l_v >= l_vc >= l_all

    def test_infeasible_at_zero_export(self):
        case = two_bus_case(load_kw=3.0, vmin=1.02, vmax=1.2)
        with pytest.raises(InfeasibleAtZeroExportError):
            doe_bisection(case, "g1", {LimitKind.VOLTAGE}, 0)

    @settings(deadline=None)
    @given(
        r=st.floats(0.05, 0.5),
        x=st.floats(0.0, 0.1),
        i_max=st.floats(10.0, 200.0),
        load_kw=st.floats(0.0, 3.0),
        vmin=st.floats(0.85, 1.0),
        vmax=st.floats(1.01, 1.1),
        vuf_max=st.floats(0.0, 0.03),
        limits=st.sets(st.sampled_from(list(LimitKind))),
    )
    def test_limit_is_feasible_and_the_tolerance_above_it_is_not(self, r, x, i_max, load_kw, vmin, vmax,
                                                                   vuf_max, limits):
        case = two_bus_case(r_diag=r, x_diag=x, i_max=i_max, load_kw=load_kw, horizon=1,
                            vmin=vmin, vmax=vmax, vuf_max=vuf_max)
        try:
            limit = doe_bisection(case, "g1", limits, 0)
        except InfeasibleAtZeroExportError:
            assert not feasible_at(case, "g1", limits, 0.0)
            return
        top = oracle.BRACKET_CAP_MULTIPLE * case.generators[0].p_cap
        assert feasible_at(case, "g1", limits, limit)
        if limit < top:
            assert not feasible_at(case, "g1", limits, min(limit + BISECTION_TOL, top))

    def test_diverged_top_falls_back_to_the_midpoint(self, monkeypatch):
        base = two_bus_case(load=False)
        case = dataclasses.replace(base, generators=(dataclasses.replace(base.generators[0], p_cap=100.0),))
        top = oracle.BRACKET_CAP_MULTIPLE * 100.0
        probes = count_power_flows(monkeypatch)
        limit = doe_bisection(case, "g1", pc.ALL_LIMITS, 0)
        assert probes[:3] == [top, 0.0, 0.5 * top]
        with pytest.raises(PowerFlowDivergedError):
            solve_pf(case, one_generator(case, "g1", top, 0.0, 0), 0)
        assert feasible_at(case, "g1", pc.ALL_LIMITS, limit)
        assert not feasible_at(case, "g1", pc.ALL_LIMITS, limit + BISECTION_TOL)

    @pytest.mark.parametrize("root", [0.0123, 0.1234567, 0.3])
    def test_midpoint_guard_bounds_a_step_shaped_excess(self, monkeypatch, root):
        # An excess that jumps from -1 to 1e-12 at the root leaves the secant
        # creeping 0.5e-6 at a time (over 200 probes); three probes that do
        # not halve the bracket force a midpoint, so every four probes halve it.
        case = two_bus_case(load=False)
        probes = []

        def export_as_state(case, injections, period):
            probes.append(injections.p_gen[0, 0, period])
            return probes[-1]

        monkeypatch.setattr(oracle, "solve_pf", export_as_state)
        monkeypatch.setattr(oracle, "limit_excess", lambda p, cs: {"step": np.array([1e-12 if p >= root else -1.0])})
        limit = doe_bisection(case, "g1", pc.ALL_LIMITS, 0)
        assert root - BISECTION_TOL <= limit < root
        top = oracle.BRACKET_CAP_MULTIPLE * case.generators[0].p_cap
        assert len(probes) <= 2 + 4 * math.ceil(math.log2(top / BISECTION_TOL))

    def test_au_oracle_unit_needs_few_power_flows(self, feeder_au, monkeypatch):
        # The benchmark's unit: pure bisection spends 21 power flows on each
        # period; the search needs 7 here, and 9 without its Illinois step.
        total = 0
        for t in range(feeder_au.horizon):
            reference = pure_bisection(feeder_au, "g20", pc.ALL_LIMITS, t)
            probes = count_power_flows(monkeypatch)
            limit = doe_bisection(feeder_au, "g20", pc.ALL_LIMITS, t)
            monkeypatch.undo()
            assert len(probes) <= 12
            assert abs(limit - reference) <= BISECTION_TOL
            total += len(probes)
        assert total <= 8 * feeder_au.horizon

    def test_au_oracle_unit_newton_steps(self, feeder_au, monkeypatch):
        # Every Newton step is one linear solve.  A wrong Jacobian term that
        # still converges within PF_MAX_ITER takes more steps than the 20 per
        # period that the exact Newton method takes here.
        solves = []
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or real_solve(a, b))
        for t in range(feeder_au.horizon):
            del solves[:]
            doe_bisection(feeder_au, "g20", pc.ALL_LIMITS, t)
            assert len(solves) == 20, t


class TestValidateSolution:
    @staticmethod
    def solved(spec, period=0):
        case = two_bus_case()
        prob = build_problem(case, spec, period)
        sol = solver.solve(prob)
        assert sol.status == "optimal"
        return case, prob, sol.x

    def test_clean_solution_validates(self):
        case, prob, x = self.solved(ScenarioSpec(5))
        report = validate(case, solution_injections(case, prob, x), 0, prob.constraint_set,
                          optimizer_voltages(prob, x))
        assert report.ok
        assert report.max_voltage_deviation <= 1e-6
        assert report.violations == ()
        assert report.error is None

    def test_empty_limit_set_reports_state(self):
        # Scenario 1's limit set: a scenario-5 optimum checked against it.
        case, prob, x = self.solved(ScenarioSpec(5))
        assert nlp.constraint_set_for(ScenarioSpec(1)) == frozenset()
        report = validate(case, solution_injections(case, prob, x), 0, frozenset(),
                          optimizer_voltages(prob, x))
        # no network limits are checked, but the re-solve still happens
        assert report.violations == ()
        assert report.max_voltage_deviation <= 1e-6
        assert report.ok

    def test_corrupted_solution_flagged(self):
        # Twice the optimal export: the oracle's own state breaks the limits.
        case, prob, x = self.solved(ScenarioSpec(5))
        xc = x.copy()
        xc[prob.layout.pg[0]] *= 2.0
        report = validate(case, solution_injections(case, prob, xc), 0, prob.constraint_set,
                          optimizer_voltages(prob, xc))
        assert not report.ok
        assert report.violations
        assert report.max_voltage_deviation > 1e-3

    def test_limits_are_checked_on_the_oracle_state(self):
        # A corrupted optimizer voltage shows as a deviation only: the
        # injections are untouched, so the oracle's state breaks no limit.
        case, prob, x = self.solved(ScenarioSpec(5))
        xc = x.copy()
        xc[prob.layout.u_re[1, 0]] += 0.2
        report = validate(case, solution_injections(case, prob, xc), 0, prob.constraint_set,
                          optimizer_voltages(prob, xc))
        assert not report.ok
        assert report.max_voltage_deviation > 0.1
        assert report.violations == ()

    def test_violations_carry_the_checked_period(self, feeder_hr):
        # Every unit at three times its cap in period 17 overloads branches
        # and lifts voltages; the one-period state of solve_pf numbers them 0.
        inj = InjectionSet.from_case(feeder_hr)
        for g, ph in feeder_hr.gen_entries():
            inj.p_gen[g, ph, 17] = 3.0 * feeder_hr.generators[g].p_cap
        report = validate(feeder_hr, inj, 17, pc.ALL_LIMITS)
        assert {v.kind for v in report.violations} == {"current", "voltage_high"}
        assert {v.period for v in report.violations} == {17}
        own = pc.check_limits(solve_pf(feeder_hr, inj, 17), pc.ALL_LIMITS, tol=1e-6)
        assert [dataclasses.replace(v, period=17) for v in own] == list(report.violations)

    def test_diverged_power_flow_fails_the_period(self):
        case = two_bus_case()
        inj = one_generator(case, "g1", 1000.0, 0.0, 0)
        report = validate(case, inj, 0, pc.ALL_LIMITS)
        assert not report.ok
        assert report.error
        assert report.violations == ()


def test_oracle_imports_neither_nlp_nor_solver():
    """The oracle must stay independent of the optimization path it checks."""
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["lvdoe" if node.level else None, node.module]))
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    assert imported
    assert not imported & {"lvdoe.nlp", "lvdoe.solver"}
