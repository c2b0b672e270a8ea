"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
Tolerances are fixed here and nowhere else.
"""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest

from lvdoe import nlp, oracle, phasecalc as pc, solver
from lvdoe.cli import main, run_scenario
from lvdoe.netmodel import load_network
from lvdoe.nlp import Objective, ScenarioSpec, build_custom, build_problem
from lvdoe.phasecalc import LimitKind
from lvdoe.solver import SolverOptions

from conftest import fixture_path


def _solve_all_periods(case, scenario=5):
    """Cold-start solve of every period; returns decoded states and wall time."""
    states = []
    t0 = time.perf_counter()
    for t in range(case.horizon):
        prob = build_problem(case, ScenarioSpec(scenario), t)
        sol = solver.solve(prob)
        assert sol.status == "optimal", f"period {t}: {sol.status}"
        states.append(nlp.decode_state(prob, sol.x))
    return states, time.perf_counter() - t0


def test_criterion_1_static_cap_reproduction(feeder_hr, feeder_au):
    """43 x 3.68 kW x 24 h and 63 x 5 kW x 24 h, closed form, exact."""
    t0 = time.perf_counter()
    hr = run_scenario(feeder_hr, ScenarioSpec(1))
    au = run_scenario(feeder_au, ScenarioSpec(1))
    elapsed = time.perf_counter() - t0
    assert hr.total_kwh == pytest.approx(3797.76, abs=1e-6)
    assert au.total_kwh == pytest.approx(7560.00, abs=1e-6)
    assert hr.total_kvarh == pytest.approx(0.0, abs=1e-6)
    assert au.total_kvarh == pytest.approx(0.0, abs=1e-6)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: static caps 3797.76 / 7560.00 kWh exact ({elapsed:.3f}s)")


def test_criterion_2_physics_residuals(synth2, synth4, synth4_unbal, feeder_hr, feeder_au):
    """Every converged solve decodes to a state with residuals <= 1e-8 pu."""
    budgets = {}
    worst = 0.0

    for name, case in (("synth2", synth2), ("synth4", synth4), ("synth4_unbal", synth4_unbal), ("feeder_hr", feeder_hr)):
        states, elapsed = _solve_all_periods(case)
        for st in states:
            worst = max(worst, pc.max_kcl_residual(st), pc.max_voltage_drop_residual(st))
        budgets[name] = elapsed
        assert elapsed < 30.0, f"{name}: {elapsed:.1f}s"

    # The 63-generator feeder is exercised with its closed-form scenario over
    # the full horizon (power-flow states at the cap injections) plus a full
    # optimization of a peak period.
    t0 = time.perf_counter()
    inj = oracle.InjectionSet.from_case(feeder_au)
    p_gen = inj.p_gen.copy()
    for g, ph in feeder_au.gen_entries():
        p_gen[g, ph, :] = feeder_au.generators[g].p_cap
    inj = dataclasses.replace(inj, p_gen=p_gen)
    for t in range(feeder_au.horizon):
        st = oracle.solve_pf(feeder_au, inj, t)
        worst = max(worst, pc.max_kcl_residual(st), pc.max_voltage_drop_residual(st))
    prob = build_problem(feeder_au, ScenarioSpec(5), 19)
    sol = solver.solve(prob)
    assert sol.status == "optimal"
    st = nlp.decode_state(prob, sol.x)
    worst = max(worst, pc.max_kcl_residual(st), pc.max_voltage_drop_residual(st))
    budgets["feeder_au"] = time.perf_counter() - t0
    assert budgets["feeder_au"] < 30.0

    assert worst <= 1e-8
    times = ", ".join(f"{k} {v:.1f}s" for k, v in budgets.items())
    print(f"\nACCEPTANCE 2 PASS: max residual {worst:.2e} pu ({times})")


def test_criterion_3_oracle_equivalence(synth2):
    """Two-bus NLP with Q pinned to zero matches bisection within 0.5%."""
    period = 12
    sets = (
        frozenset({LimitKind.VOLTAGE}),
        frozenset({LimitKind.CURRENT}),
        frozenset({LimitKind.VOLTAGE, LimitKind.CURRENT, LimitKind.VUF}),
    )
    report = []
    for cs in sets:
        prob = build_custom(synth2, cs, Objective.ACTIVE_EXPORT, period, fix_q_zero=True)
        sol = solver.solve(prob)
        assert sol.status == "optimal"
        limit = oracle.doe_bisection(synth2, "g1", cs, period)
        rel = abs(sol.objective - limit) / limit
        assert rel <= 5e-3, f"{sorted(k.value for k in cs)}: nlp {sol.objective} vs bisect {limit}"
        report.append(f"{{{','.join(sorted(k.value for k in cs))}}} {rel:.2e}")
    print(f"\nACCEPTANCE 3 PASS: NLP vs bisection {'; '.join(report)}")


def test_criterion_4_constraint_set_dominance(synth4):
    """Full-limit optimum never exceeds any relaxed variant; ampacity-free
    blow-up with loose voltage limits."""
    objs = {}
    for sc in (2, 3, 4, 5):
        objs[sc] = run_scenario(synth4, ScenarioSpec(sc), starts=2).objective_pu.sum()
    assert objs[5] <= min(objs[2], objs[3], objs[4]) + 1e-6

    loose_buses = tuple(
        dataclasses.replace(b, vmin=0.7, vmax=1.3) for b in synth4.buses
    )
    loose = dataclasses.replace(synth4, buses=loose_buses)
    loose_s2 = run_scenario(loose, ScenarioSpec(2), starts=2).objective_pu.sum()
    assert loose_s2 > objs[5]
    print(
        "\nACCEPTANCE 4 PASS: "
        f"S5 {objs[5]:.4f} <= min(S2 {objs[2]:.4f}, S3 {objs[3]:.4f}, S4 {objs[4]:.4f}); "
        f"loose-voltage S2 {loose_s2:.4f} exceeds S5"
    )


def test_criterion_5_unbalance_materiality(synth4_unbal):
    """All generation on one phase: dropping the unbalance limit inflates the
    envelope by at least 1% and pushes the unbalance factor past 2%."""
    r3 = run_scenario(synth4_unbal, ScenarioSpec(3), starts=2)
    r5 = run_scenario(synth4_unbal, ScenarioSpec(5), starts=2)
    obj3 = r3.objective_pu.sum()
    obj5 = r5.objective_pu.sum()
    assert obj3 > 1.01 * obj5, f"S3 {obj3} vs S5 {obj5}"

    inj = oracle.InjectionSet.from_case(synth4_unbal)
    p_gen = inj.p_gen.copy()
    q_gen = inj.q_gen.copy()
    for g, ph in synth4_unbal.gen_entries():
        p_gen[g, ph, :] = r3.p_kw[g, ph, :] / synth4_unbal.s_base
        q_gen[g, ph, :] = r3.q_kvar[g, ph, :] / synth4_unbal.s_base
    inj = dataclasses.replace(inj, p_gen=p_gen, q_gen=q_gen)
    max_vuf = 0.0
    for t in range(synth4_unbal.horizon):
        state = oracle.solve_pf(synth4_unbal, inj, t)
        for n in range(len(synth4_unbal.buses)):
            max_vuf = max(max_vuf, pc.vuf_from_phasors(*state.u[n, :, 0]))
    assert max_vuf > 0.02
    print(
        f"\nACCEPTANCE 5 PASS: S3 {obj3:.4f} > 1.01 x S5 {obj5:.4f} "
        f"(+{100 * (obj3 / obj5 - 1):.2f}%), S3 max VUF {max_vuf:.4f} > 0.02"
    )


def test_criterion_6_derivative_correctness(synth2, synth4):
    """Analytic Jacobians/gradients match central differences (step 1e-6)."""
    h = 1e-6
    worst = 0.0
    for case in (synth2, synth4):
        prob = build_problem(case, ScenarioSpec(5), 7)
        rng = np.random.default_rng(1234)
        for _ in range(100):
            x = nlp.initial_point(prob)
            free = ~(prob.lb == prob.ub)
            x[free] += 0.25 * rng.standard_normal(int(free.sum()))
            for block in (prob.eq, prob.ineq):
                j_an = block.jacobian(x)
                j_fd = np.empty_like(j_an)
                for i in range(x.size):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    j_fd[:, i] = (block.value(xp) - block.value(xm)) / (2 * h)
                scale = max(1.0, float(np.abs(j_an).max()))
                worst = max(worst, float(np.abs(j_an - j_fd).max()) / scale)
            gi = rng.integers(0, x.size)
            xp, xm = x.copy(), x.copy()
            xp[gi] += h
            xm[gi] -= h
            fd = (prob.obj_coef @ xp - prob.obj_coef @ xm) / (2 * h)
            worst = max(worst, abs(prob.obj_coef[gi] - fd))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 6 PASS: worst relative derivative error {worst:.2e} over 200 points")


def test_criterion_7_vuf_oracle_agreement():
    """Against an independent complex transform on 1000 random triples; exact
    zero on balanced triples."""
    a = cmath.exp(2j * math.pi / 3)

    def reference(ua, ub, uc):
        u1 = (ua + a * ub + a * a * uc) / 3.0
        u2 = (ua + a * a * ub + a * uc) / 3.0
        return abs(u2) / abs(u1)

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        parts = rng.uniform(-1.5, 1.5, 6)
        ua = complex(parts[0] + 1.0, parts[1])
        ub = complex(parts[2] - 0.5, parts[3] - 0.9)
        uc = complex(parts[4] - 0.5, parts[5] + 0.9)
        try:
            ours = pc.vuf_from_phasors(ua, ub, uc)
        except pc.DegenerateStateError:
            continue
        worst = max(worst, abs(ours - reference(ua, ub, uc)))
    assert worst <= 1e-12

    hrot = math.sqrt(3.0) / 2.0
    rot_b = complex(-0.5, -hrot)
    rot_c = complex(-0.5, hrot)
    for mag, ang in ((1.0, 0.0), (0.9861, 0.3), (4.0, 0.0), (1.1, -1.2)):
        ua = cmath.rect(mag, ang)
        assert pc.vuf_from_phasors(ua, ua * rot_b, ua * rot_c) == 0.0
    print(f"\nACCEPTANCE 7 PASS: worst deviation {worst:.2e}; balanced triples exactly 0")


def test_criterion_8_determinism(tmp_path):
    """Two consecutive runs write byte-identical envelopes."""
    blobs = []
    for d in ("one", "two"):
        out = tmp_path / d
        rc = main(
            ["solve", "--network", str(fixture_path("synth4.json")),
             "--loads", str(fixture_path("synth4_loads.csv")),
             "--scenario", "5", "--objective", "active", "--out", str(out)]
        )
        assert rc == 0
        blobs.append((out / "envelopes.csv").read_bytes())
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE 8 PASS: envelopes.csv byte-identical across runs")
