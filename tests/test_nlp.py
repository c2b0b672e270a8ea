import numpy as np
import pytest

from lvdoe import netmodel as nm
from lvdoe import nlp, phasecalc as pc
from lvdoe.nlp import Objective, ScenarioSpec, build_custom, build_problem
from lvdoe.phasecalc import LimitKind

from conftest import dense_jacobian, shared_units_case, two_bus_case


@pytest.fixture(scope="module")
def case():
    return two_bus_case()


def random_x(problem, rng):
    x = nlp.initial_point(problem)
    free = ~(problem.lb == problem.ub)
    x[free] += 0.3 * rng.standard_normal(free.sum())
    return x


def loop_start(problem, voltage_scale):
    """initial_point as a loop over the elements: each load draws its profile's
    current and each injection the current of its pinned P and Q (a free one
    counts 0) at the flat voltage, unless that power is zero."""
    lay, case = problem.layout, problem.case
    x = np.zeros(lay.n_vars)
    ref = nm.slack_reference(case, vm=voltage_scale)
    x[lay.u_re], x[lay.u_im] = ref.real, ref.imag
    lb, ub = problem.lb, problem.ub
    i_net = np.zeros((len(case.buses), 3), dtype=complex)
    for e, (d, p) in enumerate(lay.load_entries):
        ld = case.loads[d]
        row = ld.phases.index("abc"[p])
        s = complex(ld.p[row, problem.period], ld.q[row, problem.period])
        if s != 0.0:
            cur = np.conj(s / ref[p])
            x[lay.il_re[e]], x[lay.il_im[e]] = cur.real, cur.imag
            i_net[case.bus_pos[ld.bus], p] += cur
    for e, (n, p) in enumerate(lay.injections):
        pg, qg = lay.pg[e], lay.qg[e]
        s = complex(lb[pg] if lb[pg] == ub[pg] else 0.0, lb[qg] if lb[qg] == ub[qg] else 0.0)
        if s != 0.0:
            cur = np.conj(s / ref[p])
            x[lay.ig_re[e]], x[lay.ig_im[e]] = cur.real, cur.imag
            i_net[n, p] -= cur
    path = nm.TreeIndex(case).P
    x[lay.ib_re], x[lay.ib_im] = path @ i_net.real, path @ i_net.imag
    fixed = lb == ub
    x[fixed] = lb[fixed]
    return x


class TestScenarioSpec:
    def test_bad_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioSpec(9)

    @pytest.mark.parametrize(
        "scenario, expect",
        [
            (1, frozenset()),
            (2, {LimitKind.VOLTAGE, LimitKind.VUF}),
            (3, {LimitKind.VOLTAGE, LimitKind.CURRENT}),
            (4, {LimitKind.CURRENT, LimitKind.VUF}),
            (5, {LimitKind.VOLTAGE, LimitKind.CURRENT, LimitKind.VUF}),
        ],
    )
    def test_constraint_sets(self, scenario, expect):
        assert nlp.constraint_set_for(ScenarioSpec(scenario)) == frozenset(expect)


class TestStructure:
    def test_s5_constraint_counts_two_bus(self, case):
        # 1 branch, 1 single-phase load, 1 single-phase generator:
        # equalities: 6 voltage-drop + 2 load power + 2 generator power
        #             + 6 nodal balance at the one non-slack bus = 16
        # inequalities: 3 current + 6 voltage (non-slack only) + 1 vuf = 10
        prob = build_problem(case, ScenarioSpec(5), 0)
        assert prob.eq.n_rows == 16
        assert prob.ineq.n_rows == 10
        kinds = [lbl.split("[")[0] for lbl in prob.eq.labels]
        assert kinds.count("vdrop_re") == 3 and kinds.count("vdrop_im") == 3
        assert kinds.count("kcl_re") == 3 and kinds.count("kcl_im") == 3
        assert kinds.count("load_p") == 1 and kinds.count("gen_q") == 1

    def test_scenario1_has_no_program(self, case):
        # The static caps are closed form in cli._run_scenario_1.
        with pytest.raises(ValueError, match="scenario 1"):
            build_problem(case, ScenarioSpec(1), 0)

    def test_s3_rows_are_s5_minus_vuf(self, case):
        p3 = build_problem(case, ScenarioSpec(3), 0)
        p5 = build_problem(case, ScenarioSpec(5), 0)
        assert set(p5.ineq.labels) - set(p3.ineq.labels) == {"vuf[h1]"}
        assert set(p3.ineq.labels) <= set(p5.ineq.labels)

    def test_slack_voltage_fixed_by_bounds(self, case):
        prob = build_problem(case, ScenarioSpec(5), 0)
        lay = prob.layout
        s = case.slack
        for p in range(3):
            assert prob.lb[lay.u_re[s, p]] == prob.ub[lay.u_re[s, p]]
            assert prob.lb[lay.u_im[s, p]] == prob.ub[lay.u_im[s, p]]

    def test_reactive_margin_adds_split_rows(self, case):
        prob = build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 0)
        # Rows of an injection are named by its bus and phase.
        assert "qsplit[h1,a]" in prob.eq.labels
        assert "qaux_plus[h1,a]" in prob.ineq.labels
        assert "qaux_minus[h1,a]" in prob.ineq.labels
        e = 0
        lay = prob.layout
        assert prob.ub[lay.qplus[e]] == pytest.approx(case.generators[0].q_abs_max)
        assert prob.lb[lay.qaux[e]] == 0.0

    def test_unrated_injection_has_no_split(self, synth4_unbal):
        # z1 and z2 share n2/b with no reactive rating: that injection's Q is
        # pinned at 0, and it has no (Q+, Q-, Q_aux) and no split rows.
        case = shared_units_case(synth4_unbal, unrated_q_kvar=(0.0, 0.0))
        prob = build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 0)
        lay = prob.layout
        e = lay.injections.index((case.bus_pos["n2"], 1))
        assert e not in lay.split_injections and len(lay.split_injections) == len(lay.injections) - 1
        assert prob.lb[lay.qg[e]] == prob.ub[lay.qg[e]] == 0.0
        labels = prob.eq.labels + prob.ineq.labels
        assert not any(label.endswith("[n2,b]") and label.startswith(("qsplit", "qaux")) for label in labels)
        assert "qsplit[n2,a]" in labels
        # Rated, the same injection keeps its split.
        rated = build_problem(shared_units_case(synth4_unbal, (1.0, 2.0)), ScenarioSpec(5, Objective.REACTIVE_MARGIN), 0)
        assert "qsplit[n2,b]" in rated.eq.labels and len(rated.layout.split_injections) == len(lay.injections)

    @pytest.mark.parametrize("fixture", ["feeder_hr", "synth4"])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_layout_partitions_x(self, request, fixture, objective):
        net = request.getfixturevalue(fixture)
        prob = build_problem(net, ScenarioSpec(5, objective), 0)
        lay = prob.layout
        blocks = [getattr(lay, name).ravel() for name in nlp._BLOCKS]
        assert np.array_equal(np.concatenate(blocks), np.arange(lay.n_vars))
        assert np.array_equal(prob.lin_vars, np.concatenate(blocks[:4]))
        assert lay.u_re.shape == (len(net.buses), 3) and lay.ib_im.shape == (len(net.branches), 3)
        assert len(lay.il_re) == len(lay.load_entries) and len(lay.pg) == len(lay.injections)
        split = len(lay.injections) if objective is Objective.REACTIVE_MARGIN else 0
        assert len(lay.qplus) == len(lay.qminus) == len(lay.qaux) == split

    def test_period_out_of_range(self, case):
        with pytest.raises(ValueError, match="period"):
            build_problem(case, ScenarioSpec(5), case.horizon)

    def test_physical_case_rejected(self, case):
        with pytest.raises(ValueError, match="per-unit"):
            build_problem(nm.to_physical(case), ScenarioSpec(5), 0)


class TestEvaluation:
    def test_flat_start_no_load_feasible(self):
        case = two_bus_case(load=False)
        prob = build_problem(case, ScenarioSpec(5), 0)
        x = nlp.initial_point(prob)
        res = prob.eq.value(x)
        assert np.abs(res).max() <= 1e-12

    @pytest.mark.parametrize("fixture", ["feeder_hr", "synth4_unbal"])
    def test_flat_start_matches_loop_reference(self, request, fixture):
        # Stage 1, and stage 2 with every P pinned, one unit at zero; bit for bit.
        net = request.getfixturevalue(fixture)
        fixed_p = np.full((len(net.generators), 3), 0.02)
        fixed_p[0] = 0.0
        stage1 = build_problem(net, ScenarioSpec(5), 7, bound_q_by_rating=True)
        stage2 = build_problem(net, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 7, fixed_p=fixed_p)
        for prob in (stage1, stage2):
            for scale in (1.0, 0.9):
                assert nlp.initial_point(prob, scale).tobytes() == loop_start(prob, scale).tobytes()

    def test_matches_phasecalc_on_decoded_state(self, case):
        # every equality row must agree with the reference evaluation
        prob = build_problem(case, ScenarioSpec(5), 3)
        rng = np.random.default_rng(42)
        x = random_x(prob, rng)
        state = nlp.decode_state(prob, x)
        drop = pc._voltage_drop_residuals(state)[:, :, 0]
        kcl = pc._kcl_residuals(state)[:, :, 0]
        vals = prob.eq.value(x)
        for k, label in enumerate(prob.eq.labels):
            kind, rest = label.split("[")
            args = rest.rstrip("]").split(",")
            if kind in ("vdrop_re", "vdrop_im"):
                l = case.branch_pos[args[0]]
                p = "abc".index(args[1])
                res = drop[l, p]
                expect = res.real if kind == "vdrop_re" else res.imag
            elif kind in ("kcl_re", "kcl_im"):
                n = case.bus_pos[args[0]]
                p = "abc".index(args[1])
                res = kcl[n, p]
                expect = res.real if kind == "kcl_re" else res.imag
            elif kind in ("load_p", "load_q"):
                d, ld = next((d, l) for d, l in enumerate(case.loads) if l.id == args[0])
                p = "abc".index(args[1])
                power = state.u[case.bus_pos[ld.bus], p, 0] * np.conj(state.i_load[d, p, 0])
                pw, qw = power.real, power.imag
                row = ld.phases.index(args[1])
                expect = (pw - ld.p[row, 3]) if kind == "load_p" else (qw - ld.q[row, 3])
            elif kind in ("gen_p", "gen_q"):
                # An injection's row: its bus and phase, and its units' summed current.
                n, p = case.bus_pos[args[0]], "abc".index(args[1])
                units = [g for g, gen in enumerate(case.generators) if gen.bus == args[0] and args[1] in gen.phases]
                power = state.u[n, p, 0] * np.conj(state.i_gen[units, p, 0].sum())
                pw, qw = power.real, power.imag
                e = prob.layout.injections.index((n, p))
                if kind == "gen_p":
                    expect = pw - x[prob.layout.pg[e]]
                else:
                    expect = qw - x[prob.layout.qg[e]]
            else:
                continue
            assert vals[k] == pytest.approx(expect, abs=1e-14), label

    def test_limit_rows_match_phasecalc_forms(self, case):
        prob = build_problem(case, ScenarioSpec(5), 0)
        rng = np.random.default_rng(3)
        x = random_x(prob, rng)
        state = nlp.decode_state(prob, x)
        vals = prob.ineq.value(x)
        for k, label in enumerate(prob.ineq.labels):
            kind, rest = label.split("[")
            args = rest.rstrip("]").split(",")
            if kind == "imax":
                l = case.branch_pos[args[0]]
                p = "abc".index(args[1])
                cur = state.i_branch[l, p, 0]
                expect = abs(cur) ** 2 - case.branches[l].i_max ** 2
            elif kind == "vmax":
                n = case.bus_pos[args[0]]
                p = "abc".index(args[1])
                expect = abs(state.u[n, p, 0]) ** 2 - case.buses[n].vmax ** 2
            elif kind == "vmin":
                n = case.bus_pos[args[0]]
                p = "abc".index(args[1])
                expect = case.buses[n].vmin ** 2 - abs(state.u[n, p, 0]) ** 2
            elif kind == "vuf":
                n = case.bus_pos[args[0]]
                ratio = pc.vuf_from_phasors(*state.u[n, :, 0])
                # squared-form row: |U2|^2 - limit^2 |U1|^2, un-normalized
                ua, ub, uc = state.u[n, :, 0]
                u2sq, u1sq, _ = pc._sequence_squares(ua, ub, uc)
                expect = u2sq - case.buses[n].vuf_max ** 2 * u1sq
                assert (vals[k] > 0) == (ratio > case.buses[n].vuf_max)
            else:
                continue
            assert vals[k] == pytest.approx(expect, rel=1e-12, abs=1e-13), label


class TestDerivatives:
    def fd_jacobian(self, block, x, h=1e-6):
        out = np.zeros((block.n_rows, x.size))
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            out[:, i] = (block.value(xp) - block.value(xm)) / (2 * h)
        return out

    def test_jacobian_matches_central_differences(self, case):
        prob = build_problem(case, ScenarioSpec(5), 0)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = random_x(prob, rng)
            for block in (prob.eq, prob.ineq):
                j_an = dense_jacobian(block, x)
                j_fd = self.fd_jacobian(block, x)
                scale = max(1.0, np.abs(j_an).max())
                assert np.abs(j_an - j_fd).max() <= 1e-6 * scale

    def test_jacobian_direction_consistency(self, case):
        # J(x) dx must predict the residual change to second order exactly
        # (rows are quadratic, so the identity is exact up to roundoff)
        prob = build_problem(case, ScenarioSpec(5), 0)
        rng = np.random.default_rng(5)
        x = random_x(prob, rng)
        dx = 1e-6 * rng.standard_normal(x.size)
        lhs = prob.eq.value(x + dx) - prob.eq.value(x - dx)
        rhs = 2.0 * (dense_jacobian(prob.eq, x) @ dx)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_objective_gradient(self, case):
        prob = build_problem(case, ScenarioSpec(5), 0)
        rng = np.random.default_rng(9)
        x = random_x(prob, rng)
        grad = prob.obj_coef
        h = 1e-6
        for i in rng.choice(x.size, 8, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (prob.obj_coef @ xp - prob.obj_coef @ xm) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8)

    def test_constant_hessian_property(self, case):
        # second differences of every row are independent of the base point
        prob = build_problem(case, ScenarioSpec(5), 0)
        rng = np.random.default_rng(13)
        d = rng.standard_normal(prob.n_vars)
        x1 = random_x(prob, rng)
        x2 = random_x(prob, rng)

        def second_difference(x):
            return prob.eq.value(x + d) - 2.0 * prob.eq.value(x) + prob.eq.value(x - d)

        np.testing.assert_allclose(second_difference(x1), second_difference(x2), atol=1e-9)


class TestObjectives:
    def test_active_export_counts_generation(self, case):
        prob = build_problem(case, ScenarioSpec(5), 0)
        x = nlp.initial_point(prob)
        x[prob.layout.pg[0]] = 0.5
        val = prob.obj_coef @ x
        assert val == pytest.approx(0.5)

    def test_reactive_margin_counts_aux(self, case):
        prob = build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 0)
        x = nlp.initial_point(prob)
        lay = prob.layout
        x[lay.qplus[0]] = 0.3
        x[lay.qminus[0]] = 0.3
        x[lay.qaux[0]] = 0.3
        val = prob.obj_coef @ x
        assert val == pytest.approx(0.3)
        # the aux coupling rows hold with equality at this point
        rows = prob.ineq.value(x)
        for k, lbl in enumerate(prob.ineq.labels):
            if lbl.startswith("qaux"):
                assert rows[k] == pytest.approx(0.0, abs=1e-15)


class TestOptionsAndFixing:
    def test_fix_q_zero(self, case):
        prob = build_custom(case, {LimitKind.VOLTAGE}, Objective.ACTIVE_EXPORT, 0, fix_q_zero=True)
        assert prob.lb[prob.layout.qg[0]] == prob.ub[prob.layout.qg[0]] == 0.0

    def test_fixed_p(self, case):
        # Dense (n_gen, 3) pins: only the connected phase a of g1 is read.
        fixed = np.array([[0.123, 7.0, 7.0]])
        prob = build_custom(
            case, {LimitKind.VOLTAGE}, Objective.REACTIVE_MARGIN, 0, fixed_p=fixed
        )
        assert prob.lb[prob.layout.pg[0]] == prob.ub[prob.layout.pg[0]] == pytest.approx(0.123)
        # Six slack voltages, the load's P and Q, and the pin.
        assert np.count_nonzero(prob.lb == prob.ub) == 9

    def test_q_rating_bound(self, case):
        prob = build_custom(
            case, {LimitKind.VOLTAGE}, Objective.ACTIVE_EXPORT, 0, bound_q_by_rating=True
        )
        qmax = case.generators[0].q_abs_max
        assert prob.lb[prob.layout.qg[0]] == pytest.approx(-qmax)
        assert prob.ub[prob.layout.qg[0]] == pytest.approx(qmax)


class TestSeparability:
    def test_problem_depends_only_on_its_period(self):
        base = two_bus_case(horizon=4)
        # perturb the load at period 1; the period-0 problem must be identical
        loads = (
            nm.Load(
                "d1",
                "h1",
                ("b",),
                p=base.loads[0].p.copy() + np.array([[0.0, 5.0, 0.0, 0.0]]),
                q=base.loads[0].q.copy(),
            ),
        )
        import dataclasses

        other = dataclasses.replace(base, loads=loads)
        p0a = build_problem(base, ScenarioSpec(5), 0)
        p0b = build_problem(other, ScenarioSpec(5), 0)
        pl = p0a.layout.pl
        np.testing.assert_array_equal(p0a.lb[pl], p0b.lb[pl])
        p1a = build_problem(base, ScenarioSpec(5), 1)
        p1b = build_problem(other, ScenarioSpec(5), 1)
        # the case is already per-unit, so the perturbation lands unscaled
        assert np.abs(p1a.lb[pl] - p1b.lb[pl]).max() == pytest.approx(5.0)
        assert np.array_equal(p1b.lb[pl], p1b.ub[pl])

    @pytest.mark.parametrize("stage", ["active-rated-q", "margin-pinned-p"])
    def test_pin_period_matches_a_fresh_build(self, synth4_unbal, stage):
        # A stage builds its rows once and only moves its pins from period to period.
        case = synth4_unbal
        fixed_p = np.random.default_rng(5).uniform(0.0, 0.03, (len(case.generators), 3, case.horizon))

        def program(t):
            if stage == "margin-pinned-p":
                return build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), t, fixed_p=fixed_p[:, :, t])
            return build_problem(case, ScenarioSpec(5), t, bound_q_by_rating=True)

        first = program(0)
        for t in (0, 7, case.horizon - 1):
            pinned = nlp.pin_period(first, t, fixed_p[:, :, t] if stage == "margin-pinned-p" else None)
            fresh = program(t)
            assert pinned.period == t and pinned.eq is first.eq and pinned.ineq is first.ineq
            assert pinned.lb.tobytes() == fresh.lb.tobytes() and pinned.ub.tobytes() == fresh.ub.tobytes()
            assert pinned.obj_coef.tobytes() == fresh.obj_coef.tobytes()
        assert first.lb.tobytes() == program(0).lb.tobytes()  # pinning copies the bounds

    def test_pin_period_needs_the_programs_p_pins(self, case):
        fixed = np.full((1, 3), 0.01)
        free_p = build_problem(case, ScenarioSpec(5), 0)
        pinned_p = build_problem(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), 0, fixed_p=fixed)
        with pytest.raises(ValueError, match="fixed_p"):
            nlp.pin_period(free_p, 1, fixed)
        with pytest.raises(ValueError, match="fixed_p"):
            nlp.pin_period(pinned_p, 1)
        with pytest.raises(ValueError, match="period"):
            nlp.pin_period(free_p, case.horizon)


class TestInjections:
    """Generator entries at one bus and phase form one injection; its units
    exist only in decode, each with its share of the injection."""

    def test_injections_group_entries_by_bus_and_phase(self, synth4_unbal):
        case = shared_units_case(synth4_unbal)
        lay = build_problem(case, ScenarioSpec(5), 0).layout
        # g1 at n2/a; g2, g3 and t3 at n3/a; t3 alone at n3/b and n3/c; z1, z2 at n2/b.
        n2, n3 = case.bus_pos["n2"], case.bus_pos["n3"]
        assert lay.injections == ((n2, 0), (n3, 0), (n3, 1), (n3, 2), (n2, 1))
        assert lay.gen_injection.tolist() == [0, 1, 1, 1, 2, 3, 4, 4]
        assert len(lay.gen_entries) == 8 and len(lay.pg) == len(lay.ig_re) == 5

    def test_units_share_their_injection_by_rating(self, synth4_unbal):
        case = shared_units_case(synth4_unbal)
        prob = build_problem(case, ScenarioSpec(5), 0)
        lay = prob.layout
        x = random_x(prob, np.random.default_rng(11))
        p, q = nlp.decode_generation(prob, x)
        gen = {g.id: k for k, g in enumerate(case.generators)}
        p_inj, q_inj = x[lay.pg], x[lay.qg]
        # n3/a: P by p_cap (3.68, 3.68, 5 kW), Q by q_abs_max (2.5, 2.5, 1 kVAr).
        np.testing.assert_allclose(p[[gen["g2"], gen["g3"], gen["t3"]], 0], np.array([3.68, 3.68, 5.0]) / 12.36 * p_inj[1],
                                   rtol=1e-15)
        np.testing.assert_allclose(q[[gen["g2"], gen["g3"], gen["t3"]], 0], np.array([2.5, 2.5, 1.0]) / 6.0 * q_inj[1],
                                   rtol=1e-15)
        # t3 alone on n3/b and n3/c, and g1 alone on n2/a, take their injection whole.
        assert (p[gen["t3"], 1:] == p_inj[2:4]).all() and (q[gen["t3"], 1:] == q_inj[2:4]).all()
        assert p[gen["g1"], 0] == p_inj[0] and q[gen["g1"], 0] == q_inj[0]
        # z1 and z2 have no ratings, so they share n2/b equally.
        assert p[gen["z1"], 1] == p[gen["z2"], 1] == 0.5 * p_inj[4]
        assert q[gen["z1"], 1] == q[gen["z2"], 1] == 0.5 * q_inj[4]
        # The units' P and Q sum to their injection's, and so do their currents (criterion 2).
        state = nlp.decode_state(prob, x)
        i_inj = x[lay.ig_re] + 1j * x[lay.ig_im]
        eps = np.finfo(float).eps
        for e, (n, ph) in enumerate(lay.injections):
            units = [g for g, entry_ph in lay.gen_entries if entry_ph == ph and case.bus_pos[case.generators[g].bus] == n]
            assert abs(p[units, ph].sum() - p_inj[e]) <= 4 * eps * abs(p_inj[e])
            assert abs(q[units, ph].sum() - q_inj[e]) <= 4 * eps * abs(q_inj[e])
            assert abs(state.i_gen[units, ph, 0].sum() - i_inj[e]) <= 4 * eps * abs(i_inj[e])
        kcl = np.array([label.startswith("kcl_") for label in prob.eq.labels])
        assert pc.max_kcl_residual(state) == pytest.approx(np.abs(prob.eq.value(x)[kcl]).max(), rel=1e-9)
