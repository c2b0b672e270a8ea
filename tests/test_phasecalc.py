import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lvdoe import netmodel as nm
from lvdoe import phasecalc as pc
from lvdoe import oracle
from lvdoe.nlp import ScenarioSpec, build_problem

from conftest import flat_state, two_bus_case


def make_state(case, u=None, i_branch=None, i_load=None, i_gen=None):
    st_ = flat_state(case)
    return pc.PhasorState(
        case=case,
        u=st_.u if u is None else u,
        i_branch=st_.i_branch if i_branch is None else i_branch,
        i_load=st_.i_load if i_load is None else i_load,
        i_gen=st_.i_gen if i_gen is None else i_gen,
    )


@pytest.fixture(scope="module")
def case():
    # 0.01 pu resistive branch, no reactance, easy hand arithmetic
    return two_bus_case(r_diag=0.01 * 0.529, x_diag=0.0, load_kw=0.0, load=False)


class TestVoltageDrop:
    def test_no_current_no_drop(self, case):
        assert np.all(pc._voltage_drop_residuals(flat_state(case)) == 0.0)

    def test_hand_evaluated_drop(self, case):
        # 1 pu flat sending end, R = 0.01 diagonal, I_a = 1 + 0j:
        # receiving end phase a at 0.99 satisfies the law exactly.
        state = flat_state(case)
        u = state.u.copy()
        ib = state.i_branch.copy()
        ib[0, 0, 0] = 1.0 + 0.0j
        u[1, 0, 0] = 0.99 + 0.0j
        state = make_state(case, u=u, i_branch=ib)
        res = pc._voltage_drop_residuals(state)[0, 0, 0]
        assert res.real == pytest.approx(0.0, abs=1e-15)
        assert res.imag == pytest.approx(0.0, abs=1e-15)

    def test_hand_evaluated_mismatch(self, case):
        state = flat_state(case)
        ib = state.i_branch.copy()
        ib[0, 0, 0] = 1.0 + 0.0j
        state = make_state(case, i_branch=ib)  # receiving end left at 1.0
        res = pc._voltage_drop_residuals(state)[0, 0, 0]
        assert res.real == pytest.approx(0.01, abs=1e-15)
        assert res.imag == pytest.approx(0.0, abs=1e-15)

    def test_linearity_in_state(self, case):
        rng = np.random.default_rng(7)

        def random_state():
            shape = lambda a: (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))
            base = flat_state(case)
            return make_state(
                case,
                u=shape(base.u),
                i_branch=shape(base.i_branch),
                i_load=shape(base.i_load),
                i_gen=shape(base.i_gen),
            )

        s1, s2 = random_state(), random_state()
        s_sum = make_state(
            case,
            u=s1.u + s2.u,
            i_branch=s1.i_branch + s2.i_branch,
            i_load=s1.i_load + s2.i_load,
            i_gen=s1.i_gen + s2.i_gen,
        )
        r1, r2, rs = (pc._voltage_drop_residuals(s)[0, :, 0] for s in (s1, s2, s_sum))
        np.testing.assert_allclose(rs.real, r1.real + r2.real, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rs.imag, r1.imag + r2.imag, rtol=0.0, atol=1e-12)


@pytest.fixture(scope="module")
def zero_load_program():
    """A two-bus program whose load d1 (bus h1, phase b) draws nothing, so its
    load_p and load_q rows evaluate to the P and Q of the load's current."""
    return build_problem(two_bus_case(load_kw=0.0), ScenarioSpec(5), 0)


def load_row_power(prob, u: complex, i: complex) -> tuple[float, float]:
    lay, x = prob.layout, np.zeros(prob.n_vars)
    x[lay.u_re[1, 1]], x[lay.u_im[1, 1]] = u.real, u.imag
    x[lay.il_re[0]], x[lay.il_im[0]] = i.real, i.imag
    vals = prob.eq.value(x)
    return vals[prob.eq.labels.index("load_p[d1,b]")], vals[prob.eq.labels.index("load_q[d1,b]")]


class TestPower:
    """U conj(I) as the program's load rows evaluate it."""

    @pytest.mark.parametrize(
        "u, i, expect",
        [
            (1 + 0j, 1 + 0j, (1.0, 0.0)),
            (0 + 1j, 1 + 0j, (0.0, 1.0)),
            (1 + 0j, 0 + 1j, (0.0, -1.0)),
        ],
    )
    def test_branch_power(self, case, u, i, expect):
        # The slack bus feeds only this branch, so the surplus of its nodal
        # balance is the branch current and U conj(I) there is the power the
        # branch carries, measured at its from-bus.
        src = case.bus_pos[case.branches[0].from_bus]
        state = flat_state(case)
        uu = state.u.copy()
        ib = state.i_branch.copy()
        uu[src, 0, 0] = u
        ib[0, 0, 0] = i
        state = make_state(case, u=uu, i_branch=ib)
        s = state.u[src, 0, 0] * np.conj(pc._kcl_residuals(state)[src, 0, 0])
        assert s.real == pytest.approx(expect[0], abs=1e-15)
        assert s.imag == pytest.approx(expect[1], abs=1e-15)

    @pytest.mark.parametrize(
        "u, i, expect",
        [
            (1 + 0j, 1 + 0j, (1.0, 0.0)),
            (0 + 1j, 1 + 0j, (0.0, 1.0)),
            (1 + 0j, 0 + 1j, (0.0, -1.0)),
        ],
    )
    def test_element_power(self, zero_load_program, u, i, expect):
        p, q = load_row_power(zero_load_program, u, i)
        assert p == pytest.approx(expect[0], abs=1e-15)
        assert q == pytest.approx(expect[1], abs=1e-15)

    @given(
        st.tuples(*[st.floats(-10, 10) for _ in range(4)]),
    )
    def test_apparent_power_identity(self, zero_load_program, vals):
        ur, ui, ir, ii = vals
        p, q = load_row_power(zero_load_program, complex(ur, ui), complex(ir, ii))
        lhs = p * p + q * q
        rhs = (ur * ur + ui * ui) * (ir * ir + ii * ii)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestKcl:
    def test_isolated_bus_zero(self):
        case = two_bus_case(load=False)
        assert pc._kcl_residuals(flat_state(case))[1, 0, 0] == 0.0

    def test_balanced_load_and_branch(self):
        case = two_bus_case()
        state = flat_state(case)
        il = state.i_load.copy()
        ib = state.i_branch.copy()
        il[0, 1, 0] = 1.0 + 0.0j
        ib[0, 1, 0] = 1.0 + 0.0j  # branch feeds into the load bus
        state = make_state(case, i_load=il, i_branch=ib)
        assert pc._kcl_residuals(state)[1, 1, 0] == 0.0

    def test_half_fed_mismatch(self):
        case = two_bus_case()
        state = flat_state(case)
        il = state.i_load.copy()
        ib = state.i_branch.copy()
        il[0, 1, 0] = 1.0 + 0.0j
        ib[0, 1, 0] = 0.5 + 0.0j
        state = make_state(case, i_load=il, i_branch=ib)
        res = pc._kcl_residuals(state)[1, 1, 0]
        assert res.real == pytest.approx(0.5, abs=1e-15)
        assert res.imag == pytest.approx(0.0, abs=1e-15)


def fortescue_vuf(ua: complex, ub: complex, uc: complex) -> float:
    """Independent check: complex symmetrical-component transform."""
    a = cmath.exp(2j * math.pi / 3)
    u1 = (ua + a * ub + a * a * uc) / 3.0
    u2 = (ua + a * a * ub + a * uc) / 3.0
    return abs(u2) / abs(u1)


def balanced_triple(mag: float, angle: float):
    """Positive-sequence set built by exact +/-120 degree rotation constants."""
    h = math.sqrt(3.0) / 2.0
    ua = complex(mag * math.cos(angle), mag * math.sin(angle))
    rot_b = complex(-0.5, -h)
    rot_c = complex(-0.5, h)
    return ua, ua * rot_b, ua * rot_c


class TestVuf:
    def test_balanced_exactly_zero(self):
        ua, ub, uc = balanced_triple(1.0, 0.0)
        assert pc.vuf_from_phasors(ua, ub, uc) == 0.0

    def test_frozen_unbalanced_value(self):
        # (1.00 at 0, 0.95 at -120, 1.05 at +120) degrees
        ua = 1.0 + 0.0j
        ub = cmath.rect(0.95, -2 * math.pi / 3)
        uc = cmath.rect(1.05, 2 * math.pi / 3)
        expect = fortescue_vuf(ua, ub, uc)
        assert 0.005 < expect < 0.1  # sanity on the oracle itself
        assert pc.vuf_from_phasors(ua, ub, uc) == pytest.approx(expect, abs=1e-12)

    def test_pure_negative_sequence_is_degenerate(self):
        ua = 1.0 + 0.0j
        ub = cmath.rect(1.0, 2 * math.pi / 3)
        uc = cmath.rect(1.0, -2 * math.pi / 3)
        with pytest.raises(pc.DegenerateStateError):
            pc.vuf_from_phasors(ua, ub, uc)

    @given(
        st.tuples(*[st.floats(-2, 2) for _ in range(6)]),
        st.floats(0.1, 10),
        st.floats(0, 2 * math.pi),
    )
    def test_invariant_under_rotation_and_scaling(self, parts, mag, ang):
        ua = complex(parts[0] + 1.0, parts[1])  # keep away from degeneracy
        ub = complex(parts[2] - 0.5, parts[3] - 1.0)
        uc = complex(parts[4] - 0.5, parts[5] + 1.0)
        try:
            base = pc.vuf_from_phasors(ua, ub, uc)
        except pc.DegenerateStateError:
            return
        w = cmath.rect(mag, ang)
        rotated = pc.vuf_from_phasors(ua * w, ub * w, uc * w)
        assert rotated == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_state_accessor(self):
        state = flat_state(two_bus_case())
        assert pc.vuf_from_phasors(*state.u[1, :, 0]) == 0.0


class TestCheckLimits:
    def test_flat_state_clean(self):
        # the unbalance of a balanced state is exactly 0, so even a zero limit holds
        case = two_bus_case(vuf_max=0.0)
        assert pc.check_limits(flat_state(case)) == []

    def test_voltage_high_reported_with_magnitude(self):
        case = two_bus_case()
        state = flat_state(case)
        u = state.u.copy()
        u[1, 0, 0] = 1.15 + 0.0j  # limit is 1.1 pu
        state = make_state(case, u=u)
        violations = pc.check_limits(state, {pc.LimitKind.VOLTAGE})
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "voltage_high"
        assert v.location == "h1"
        assert v.magnitude == pytest.approx(0.05, abs=1e-12)

    def test_unchecked_kind_ignored(self):
        case = two_bus_case()
        state = flat_state(case)
        u = state.u.copy()
        u[1, 0, 0] = 1.15 + 0.0j
        state = make_state(case, u=u)
        assert pc.check_limits(state, {pc.LimitKind.CURRENT}) == []

    def test_voltage_low_and_current(self):
        case = two_bus_case(i_max=10.0)
        state = flat_state(case)
        u = state.u.copy()
        ib = state.i_branch.copy()
        u[1, 1, 0] *= 0.5
        ib[0, 0, 0] = 1.0  # i_max is 10 A -> 0.023 pu
        state = make_state(case, u=u, i_branch=ib)
        kinds = {v.kind for v in pc.check_limits(state)}
        # halving one phase also unbalances the bus, so vuf fires too
        assert {"voltage_low", "current"} <= kinds


    @staticmethod
    def loop_check_limits(state, constraint_set, tol):
        """Element-by-element reference for check_limits."""
        case, out = state.case, []
        if pc.LimitKind.VOLTAGE in constraint_set:
            vmag = np.abs(state.u)
            for n, bus in enumerate(case.buses):
                for p in range(3):
                    for t in range(state.n_periods):
                        if vmag[n, p, t] > bus.vmax + tol:
                            out.append(pc.Violation("voltage_high", bus.id, nm.PHASES[p], t, vmag[n, p, t] - bus.vmax))
                        elif vmag[n, p, t] < bus.vmin - tol:
                            out.append(pc.Violation("voltage_low", bus.id, nm.PHASES[p], t, bus.vmin - vmag[n, p, t]))
        if pc.LimitKind.CURRENT in constraint_set:
            imag = np.abs(state.i_branch)
            for l, br in enumerate(case.branches):
                for p in range(3):
                    for t in range(state.n_periods):
                        if imag[l, p, t] > br.i_max + tol:
                            out.append(pc.Violation("current", br.id, nm.PHASES[p], t, imag[l, p, t] - br.i_max))
        if pc.LimitKind.VUF in constraint_set:
            for n, bus in enumerate(case.buses):
                for t in range(state.n_periods):
                    ratio = pc.vuf_from_phasors(*state.u[n, :, t])
                    if ratio > bus.vuf_max + tol:
                        out.append(pc.Violation("vuf", bus.id, None, t, ratio - bus.vuf_max))
        out.sort(key=lambda v: -v.magnitude)
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_reference(self, synth4_unbal, seed):
        case = synth4_unbal
        rng = np.random.default_rng(seed)
        base = flat_state(case, n_periods=5)
        shape_u, shape_i = base.u.shape, base.i_branch.shape
        u = base.u * (1.0 + 0.08 * rng.standard_normal(shape_u)) + 0.03j * rng.standard_normal(shape_u)
        i_max = np.array([br.i_max for br in case.branches])[:, None, None]
        ib = i_max * (0.9 + 0.15 * rng.standard_normal(shape_i)) * np.exp(1j * rng.uniform(0, 6, shape_i))
        # A repeated period ties every magnitude: the sort must keep loop order.
        u[:, :, 4], ib[:, :, 4] = u[:, :, 1], ib[:, :, 1]
        state = make_state(case, u=u, i_branch=ib, i_load=np.zeros((len(case.loads), 3, 5)),
                           i_gen=np.zeros((len(case.generators), 3, 5)))
        for cs in ({pc.LimitKind.VOLTAGE}, {pc.LimitKind.CURRENT, pc.LimitKind.VUF}, pc.ALL_LIMITS):
            for tol in (0.0, 1e-3):
                got = pc.check_limits(state, cs, tol)
                assert got == self.loop_check_limits(state, cs, tol)
        assert {v.kind for v in pc.check_limits(state)} == {"voltage_high", "voltage_low", "current", "vuf"}

    def test_degenerate_bus_raises_only_when_vuf_checked(self):
        case = two_bus_case()
        u = flat_state(case).u.copy()
        u[1] = 0.0
        state = make_state(case, u=u)
        assert {v.kind for v in pc.check_limits(state, {pc.LimitKind.VOLTAGE})} == {"voltage_low"}
        with pytest.raises(pc.DegenerateStateError):
            pc.check_limits(state, {pc.LimitKind.VUF})


def max_excess(state, constraint_set) -> float:
    return max((float(e.max()) for e in pc.limit_excess(state, constraint_set).values()), default=-math.inf)


class TestLimitExcess:
    """check_limits reports a violation exactly when some limit_excess row exceeds tol."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.0, 0.12),
        kinds=st.sets(st.sampled_from(list(pc.LimitKind))),
    )
    def test_agrees_with_check_limits_on_random_states(self, synth4_unbal, seed, spread, kinds):
        case = synth4_unbal
        rng = np.random.default_rng(seed)
        base = flat_state(case, n_periods=2)
        shape_u, shape_i = base.u.shape, base.i_branch.shape
        u = base.u * (1.0 + spread * rng.standard_normal(shape_u)) + 0.3j * spread * rng.standard_normal(shape_u)
        i_max = np.array([br.i_max for br in case.branches])[:, None, None]
        ib = i_max * (1.0 + spread * rng.standard_normal(shape_i)) * np.exp(1j * rng.uniform(0, 6, shape_i))
        state = make_state(case, u=u, i_branch=ib, i_load=np.zeros((len(case.loads), 3, 2)),
                           i_gen=np.zeros((len(case.generators), 3, 2)))
        for tol in (0.0, 1e-6):
            assert (max_excess(state, kinds) > tol) == bool(pc.check_limits(state, kinds, tol))

    def test_balanced_unbalance_under_the_floor_is_zero(self):
        # The negative sequence of an exactly rotated triple is roundoff, not 0.
        case = two_bus_case(vuf_max=0.0)
        triple = np.array(balanced_triple(1.03, 0.7))
        u2_sq, _, scale = pc._sequence_squares(*triple)
        assert 0.0 < u2_sq <= (pc._SEQ_ROUNDOFF * scale) ** 2
        state = make_state(case, u=np.tile(triple[None, :, None], (2, 1, 1)))
        assert pc.limit_excess(state, {pc.LimitKind.VUF})["vuf"].tolist() == [[0.0], [0.0]]
        for tol in (0.0, 1e-6):
            assert max_excess(state, pc.ALL_LIMITS) <= tol
            assert pc.check_limits(state, pc.ALL_LIMITS, tol) == []

    def test_feeder_hr_overload_report_is_unchanged(self, feeder_hr):
        # test_oracle's period-17 overload: every unit at three times its cap.
        inj = oracle.InjectionSet.from_case(feeder_hr)
        for g, ph in feeder_hr.gen_entries():
            inj.p_gen[g, ph, 17] = 3.0 * feeder_hr.generators[g].p_cap
        state = oracle.solve_pf(feeder_hr, inj, 17)
        got = pc.check_limits(state, pc.ALL_LIMITS, tol=1e-6)
        assert len(got) == 18
        assert got == TestCheckLimits.loop_check_limits(state, pc.ALL_LIMITS, 1e-6)
        assert max_excess(state, pc.ALL_LIMITS) == max(v.magnitude for v in got)


class TestOracleStatesSatisfyPhysics:
    def test_power_flow_states_have_tiny_residuals(self):
        case = two_bus_case(load_kw=1.0)
        inj = oracle.InjectionSet.from_case(case)
        state = oracle.solve_pf(case, inj, 0)
        assert pc.max_kcl_residual(state) <= 1e-8
        assert pc.max_voltage_drop_residual(state) <= 1e-8
