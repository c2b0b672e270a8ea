import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lvdoe import netmodel as nm, oracle
from lvdoe.cli import emit_results, main, run_scenario
from lvdoe.netmodel import InputError, load_network, seq_to_phase_impedance, to_per_unit, to_physical
from lvdoe.nlp import Objective, ScenarioSpec
from lvdoe.phasecalc import ALL_LIMITS

from conftest import fixture_path


# Independent construction: full similarity transform with the
# symmetrical-component matrix, never the closed-form shortcut.
ALPHA = np.exp(2j * np.pi / 3)
A_MAT = np.array([[1, 1, 1], [1, ALPHA**2, ALPHA], [1, ALPHA, ALPHA**2]], dtype=complex)


def set_in(*path):
    """An edit of a JSON document that sets doc[path[0]]...[path[-2]] to path[-1]; no path, no edit."""
    def edit(doc):
        if path:
            *keys, last, value = path
            for key in keys:
                doc = doc[key]
            doc[last] = value
    return edit


def add_rows(element, phase):
    """An edit of loads-CSV text that appends a full 24-period profile for element and phase."""
    return lambda text: text + "".join(f"{element},{phase},{t},1.0,0.0\n" for t in range(24))


def drop_rows(element):
    """An edit of loads-CSV text that removes every row of element."""
    return lambda text: "".join(r for r in text.splitlines(True) if not r.startswith(f"{element},"))


def fortescue_oracle(z1: complex, z0: complex) -> np.ndarray:
    return A_MAT @ np.diag([z0, z1, z1]) @ np.linalg.inv(A_MAT)


class TestSeqToPhase:
    def test_balanced_decoupled(self):
        z = seq_to_phase_impedance(1 + 2j, 1 + 2j)
        assert np.allclose(np.diag(z), 1 + 2j)
        assert abs(z[0, 1]) == 0.0 and abs(z[2, 0]) == 0.0

    def test_against_similarity_transform(self):
        z = seq_to_phase_impedance(1 + 2j, 4 + 8j)
        assert np.allclose(np.diag(z), 2 + 4j, atol=1e-12)
        assert np.allclose(z[0, 1], 1 + 2j, atol=1e-12)
        assert np.allclose(z, fortescue_oracle(1 + 2j, 4 + 8j), atol=1e-12)

    def test_zero(self):
        assert np.all(seq_to_phase_impedance(0, 0) == 0)

    @given(
        st.tuples(*[st.floats(-100, 100) for _ in range(4)]),
    )
    def test_roundtrip_recovers_sequence_values(self, parts):
        z1 = complex(parts[0], parts[1])
        z0 = complex(parts[2], parts[3])
        z_abc = seq_to_phase_impedance(z1, z0)
        z_012 = np.linalg.inv(A_MAT) @ z_abc @ A_MAT
        scale = max(abs(z1), abs(z0), 1.0)
        assert abs(z_012[0, 0] - z0) <= 1e-12 * scale
        assert abs(z_012[1, 1] - z1) <= 1e-12 * scale
        assert abs(z_012[2, 2] - z1) <= 1e-12 * scale
        off = z_012 - np.diag(np.diag(z_012))
        assert np.abs(off).max() <= 1e-12 * scale


class TestPerUnit:
    def test_impedance_base(self):
        # z_base = 230 V squared over 100 kVA
        r = np.diag([0.529] * 3)
        case = nm.NetworkCase(
            buses=(nm.Bus("a", is_slack=True), nm.Bus("b")),
            branches=(nm.Branch("l", "a", "b", r=r, x=np.zeros((3, 3)), i_max=100.0),),
            loads=(),
            generators=(),
            s_base=100.0,
            v_base=230.0,
            horizon=1,
            period_hours=1.0,
        )
        pu = to_per_unit(case)
        assert pu.branches[0].r[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_power_base(self, synth2):
        phys = to_physical(synth2)
        pu = to_per_unit(phys)
        # 100 kW on a 100 kVA base is 1 pu
        assert 100.0 / phys.s_base == pytest.approx(1.0)

    def test_round_trip_identity(self, synth4):
        back = to_per_unit(to_physical(synth4))
        for br0, br1 in zip(synth4.branches, back.branches):
            np.testing.assert_allclose(br1.r, br0.r, rtol=1e-12)
            np.testing.assert_allclose(br1.x, br0.x, rtol=1e-12)
            assert br1.i_max == pytest.approx(br0.i_max, rel=1e-12)
        for ld0, ld1 in zip(synth4.loads, back.loads):
            np.testing.assert_allclose(ld1.p, ld0.p, rtol=1e-12)
            np.testing.assert_allclose(ld1.q, ld0.q, rtol=1e-12)
        for g0, g1 in zip(synth4.generators, back.generators):
            assert g1.p_cap == pytest.approx(g0.p_cap, rel=1e-12)

    def test_double_conversion_rejected(self, synth2):
        with pytest.raises(InputError):
            to_per_unit(synth2)


class TestLoadNetwork:
    def test_bundled_synth4(self, synth4):
        assert len(synth4.buses) == 4
        assert len(synth4.branches) == 3
        assert synth4.in_per_unit
        assert synth4.horizon == 24

    def test_loads_csv_matches_inline(self, synth4):
        via_csv = load_network(fixture_path("synth4.json"), fixture_path("synth4_loads.csv"))
        for ld0, ld1 in zip(synth4.loads, via_csv.loads):
            np.testing.assert_allclose(ld1.p, ld0.p, rtol=1e-12)
            np.testing.assert_allclose(ld1.q, ld0.q, rtol=1e-12)

    def test_all_fixtures_have_slack_spanning_tree(self):
        for name in ("synth2", "synth4", "synth4_unbal", "feeder_hr", "feeder_au"):
            case = load_network(fixture_path(f"{name}.json"))
            # reachability is enforced on load; double-check the count here
            assert len(case.branches) == len(case.buses) - 1

    def _doc(self):
        return json.loads(fixture_path("synth2.json").read_text())

    def _write(self, tmp_path, doc):
        p = tmp_path / "net.json"
        p.write_text(json.dumps(doc))
        return p

    def test_two_slacks_rejected(self, tmp_path):
        doc = self._doc()
        doc["buses"][1]["is_slack"] = True
        with pytest.raises(InputError, match="multiple slack buses"):
            load_network(self._write(tmp_path, doc))

    def test_no_slack_rejected(self, tmp_path):
        doc = self._doc()
        doc["buses"][0]["is_slack"] = False
        with pytest.raises(InputError, match="no slack bus"):
            load_network(self._write(tmp_path, doc))

    def test_short_profile_rejected(self, tmp_path):
        doc = self._doc()
        doc["loads"][0]["p_profile"] = doc["loads"][0]["p_profile"][:-1]
        with pytest.raises(InputError, match="profile length"):
            load_network(self._write(tmp_path, doc))

    def test_duplicate_bus_ids_rejected(self, tmp_path):
        doc = self._doc()
        doc["buses"].append(dict(doc["buses"][1]))
        with pytest.raises(InputError, match="not radial|duplicate"):
            load_network(self._write(tmp_path, doc))

    def test_disconnected_rejected(self, tmp_path):
        # Branch count matches a tree, but two buses form an island.
        doc = self._doc()
        doc["buses"].append({"id": "orphan", "vmin": 0.9, "vmax": 1.1, "vuf_max": 0.02})
        doc["buses"].append({"id": "orphan2", "vmin": 0.9, "vmax": 1.1, "vuf_max": 0.02})
        for bid in ("lx1", "lx2"):
            doc["branches"].append(
                {
                    "id": bid,
                    "from_bus": "orphan",
                    "to_bus": "orphan2",
                    "z1": {"r_ohm_per_km": 0.2, "x_ohm_per_km": 0.08},
                    "z0": {"r_ohm_per_km": 0.8, "x_ohm_per_km": 0.3},
                    "length_km": 0.1,
                    "i_max_a": 100,
                }
            )
        with pytest.raises(InputError, match="disconnected"):
            load_network(self._write(tmp_path, doc))

    def test_nonradial_rejected(self, tmp_path):
        doc = self._doc()
        doc["branches"].append(dict(doc["branches"][0], id="ln2"))
        with pytest.raises(InputError, match="not radial"):
            load_network(self._write(tmp_path, doc))

    def test_unknown_bus_reference(self, tmp_path):
        doc = self._doc()
        doc["generators"][0]["bus"] = "nowhere"
        with pytest.raises(InputError, match="unknown bus"):
            load_network(self._write(tmp_path, doc))

    def test_missing_field_message_names_field(self, tmp_path):
        doc = self._doc()
        del doc["branches"][0]["i_max_a"]
        with pytest.raises(InputError, match="i_max_a"):
            load_network(self._write(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_network(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "element, field, value",
        [
            ("bus", "vmin", "0.9"),
            ("bus", "vmax", "1.1"),
            ("bus", "vuf_max", "0.02"),
            ("base", "period_hours", "1"),
            ("generator", "q_abs_max_kvar", "3.0"),
            # a string "false" used to count as a second slack bus
            ("bus", "is_slack", "false"),
            ("bus", "is_slack", 0),
            # used to be truncated to 24 periods
            ("base", "periods", 24.5),
            ("base", "periods", True),
        ],
    )
    def test_bad_field_type_exits_1(self, tmp_path, capsys, element, field, value):
        doc = self._doc()
        {"bus": doc["buses"][1], "base": doc["base"], "generator": doc["generators"][0]}[element][field] = value
        net = self._write(tmp_path, doc)
        rc = main(["solve", "--network", str(net), "--scenario", "5", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"field {field!r}" in capsys.readouterr().err

    def _solve_synth4(self, tmp_path, edit_doc, edit_csv):
        """Exit code of a scenario-5 solve of synth4 as edit_doc and edit_csv change
        its JSON and loads-CSV text; edit_csv None runs without the CSV."""
        doc = json.loads(fixture_path("synth4.json").read_text())
        edit_doc(doc)
        args = ["--network", str(self._write(tmp_path, doc))]
        if edit_csv is not None:
            (tmp_path / "loads.csv").write_text(edit_csv(fixture_path("synth4_loads.csv").read_text()))
            args += ["--loads", str(tmp_path / "loads.csv")]
        return main(["solve", *args, "--scenario", "5", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "edit_doc, edit_csv, message",
        [
            # CSV rows for an unknown load or an unconnected phase were ignored
            (set_in(), add_rows("d9", "a"), "loads CSV: no load 'd9' on phase 'a'"),
            (set_in(), add_rows("d1", "c"), "loads CSV: no load 'd1' on phase 'c'"),
            # a load phase that neither the JSON nor the CSV covers loaded as zero demand
            (lambda doc: doc["loads"][1].pop("p_profile"), drop_rows("d2"),
             "load d2: phase a has no p_profile and no loads CSV row"),
            (set_in("loads", 0, "p_profile", None), None, "load d1: phase b has no p_profile and no loads CSV row"),
        ],
        ids=["unknown_load", "unconnected_phase", "uncovered_with_csv", "null_profile"],
    )
    def test_load_without_demand_exits_1(self, tmp_path, capsys, edit_doc, edit_csv, message):
        assert self._solve_synth4(tmp_path, edit_doc, edit_csv) == 1
        assert message in capsys.readouterr().err

    def test_missing_q_profile_is_zero(self, tmp_path):
        doc = self._doc()
        del doc["loads"][0]["q_profile"]
        assert not load_network(self._write(tmp_path, doc)).loads[0].q.any()

    # json accepts NaN and Infinity and float() accepts "nan": a NaN load
    # used to crash the solve in scipy.linalg.lstsq.
    @pytest.mark.parametrize(
        "edit_doc, edit_csv, message",
        [
            (set_in("buses", 1, "vmin", float("nan")), None, "field 'vmin' must be a finite number"),
            # beyond float range: float() raised OverflowError
            (set_in("buses", 1, "vmax", 10**400), None, "field 'vmax' must be a finite number"),
            (set_in("branches", 0, "r_matrix", 0, float("inf")), None, "r_matrix: every entry must be a finite number"),
            (set_in("loads", 0, "p_profile", 3, float("nan")), None, "p_profile: every entry must be a finite number"),
            (set_in(), lambda text: text.replace("d1,b,0,0.4837,", "d1,b,0,nan,"),
             "loads CSV line 2: p_kw and q_kvar must be finite"),
        ],
        ids=["field", "big_int", "matrix", "profile", "csv"],
    )
    def test_non_finite_number_exits_1(self, tmp_path, capsys, edit_doc, edit_csv, message):
        assert self._solve_synth4(tmp_path, edit_doc, edit_csv) == 1
        assert message in capsys.readouterr().err


class TestLoadsCsv:
    def test_bad_header(self, tmp_path):
        p = tmp_path / "loads.csv"
        p.write_text("id,phase,period,p,q\nd1,a,0,1,0\n")
        with pytest.raises(InputError, match="header"):
            nm.load_profiles_csv(p, 4)

    def test_missing_period(self, tmp_path):
        p = tmp_path / "loads.csv"
        p.write_text("element_id,phase,period,p_kw,q_kvar\nd1,a,0,1.0,0.1\nd1,a,2,1.0,0.1\n")
        with pytest.raises(InputError, match="length mismatch|missing period"):
            nm.load_profiles_csv(p, 3)

    def test_duplicate_row(self, tmp_path):
        p = tmp_path / "loads.csv"
        p.write_text("element_id,phase,period,p_kw,q_kvar\nd1,a,0,1.0,0.1\nd1,a,0,2.0,0.1\n")
        with pytest.raises(InputError, match="duplicate"):
            nm.load_profiles_csv(p, 1)

    def test_bad_phase(self, tmp_path):
        p = tmp_path / "loads.csv"
        p.write_text("element_id,phase,period,p_kw,q_kvar\nd1,x,0,1.0,0.1\n")
        with pytest.raises(InputError, match="phase"):
            nm.load_profiles_csv(p, 1)


class TestValidation:
    def test_branch_asymmetric_rejected(self):
        r = np.zeros((3, 3))
        r[0, 1] = 0.5
        with pytest.raises(InputError, match="symmetric"):
            nm.Branch("l", "a", "b", r=r, x=np.zeros((3, 3)), i_max=1.0)

    def test_bus_bounds(self):
        with pytest.raises(InputError):
            nm.Bus("b", vmin=1.2, vmax=1.1)
        with pytest.raises(InputError):
            nm.Bus("b", vuf_max=1.5)

    def test_branch_self_loop(self):
        with pytest.raises(InputError, match="from_bus equals"):
            nm.Branch("l", "a", "a", r=np.zeros((3, 3)), x=np.zeros((3, 3)), i_max=1.0)


class TestTreeIndex:
    @pytest.mark.parametrize("name", ["synth2", "synth4", "synth4_unbal", "feeder_hr", "feeder_au"])
    def test_path_matrix_inverts_incidence(self, name):
        # Branch currents P @ i_net must balance every non-slack bus,
        # A' (P @ i_net) = i_net there; on a tree that fixes P, signs included.
        case = load_network(fixture_path(f"{name}.json"))
        tree = nm.TreeIndex(case)
        others = np.delete(np.arange(len(case.buses)), case.slack)
        np.testing.assert_array_equal(tree.A[:, others].T @ tree.P[:, others], np.eye(len(others)))
        assert not tree.P[:, case.slack].any()

    def test_one_walk_per_case(self, monkeypatch, tmp_path):
        # The case walks its tree once, on load; the programs of a two-stage
        # run, its result files and the oracle's checks all read case.tree.
        case = load_network(fixture_path("synth4_unbal.json"))
        walks = []
        init = nm.TreeIndex.__init__

        def counting(tree, walked):
            walks.append(walked)
            init(tree, walked)

        monkeypatch.setattr(nm.TreeIndex, "__init__", counting)
        result = run_scenario(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), starts=2)
        emit_results(result, tmp_path)
        assert oracle.validate(case, oracle.InjectionSet.from_case(case), 0, ALL_LIMITS).ok
        oracle.doe_bisection(case, case.generators[0].id, ALL_LIMITS, 0)
        assert walks == []

    def test_derived_fields_follow_the_case(self, feeder_hr):
        # A copy with other fields, as a benchmark cuts a case down to some
        # periods, and the physical case both hold their own tree and z.
        periods = [3, 12, 19]
        loads = tuple(dataclasses.replace(ld, p=ld.p[:, periods].copy(), q=ld.q[:, periods].copy())
                      for ld in feeder_hr.loads)
        for case in (dataclasses.replace(feeder_hr, loads=loads, horizon=3), to_physical(feeder_hr)):
            fresh = nm.TreeIndex(case)
            assert case.tree is not feeder_hr.tree
            for name in ("A", "P", "down_sign", "load_bus", "gen_bus"):
                np.testing.assert_array_equal(getattr(case.tree, name), getattr(fresh, name))
            np.testing.assert_array_equal(case.z, np.array([br.r + 1j * br.x for br in case.branches]))
        np.testing.assert_allclose(to_physical(feeder_hr).z, feeder_hr.z * feeder_hr.z_base, rtol=1e-15)

    def test_derived_fields_leave_equality_alone(self, synth4):
        copy = dataclasses.replace(synth4)
        assert copy.tree is not synth4.tree and copy.z is not synth4.z
        assert copy == synth4
