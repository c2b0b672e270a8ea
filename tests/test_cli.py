import dataclasses
import hashlib
import json
import re
import shutil

import numpy as np
import pytest
import scipy

from lvdoe import cli, nlp, oracle, solver
from lvdoe.cli import EnvelopeResult, emit_results, main, render_svg, run_scenario
from lvdoe.nlp import Objective, ScenarioSpec
from lvdoe.phasecalc import Violation
from lvdoe.solver import SolverOptions

from conftest import fixture_path, shared_units_case, two_bus_case

SYNTH4 = str(fixture_path("synth4.json"))
SYNTH4_LOADS = str(fixture_path("synth4_loads.csv"))
SYNTH2 = str(fixture_path("synth2.json"))
ROW_ERROR = "envelopes.csv, line 2: expected generator_id,phase,period,p_kw,q_kvar"


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "s5"
    rc = main(
        ["solve", "--network", SYNTH4, "--loads", SYNTH4_LOADS,
         "--scenario", "5", "--objective", "active", "--out", str(out)]
    )
    assert rc == 0
    return out


class TestSolveCommand:
    def test_outputs_exist(self, solved_dir):
        for name in ("envelopes.csv", "summary.json", "diagnostics.json", "timings.json", "manifest.json",
                     "envelopes.svg"):
            assert (solved_dir / name).exists()

    def test_aggregation_identity(self, solved_dir):
        # Every summary total is the sum of the CSV's decimals in its row
        # order, rounded to six decimals: equal, not merely close.
        kw = kvar = 0.0
        per_period = [0.0] * 24
        with open(solved_dir / "envelopes.csv") as fh:
            assert fh.readline().strip() == "generator_id,phase,period,p_kw,q_kvar"
            for line in fh:
                _, _, t, p, q = line.split(",")
                kw, kvar = kw + float(p), kvar + float(q)
                per_period[int(t)] += float(p)
        summary = json.loads((solved_dir / "summary.json").read_text())
        h = summary["period_hours"]
        assert summary["total_production_kwh"] == round(kw * h, 6)
        assert summary["total_production_kvarh"] == round(kvar * h, 6)
        assert summary["per_period_total_kw"] == [round(v, 6) for v in per_period]

    def test_printed_total_equals_summary(self, tmp_path, capsys):
        # The printed total used to sum the unrounded envelopes: 425.310147
        # against the summary's 425.310148 here.
        out = tmp_path / "o"
        assert main(["solve", "--network", SYNTH2, "--scenario", "5", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"total production: {summary['total_production_kwh']:.6f} kWh, "
            f"{summary['total_production_kvarh']:.6f} kVArh"
        )

    def test_manifest_hashes_inputs(self, solved_dir):
        manifest = json.loads((solved_dir / "manifest.json").read_text())
        hashes = {e["path"]: e["sha256"] for e in manifest["inputs"]}
        for path in (SYNTH4, SYNTH4_LOADS):
            digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
            assert hashes[path] == digest

    def test_manifest_records_run_options(self, solved_dir):
        manifest = json.loads((solved_dir / "manifest.json").read_text())
        assert manifest["starts"] == 2
        assert manifest["reactive_p"] == "two_stage"
        assert manifest["solver_options"] == {"tol_kkt": 1e-8, "max_iter": 300}
        assert manifest["libraries"] == {"numpy": np.__version__, "scipy": scipy.__version__}

    def test_manifest_records_the_options_the_run_used(self, tmp_path):
        opts = SolverOptions(tol_kkt=1e-7, max_iter=200)
        result = run_scenario(two_bus_case(), ScenarioSpec(5), opts, starts=1)
        assert result.options == opts
        emit_results(result, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["solver_options"] == {"tol_kkt": 1e-7, "max_iter": 200}

    def test_svg_one_polyline(self, solved_dir):
        svg = (solved_dir / "envelopes.svg").read_text()
        assert svg.count("<polyline") == 1

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--out", str(out)])
            assert rc == 0
            outs.append((out / "envelopes.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_scenario1_totals(self, tmp_path):
        out = tmp_path / "s1"
        rc = main(["solve", "--network", SYNTH2, "--scenario", "1", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_production_kwh"] == pytest.approx(3.68 * 24, abs=1e-9)
        assert summary["total_production_kvarh"] == 0.0


class TestErrorPaths:
    def test_unknown_scenario_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--network", SYNTH2, "--scenario", "9", "--out", "x"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--network", SYNTH2, "--scenario", "5", "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_network_file_exits_1(self, tmp_path):
        rc = main(["solve", "--network", str(tmp_path / "no.json"), "--scenario", "5", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_solver_failure_exits_2(self, tmp_path):
        # voltage floor above nominal with a fixed load is unsatisfiable
        doc = json.loads(open(SYNTH2).read())
        for b in doc["buses"]:
            b["vmin"] = 1.05
            b["vmax"] = 1.2
        doc["loads"][0]["p_profile"] = [3.0] * 24
        doc["loads"][0]["q_profile"] = [1.0] * 24
        net = tmp_path / "bad.json"
        net.write_text(json.dumps(doc))
        rc = main(["solve", "--network", str(net), "--scenario", "5", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_local_infeasibility_exits_2(self, tmp_path, capsys):
        # Period 7's load at 100 times its profile: both its starts end infeasible.
        doc = json.loads(open(SYNTH2).read())
        for ld in doc["loads"]:
            ld["p_profile"][7] *= 100.0
            ld["q_profile"][7] *= 100.0
        net = tmp_path / "heavy.json"
        net.write_text(json.dumps(doc))
        out = tmp_path / "o"
        rc = main(["solve", "--network", str(net), "--scenario", "5", "--out", str(out)])
        assert rc == 2
        assert "period 7 failed with status 'infeasible_local'" in capsys.readouterr().err
        assert not out.exists()

    def test_margin_run_with_unrated_units_exits_0(self, tmp_path):
        # Two units at n2/b that give no reactive rating (q_abs_max_kvar defaults to 0).
        doc = json.loads(fixture_path("synth4_unbal.json").read_text())
        doc["generators"] += [{"id": z, "bus": "n2", "phase": "b", "p_cap_kw": 0.0} for z in ("z1", "z2")]
        net = tmp_path / "unrated.json"
        net.write_text(json.dumps(doc))
        out = tmp_path / "o"
        rc = main(["solve", "--network", str(net), "--scenario", "5", "--objective", "reactive-margin",
                   "--starts", "1", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in (out / "envelopes.csv").read_text().splitlines()[1:]]
        assert {float(r[4]) for r in rows if r[0] in ("z1", "z2")} == {0.0}
        assert main(["validate", "--network", str(net), "--result", str(out), "--scenario", "5"]) == 0

    @pytest.mark.parametrize(
        "flag, target",
        [("--out", "file"), ("--out", "file/o"), ("--network", "."), ("--loads", ".")],
        ids=["out_is_a_file", "out_under_a_file", "network_is_a_directory", "loads_is_a_directory"],
    )
    def test_unusable_path_exits_1(self, tmp_path, capsys, flag, target):
        (tmp_path / "file").write_text("")
        args = {"--network": SYNTH4, "--out": str(tmp_path / "o"), flag: str(tmp_path / target)}
        rc = main(["solve", "--scenario", "1", *(x for pair in args.items() for x in pair)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--network", "--loads"])
    def test_input_not_utf8_exits_1(self, tmp_path, capsys, flag):
        # A UTF-16 byte-order mark before the network JSON; a Latin-1 element id in the loads CSV.
        net, loads = tmp_path / "net.json", tmp_path / "loads.csv"
        net.write_bytes(b"\xff\xfe" + fixture_path("synth4.json").read_bytes())
        loads.write_bytes(fixture_path("synth4_loads.csv").read_bytes().replace(b"\nd1,", b"\n\xff,", 1))
        bad = {"--network": net, "--loads": loads}[flag]
        args = {"--network": SYNTH4, "--loads": SYNTH4_LOADS, flag: str(bad)}
        rc = main(["solve", "--scenario", "1", "--out", str(tmp_path / "o"), *(x for pair in args.items() for x in pair)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text: byte ")

    def test_malformed_network_exits_1(self, tmp_path, capsys):
        doc = json.loads(open(SYNTH2).read())
        doc["generators"][0] = 5
        net = tmp_path / "bad.json"
        net.write_text(json.dumps(doc))
        assert main(["solve", "--network", str(net), "--scenario", "5", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: generator: expected an object, got int\n"

    @pytest.mark.parametrize("objective, stage", [("active", 1), ("reactive-margin", 2)])
    def test_singular_kkt_names_stage_period_and_start(self, tmp_path, monkeypatch, capsys, objective, stage):
        # The last matrix of every factorization reports a zero pivot, so the
        # batch's last instance fails in its first iteration: synth2's 24
        # periods x 2 starts make it period 23, start 1, of the given stage.
        batch, ldlt, stages = solver.solve_batch, solver._ldlt, []

        def counting(*args):
            stages.append(len(stages) + 1)
            return batch(*args)

        def wrong_last(mats):
            factors, inertia = ldlt(mats)
            if stages[-1] == stage:
                inertia[-1] = [0, 0, mats[-1].shape[0]]
            return factors, inertia

        monkeypatch.setattr(solver, "solve_batch", counting)
        monkeypatch.setattr(solver, "_ldlt", wrong_last)
        rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--objective", objective,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: stage {stage}, period 23, start 1: KKT inertia (0, 0, ")
        assert stages == list(range(1, stage + 1))

    def test_singular_kkt_exits_2(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise solver.KktSingularError("KKT matrix singular")

        monkeypatch.setattr(solver, "solve_batch", singular)
        rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "KKT matrix singular" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_unusable_tolerance_exits_1(self, tmp_path, capsys, tol):
        rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--tol", tol, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "tol_kkt must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_iteration_limit_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--max-iter", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'iteration_limit'" in capsys.readouterr().err

    @staticmethod
    def reject_periods(monkeypatch, rejected):
        """oracle.validate rejects the given periods and passes the rest; returns the periods it was asked about."""
        asked = []

        def rejects(case, injections, period, constraint_set, u=None):
            asked.append(period)
            return oracle.ValidationReport((Violation("voltage_high", "n1", "a", period, 0.01),) if period in rejected else ())

        monkeypatch.setattr(oracle, "validate", rejects)
        return asked

    @staticmethod
    def no_optimum_at(monkeypatch, period):
        """Every start of one period ends at the iteration limit."""
        batch = solver.solve_batch

        def stops(form, x0, options):
            sols = batch(form, x0, options)
            per_period = len(sols) // 24  # synth2's 24 periods, each with its starts
            return [dataclasses.replace(s, status="iteration_limit") if k // per_period == period else s
                    for k, s in enumerate(sols)]

        monkeypatch.setattr(solver, "solve_batch", stops)

    def test_oracle_rejection_exits_2(self, tmp_path, monkeypatch, capsys):
        def rejects(*args, **kwargs):
            return oracle.ValidationReport((Violation("voltage_high", "n1", "a", 0, 0.01),))

        monkeypatch.setattr(oracle, "validate", rejects)
        rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "period 0 failed with status 'oracle_rejected'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejection_before_a_period_without_optimum_is_named(self, tmp_path, monkeypatch, capsys):
        asked = self.reject_periods(monkeypatch, {5})
        self.no_optimum_at(monkeypatch, 7)
        rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "period 5 failed with status 'oracle_rejected'" in capsys.readouterr().err
        assert asked == list(range(6))  # the scan stops at the rejected period

    def test_period_without_optimum_before_a_rejection_is_named(self, tmp_path, monkeypatch, capsys):
        self.reject_periods(monkeypatch, {9})
        self.no_optimum_at(monkeypatch, 7)
        rc = main(["solve", "--network", SYNTH2, "--scenario", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "period 7 failed with status 'iteration_limit'" in capsys.readouterr().err


class TestValidateCommand:
    def test_fresh_solve_validates_clean(self, solved_dir):
        rc = main(
            ["validate", "--network", SYNTH4, "--loads", SYNTH4_LOADS,
             "--result", str(solved_dir), "--scenario", "5"]
        )
        assert rc == 0

    def test_tampered_envelope_fails(self, solved_dir, tmp_path):
        lines = (solved_dir / "envelopes.csv").read_text().splitlines()
        parts = lines[1].split(",")
        parts[3] = "500.0"  # far beyond any limit
        lines[1] = ",".join(parts)
        bad = tmp_path / "envelopes.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            ["validate", "--network", SYNTH4, "--loads", SYNTH4_LOADS,
             "--result", str(bad), "--scenario", "5"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (2, "99", "period 99 outside horizon 24"),
            # numpy indexing would silently write period 23; the reader rejects it
            (2, "-1", "line 2: period -1 is negative"),
            (1, "x", "unknown phase 'x'"),
            # malformed lines: a missing or extra field, a period or number that does not parse
            (4, None, ROW_ERROR),
            (4, "0.0,1.0", ROW_ERROR),
            (2, "a", ROW_ERROR),
            (3, "5O.0", ROW_ERROR),
            # a non-finite number used to reach the power flow and exit 2
            (3, "nan", "p_kw and q_kvar must be finite"),
            (4, "-inf", "p_kw and q_kvar must be finite"),
            # g1 is connected to phase a only
            (1, "b", "generator 'g1' is not connected to phase 'b'"),
            # Whole-file cases: field None writes these rows of the solved file unchanged.
            pytest.param(None, (), "no row for generator 'g1', phase 'a', period 0 (72 rows missing)",
                         id="header_only"),
            pytest.param(None, (0,), "no row for generator 'g1', phase 'a', period 1 (71 rows missing)",
                         id="missing_rows"),
            pytest.param(None, (0, 1, 1), "line 4: duplicate row for generator 'g1', phase 'a', period 1",
                         id="duplicate_row"),
        ],
    )
    def test_bad_row_exits_1(self, solved_dir, tmp_path, capsys, field, value, message):
        lines = (solved_dir / "envelopes.csv").read_text().splitlines()
        if field is None:
            rows = [lines[1 + k] for k in value]
        else:
            parts = lines[1].split(",")
            if value is None:
                del parts[field]
            else:
                parts[field] = value
            rows = [",".join(parts)]
        bad = tmp_path / "envelopes.csv"
        bad.write_text("\n".join([lines[0], *rows]) + "\n")
        rc = main(
            ["validate", "--network", SYNTH4, "--loads", SYNTH4_LOADS,
             "--result", str(bad), "--scenario", "5"]
        )
        assert rc == 1
        assert message in capsys.readouterr().err


class TestOracleCommand:
    def test_prints_limit(self, capsys):
        rc = main(
            ["oracle", "--network", SYNTH2, "--generator", "g1",
             "--constraints", "voltage,current,vuf", "--period", "12"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "period 12:" in out and "kW" in out

    def test_bracket_top_is_not_reported_as_a_limit(self, capsys):
        # g43 stays feasible at 10 x p_cap in period 19; its limit lies higher
        rc = main(
            ["oracle", "--network", str(fixture_path("feeder_hr.json")), "--generator", "g43",
             "--period", "19"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "period 19: 36.800000 kW (bracket top: no limit found at or below 10 x p_cap)\n"

    def test_unknown_generator_exits_1(self, capsys):
        rc = main(["oracle", "--network", SYNTH2, "--generator", "nope", "--period", "0"])
        assert rc == 1
        assert "unknown generator 'nope'" in capsys.readouterr().err

    def test_bad_constraint_name_exits_1(self):
        rc = main(
            ["oracle", "--network", SYNTH2, "--generator", "g1",
             "--constraints", "volts", "--period", "0"]
        )
        assert rc == 1

    def test_infeasible_at_zero_export_exits_2(self, tmp_path, capsys):
        # A voltage floor above the slack's nominal voltage fails with every unit off.
        doc = json.loads(open(SYNTH2).read())
        for b in doc["buses"]:
            b["vmin"] = 1.02
            b["vmax"] = 1.2
        net = tmp_path / "floor.json"
        net.write_text(json.dumps(doc))
        rc = main(["oracle", "--network", str(net), "--generator", "g1", "--period", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: limits violated with generator g1 at zero export\n"


class TestPlotCommand:
    def test_two_results_two_polylines(self, solved_dir, tmp_path):
        out2 = tmp_path / "s2"
        rc = main(["solve", "--network", SYNTH4, "--scenario", "2", "--out", str(out2)])
        assert rc == 0
        svg_out = tmp_path / "combo.svg"
        rc = main(["plot", "--result", str(solved_dir), str(out2), "--out", str(svg_out)])
        assert rc == 0
        assert svg_out.read_text().count("<polyline") == 2

    def test_one_result_reproduces_its_svg(self, solved_dir, tmp_path):
        assert main(["plot", "--result", str(solved_dir), "--out", str(tmp_path / "x.svg")]) == 0
        assert (tmp_path / "x.svg").read_bytes() == (solved_dir / "envelopes.svg").read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{", "summary.json: invalid JSON"),
            ("[]", "summary.json: expected an object, got list"),
            ("{}", "summary.json: missing field 'scenario'"),
            ('{"scenario": 5, "objective": "active_export", "period_hours": "x"}',
             "summary.json: field 'period_hours' must be a finite number"),
        ],
        ids=["not_json", "list", "empty", "period_hours"],
    )
    def test_bad_summary_exits_1(self, solved_dir, tmp_path, capsys, text, message):
        shutil.copy(solved_dir / "envelopes.csv", tmp_path)
        (tmp_path / "summary.json").write_text(text)
        rc = main(["plot", "--result", str(tmp_path), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("name", ["envelopes.csv", "summary.json"])
    def test_result_not_utf8_exits_1(self, solved_dir, tmp_path, capsys, name):
        for f in ("envelopes.csv", "summary.json"):
            shutil.copy(solved_dir / f, tmp_path)
        (tmp_path / name).write_bytes(b"\xff" + (tmp_path / name).read_bytes())
        rc = main(["plot", "--result", str(tmp_path), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tmp_path / name}: not UTF-8 text: byte 0 is b'\\xff'\n"
        assert not (tmp_path / "x.svg").exists()

    def test_horizon_from_summary(self, tmp_path):
        # With no generators the CSV has no rows; the plot still spans the 4 periods.
        no_gen = dataclasses.replace(two_bus_case(), generators=())
        emit_results(run_scenario(no_gen, ScenarioSpec(1)), tmp_path)
        assert main(["plot", "--result", str(tmp_path), "--out", str(tmp_path / "x.svg")]) == 0
        svg = (tmp_path / "x.svg").read_text()
        assert svg == (tmp_path / "envelopes.svg").read_text()
        assert len(re.search(r'points="([^"]*)"', svg).group(1).split()) == 4

    def test_row_beyond_summary_periods_exits_1(self, solved_dir, tmp_path, capsys):
        shutil.copy(solved_dir / "summary.json", tmp_path)
        lines = (solved_dir / "envelopes.csv").read_text().splitlines()
        (tmp_path / "envelopes.csv").write_text("\n".join(lines + ["g1,a,24,1.0,0.0"]) + "\n")
        rc = main(["plot", "--result", str(tmp_path), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert "envelopes.csv: period 24 outside the 24 periods of " in capsys.readouterr().err

    def test_bad_row_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "envelopes.csv"
        bad.write_text("generator_id,phase,period,p_kw,q_kvar\ng1,a,3,50.0\n")
        rc = main(["plot", "--result", str(bad), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert f"{bad}, line 2: expected" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_negative_period_exits_1(self, tmp_path, capsys):
        # Period -1 used to add its 5 kW to the last period.
        bad = tmp_path / "envelopes.csv"
        bad.write_text("generator_id,phase,period,p_kw,q_kvar\ng1,a,0,1.0,0\ng1,a,1,2.0,0\ng1,a,-1,5.0,0\n")
        rc = main(["plot", "--result", str(bad), "--out", str(tmp_path / "x.svg")])
        assert rc == 1
        assert f"{bad}, line 4: period -1 is negative" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


class TestRunScenario:
    def test_scenario1_closed_form(self, synth4):
        result = run_scenario(synth4, ScenarioSpec(1))
        per_gen = 3.68 * 24
        assert result.total_kwh == pytest.approx(3 * per_gen, abs=1e-9)
        assert result.total_kvarh == 0.0
        assert all(d["status"] == "closed_form" for d in result.diagnostics)

    def test_daily_total_is_sum_of_periods(self, synth4):
        result = run_scenario(synth4, ScenarioSpec(1))
        per_period_kw = result.p_kw.sum(axis=(0, 1))
        assert result.total_kwh == pytest.approx(per_period_kw.sum() * synth4.period_hours, rel=1e-12)

    @pytest.mark.parametrize("scenario", [2, 3, 4, 5])
    def test_every_period_passes_the_oracle(self, synth4_unbal, scenario):
        result = run_scenario(synth4_unbal, ScenarioSpec(scenario), starts=1)
        for d in result.diagnostics:
            assert d["oracle_voltage_deviation"] <= 1e-6
            assert d["oracle_violations"] == 0

    def test_diagnostics_count_factorizations(self, synth4_unbal, tmp_path):
        result = run_scenario(synth4_unbal, ScenarioSpec(5), starts=1)
        for d in result.diagnostics:
            assert d["factorizations"] >= d["iterations"] > 0
        emit_results(result, tmp_path)
        assert "factorizations" not in (tmp_path / "summary.json").read_text()

    def test_trace_line_shows_regularization(self, capsys):
        run_scenario(two_bus_case(), ScenarioSpec(5), SolverOptions(trace=True), starts=1)
        line = capsys.readouterr().out.splitlines()[0]
        assert " dw " in line and " dc " in line and " fact " in line

    def test_factorization_time_stays_out_of_output_files(self, tmp_path, capsys):
        result = run_scenario(two_bus_case(), ScenarioSpec(5), SolverOptions(trace=True), starts=1)
        assert capsys.readouterr().out.splitlines()[0].endswith(" ms")
        for path in emit_results(result, tmp_path):
            assert "factorize_s" not in path.read_text()

    def test_diagnostics_record_every_start(self, synth4_unbal, tmp_path):
        # Both starts reach the same optimum; a later start wins only when it
        # is better by more than 1e-10 pu.
        runs = [run_scenario(synth4_unbal, ScenarioSpec(2)) for _ in range(2)]
        result = runs[0]
        for t in (0, 12):
            d = result.diagnostics[t]
            assert [st["status"] for st in d["starts"]] == ["optimal", "optimal"]
            objs = [st["objective"] for st in d["starts"]]
            assert objs == pytest.approx([0.9455, 0.9455], abs=1e-4)
            assert d["winning_start"] == int(objs[1] > objs[0] + 1e-10)
            assert result.objective_pu[t] == objs[d["winning_start"]]
            assert result.start_spread_pu >= abs(objs[1] - objs[0])
        texts = []
        for k, run in enumerate(runs):
            emit_results(run, tmp_path / str(k))
            texts.append((tmp_path / str(k) / "diagnostics.json").read_bytes())
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["periods"] == json.loads(json.dumps(list(result.diagnostics)))
        summary = json.loads((tmp_path / "0" / "summary.json").read_text())
        assert summary["start_spread_pu"] == result.start_spread_pu

    def test_diagnostics_file_holds_stage1(self, tmp_path):
        result = run_scenario(two_bus_case(), ScenarioSpec(5, Objective.REACTIVE_MARGIN), starts=1)
        emit_results(result, tmp_path)
        diagnostics = json.loads((tmp_path / "diagnostics.json").read_text())
        assert len(diagnostics["stage1"]) == len(diagnostics["periods"]) == 4
        assert all(d["winning_start"] == 0 and len(d["starts"]) == 1 for d in diagnostics["stage1"])

    def test_timings_apart_from_deterministic_files(self, tmp_path):
        # Two-stage margin run: stage 1 and stage 2 each time their one batch
        # solve, and the build and validation of every period.
        runs = [
            run_scenario(two_bus_case(), ScenarioSpec(5, Objective.REACTIVE_MARGIN), starts=1) for _ in range(2)
        ]
        for k, run in enumerate(runs):
            emit_results(run, tmp_path / str(k))
        for name in ("envelopes.csv", "summary.json", "diagnostics.json", "envelopes.svg"):
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
        timings = json.loads((tmp_path / "0" / "timings.json").read_text())
        assert set(timings) == {"periods", "solve_s", "stage1", "emit_s"}
        assert set(timings["stage1"]) == {"periods", "solve_s"}
        assert timings["emit_s"] > 0.0
        for stage in (timings, timings["stage1"]):
            assert stage["solve_s"] > 0.0
            assert [d["period"] for d in stage["periods"]] == [0, 1, 2, 3]
            for d in stage["periods"]:
                assert set(d) == {"period", "build_s", "validate_s"}
                assert d["build_s"] > 0.0 and d["validate_s"] > 0.0

    def test_scenario1_has_no_start_spread(self, synth4):
        assert run_scenario(synth4, ScenarioSpec(1)).start_spread_pu == 0.0

    def test_units_split_p_and_q_by_rating(self, synth4_unbal):
        # g2, g3 and the three-phase t3 share n3/a; z1 and z2, with no P
        # rating and 1 and 2 kVAr, share n2/b.  Each unit reports its rating
        # share of its injection, in both stages of a margin run.
        case = shared_units_case(synth4_unbal, unrated_q_kvar=(1.0, 2.0))
        result = run_scenario(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), starts=1)
        gen = {g.id: k for k, g in enumerate(case.generators)}
        n3a, n2b = [gen["g2"], gen["g3"], gen["t3"]], [gen["z1"], gen["z2"]]

        def assert_shares(values, ratings):
            want = np.broadcast_to(np.array(ratings)[:, None] / sum(ratings), values.shape)
            np.testing.assert_allclose(values / values.sum(axis=0), want, rtol=1e-12)

        for stage in (result.stage1, result):
            p, q = stage.p_kw, stage.q_kvar
            assert (p[n3a, 0] > 0.0).all() and (p[n2b, 1] > 0.0).all()
            assert_shares(p[n3a, 0], [3.68, 3.68, 5.0])
            assert_shares(q[n3a, 0], [2.5, 2.5, 1.0])
            np.testing.assert_array_equal(p[gen["z1"], 1], p[gen["z2"], 1])
            assert_shares(q[n2b, 1], [1.0, 2.0])
        # Stage 1 boxes each injection's Q by its units' summed rating, so
        # every unit's share stays within its own rating.
        s1 = result.stage1
        q_max = np.array([g.q_abs_max for g in case.generators])[:, None, None] * case.s_base
        assert (np.abs(s1.q_kvar) <= q_max * (1.0 + 1e-12)).all()
        assert np.abs(s1.q_kvar).max(axis=2)[n3a, 0] == pytest.approx(q_max[n3a, 0, 0], rel=1e-4)
        # The shares sum to the optimized injections.
        np.testing.assert_allclose(s1.p_kw.sum(axis=(0, 1)), s1.objective_pu * case.s_base, rtol=1e-14)
        np.testing.assert_allclose(result.p_kw, s1.p_kw * (1.0 - 1e-4), rtol=1e-12)

    def test_margin_run_with_an_unrated_injection(self, synth4_unbal):
        # z1 and z2 share n2/b and have no reactive rating at all: their
        # injection has no reactive split, and its Q is pinned at 0.
        case = shared_units_case(synth4_unbal, unrated_q_kvar=(0.0, 0.0))
        result = run_scenario(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), starts=1)
        gen = {g.id: k for k, g in enumerate(case.generators)}
        for stage in (result.stage1, result):
            assert [d["status"] for d in stage.diagnostics] == ["optimal"] * case.horizon
            assert all(d["oracle_violations"] == 0 for d in stage.diagnostics)
            assert not stage.q_kvar[[gen["z1"], gen["z2"]], 1].any()

    @pytest.mark.parametrize("heavy, first", [([7], 7), ([17, 5], 5)])
    def test_names_the_first_failed_period(self, synth2, heavy, first):
        # A load 100 times its profile makes a period infeasible; the whole
        # stage is solved as one batch, and the first failure in time order
        # is the one reported.
        loads = []
        for ld in synth2.loads:
            p, q = ld.p.copy(), ld.q.copy()
            p[:, heavy] *= 100.0
            q[:, heavy] *= 100.0
            loads.append(dataclasses.replace(ld, p=p, q=q))
        with pytest.raises(cli.ScenarioSolveError) as exc:
            run_scenario(dataclasses.replace(synth2, loads=tuple(loads)), ScenarioSpec(5))
        assert exc.value.period == first and exc.value.status == "infeasible_local"

    def test_two_stage_reports_both(self):
        case = two_bus_case()
        result = run_scenario(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), starts=1)
        assert result.stage1 is not None
        assert result.stage1.spec.objective is Objective.ACTIVE_EXPORT
        # margin-stage P sits a whisker below the stage-1 export
        np.testing.assert_allclose(result.p_kw, result.stage1.p_kw * (1 - 1e-4), rtol=1e-9)

    def test_each_stage_internalizes_once(self, monkeypatch):
        # Periods differ only in their pins, so one form serves every period
        # and start of a stage.
        internalized = []
        internalize = solver.internalize

        def recording(problem):
            internalized.append((problem.layout.with_reactive_split, problem.period))
            return internalize(problem)

        monkeypatch.setattr(solver, "internalize", recording)
        result = run_scenario(two_bus_case(), ScenarioSpec(5, Objective.REACTIVE_MARGIN), starts=2)
        assert len(result.diagnostics) == len(result.stage1.diagnostics) == 4
        # Stage 1 (active export), then stage 2 (the margin, with its reactive split).
        assert internalized == [(False, 0), (True, 0)]

    def test_free_variant_zeroes_reactive(self):
        case = two_bus_case()
        result = run_scenario(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), reactive_p="free", starts=1)
        assert result.stage1 is None
        np.testing.assert_allclose(result.q_kvar, 0.0, atol=1e-4 * case.s_base)

    def test_unknown_reactive_mode(self):
        case = two_bus_case()
        with pytest.raises(ValueError, match="reactive_p"):
            run_scenario(case, ScenarioSpec(5, Objective.REACTIVE_MARGIN), reactive_p="both")

    def test_unknown_reactive_mode_rejected_for_active_export(self):
        # active export never reads reactive_p, but the manifest would record it
        with pytest.raises(ValueError, match="reactive_p"):
            run_scenario(two_bus_case(), ScenarioSpec(5), reactive_p="bogus")

    @pytest.mark.parametrize("starts", [0, len(cli.START_SCALES) + 1, 9])
    def test_start_count_outside_the_ladder_rejected(self, starts):
        # 9 would run the 5 scales of the ladder and record 9 in the manifest
        with pytest.raises(ValueError, match="starts"):
            run_scenario(two_bus_case(), ScenarioSpec(5), starts=starts)


class TestEmitResults:
    def test_empty_network_empty_files(self, tmp_path):
        case = two_bus_case()
        import dataclasses

        no_gen = dataclasses.replace(case, generators=())
        result = run_scenario(no_gen, ScenarioSpec(1))
        files = emit_results(result, tmp_path / "empty")
        csv_text = (tmp_path / "empty" / "envelopes.csv").read_text()
        assert csv_text == "generator_id,phase,period,p_kw,q_kvar\n"
        summary = json.loads((tmp_path / "empty" / "summary.json").read_text())
        assert summary["total_production_kwh"] == 0.0
        svg = (tmp_path / "empty" / "envelopes.svg").read_text()
        assert svg.count("<polyline") == 1  # flat zero series still drawn

    def test_summary_total_equals_the_csv_decimals(self, tmp_path):
        # round() on a numpy float rounds this P to 0.912756, but the CSV
        # writes 0.912755; the summary adds up what the CSV holds.
        case = two_bus_case()
        p_kw = np.zeros((1, 3, case.horizon))
        p_kw[0, 0, 0] = 0.9127554999999999
        result = EnvelopeResult(case, ScenarioSpec(5), p_kw, np.zeros_like(p_kw), np.zeros(case.horizon), ())
        emit_results(result, tmp_path)
        assert (tmp_path / "envelopes.csv").read_text().splitlines()[1] == "g1,a,0,0.912755,0.000000"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["total_production_kwh"] == result.total_kwh == 0.912755
        assert summary["per_period_total_kw"] == [0.912755, 0.0, 0.0, 0.0]

    def test_csv_number_format(self, solved_dir):
        lines = (solved_dir / "envelopes.csv").read_text().splitlines()[1:]
        for line in lines[:5]:
            p_field = line.split(",")[3]
            assert "." in p_field
            assert len(p_field.split(".")[1]) == 6


class TestRenderSvg:
    def test_structure(self):
        svg = render_svg([("s5", [1.0, 2.0, 3.0]), ("s2", [3.0, 1.0, 2.0])], 1.0)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "aggregate export" in svg
