"""The JSON report of tools/bench_pairs.py, built from a stub runner (no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_runner(calls):
    def runner(side, workload, seed, trace):
        calls.append((side, workload, seed, trace))
        if trace:
            # The parent's traced run makes 4 rounds, the change's 5.
            rounds, solves = (5, 110) if side == "change" else (4, 96)
            return {"correct": True, "attempted": 24 * rounds, "failed": 0, "rounds": rounds,
                    "metrics": {"solver.kkt_dim_max": {"value": 146 if side == "change" else 386, "unit": "rows"},
                                "solver.solve.calls": {"value": solves, "unit": "count"},
                                "solver.factorize.s": {"value": 2.0, "unit": "s"}}}
        # run_s: the parent takes 10 + seed s, the change 5 + seed s except on seed 3,
        # where it takes 20 s; export_kwh is equal on both sides.
        run_s = 10.0 + seed if side == "parent" else (20.0 if seed == 3 else 5.0 + seed)
        return {"correct": True, "attempted": 24, "failed": 0, "rounds": 1,
                "metrics": {"run_s": {"value": run_s, "unit": "s"}, "export_kwh": {"value": 7.0, "unit": "kWh"}}}
    return runner


def test_report_from_stub_runner(bench_pairs, tmp_path):
    calls = []
    runs = bench_pairs.collect(stub_runner(calls), ["hr_day"], pairs=4)
    # Pairs alternate which side runs first; one traced run per side comes last.
    assert calls == [
        ("parent", "hr_day", 1, False), ("change", "hr_day", 1, False),
        ("change", "hr_day", 2, False), ("parent", "hr_day", 2, False),
        ("parent", "hr_day", 3, False), ("change", "hr_day", 3, False),
        ("change", "hr_day", 4, False), ("parent", "hr_day", 4, False),
        ("parent", "hr_day", 1, True), ("change", "hr_day", 1, True),
    ]
    better = {"run_s": "lower", "export_kwh": "higher", "peak_rss_mb": "lower"}
    machine = {"nproc": 2, "python": "3.x", "numpy": "n", "scipy": "s", "blas_threads": 1}
    lines = {"parent": 2861, "change": 2772}
    out = bench_pairs.report(runs, better, machine, {"parent": "aaa", "change": "bbb"}, lines, "cmd")
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(out))
    back = json.loads(path.read_text())

    assert back["machine"] == machine and back["commits"] == {"parent": "aaa", "change": "bbb"}
    assert back["source_lines"] == lines
    assert len(back["runs"]) == 10
    summary = back["summary"]["hr_day"]
    assert summary["seeds"] == [1, 2, 3, 4] and summary["all_runs_correct"]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}
    run_s = summary["end_to_end"]["run_s"]
    assert run_s["runs_by_seed"] == {"parent": [11.0, 12.0, 13.0, 14.0], "change": [6.0, 7.0, 20.0, 9.0]}
    assert run_s["parent"]["median"] == 12.5 and run_s["change"]["median"] == 8.0
    assert run_s["parent"]["q1"] < run_s["parent"]["median"] < run_s["parent"]["q3"]
    assert (run_s["change_wins"], run_s["ties"], run_s["pairs"]) == (3, 0, 4)
    assert run_s["median_change_rel"] == pytest.approx(8.0 / 12.5 - 1.0)
    export = summary["end_to_end"]["export_kwh"]
    assert (export["change_wins"], export["ties"]) == (0, 4)
    # A metric that no run reports is left out.
    assert "peak_rss_mb" not in summary["end_to_end"]
    # Traced times and counts per round; the maximum dimension as it is.
    assert summary["traced_per_round"] == {
        "parent": {"rounds": 4, "metrics": {"solver.kkt_dim_max": 386, "solver.solve.calls": 24.0,
                                            "solver.factorize.s": 0.5}},
        "change": {"rounds": 5, "metrics": {"solver.kkt_dim_max": 146, "solver.solve.calls": 22.0,
                                            "solver.factorize.s": 0.4}},
    }


def test_spans_counted_per_round(bench_pairs, tmp_path):
    # A traced run of 2 rounds names its spans file on stderr, relative to its checkout.
    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    names = ["solver.solve", "solver.internalize", "solver.solve", "solver.factorize", "solver.factorize"]
    spans = [[name, 0.0, 1.0, -1] for name in names]
    (out / "spans-hr_day-seed1.json").write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                                            "spans": spans}))
    stderr = "hr_day seed 1: 2 round(s), run_s 1.0\nspans written to perfbench/out/spans-hr_day-seed1.json\n"
    counts = bench_pairs.span_calls(stderr, tmp_path)
    assert counts == {"solver.factorize": 2, "solver.internalize": 1, "solver.solve": 2}
    assert bench_pairs.span_calls("hr_day seed 1: 2 round(s), run_s 1.0\n", tmp_path) == {}
    # The tracer's own counts agree with the spans; the spans add the calls it does not report.
    result = {"rounds": 2, "span_calls": counts, "metrics": {"solver.solve.calls": {"value": 2, "unit": "count"},
                                                             "solver.kkt_dim_max": {"value": 146, "unit": "rows"}}}
    assert bench_pairs.per_round(result) == {"solver.factorize.calls": 1.0, "solver.internalize.calls": 0.5,
                                             "solver.solve.calls": 1.0, "solver.kkt_dim_max": 146}


def test_source_lines_counts_package_python_files(bench_pairs, tmp_path):
    pkg = tmp_path / "src" / "lvdoe"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    assert bench_pairs.source_lines(tmp_path) == 3


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_pairs_below_one_rejected_before_any_run(bench_pairs, tmp_path, monkeypatch, capsys, pairs):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_benchmark", no_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--pairs", pairs, "--out", str(out)])
    assert exc.value.code == 2
    assert f"--pairs: must be at least 1, got {int(pairs)}" in capsys.readouterr().err
    assert not out.exists()


def test_both_sides_run_from_fresh_trees(bench_pairs, tmp_path, monkeypatch):
    # A repository whose parent and HEAD commit marker.txt as "parent" and
    # "head", and whose working tree edits it to "edited".
    repo = tmp_path / "repo"
    repo.mkdir()
    for name in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{name}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{name}_EMAIL", "bench@example.com")
    bench = {"run_seconds": 1, "workloads": [{"name": "hr_day"}],
             "end_to_end": [{"name": "run_s", "better": "lower"}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    for text in ("parent", "head"):
        (repo / "marker.txt").write_text(text)
        subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
        subprocess.run(["git", "commit", "-q", "-m", text], cwd=repo, check=True)
    (repo / "marker.txt").write_text("edited")

    seen = []

    def recording(checkout, workload, seed, seconds, trace):
        seen.append((checkout, (checkout / "marker.txt").read_text()))
        return {"exit_code": 0, "correct": True, "attempted": 1, "failed": 0, "rounds": 1,
                "metrics": {"run_s": {"value": 1.0, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_benchmark", recording)
    monkeypatch.setattr(bench_pairs, "machine_info", lambda python: {})
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--pairs", "1", "--out", str(out)]) == 0
    # Seed 1 runs the parent first, then the change; then one traced run each.
    assert [text for _, text in seen] == ["parent", "edited", "parent", "edited"]
    assert all(checkout != repo and repo not in checkout.parents for checkout, _ in seen)
    assert json.loads(out.read_text())["commits"]["change"].endswith("-dirty")
