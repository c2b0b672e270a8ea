"""Alternating parent/change pairs of the envelope benchmark, summarized in one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --out BENCH_12.json

Each side runs ``perfbench/run.py`` from a fresh tree of its own, extracted
with ``git archive`` into a temporary directory that is removed afterwards:
the parent from the committed tree of ``--parent``, the change from the
working tree's tracked files (``git stash create``, or HEAD when they are
unchanged).  So neither side runs from the repository itself, whose
location alone would move its measurements.  Pair k (seed k) runs the
parent first when k is odd and the change first when k is even.  After the
untraced pairs, each side makes one traced run (seed 1) of every workload
for the per-layer metrics.

The output records the machine (nproc, Python, numpy and scipy versions),
the commit and the ``src/lvdoe/*.py`` line count of each side, every run's
metrics and, per workload and end-to-end metric, each side's median and
quartiles and the number of pairs the change won.  Whether lower or higher is better comes from
``BENCHMARK.json``.  Per workload it also gives each side's traced per-layer
metrics per round: a traced run repeats the workload for as many rounds as
fit its time, so its times and counts are totals over a number of rounds
that differs between the sides.  The calls of every traced layer, such as
``solver.internalize.calls``, are counted from the run's spans file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# runner(side, workload, seed, trace) -> {"exit_code", "correct", "attempted", "failed", "rounds", "metrics"}
Runner = Callable[[str, str, int, bool], dict]


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of perfbench/run.py in checkout; its JSON result with the exit code and round count."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    rounds = re.search(r"(\d+) round\(s\)", proc.stderr)
    result["exit_code"] = proc.returncode
    result["rounds"] = int(rounds.group(1)) if rounds else None
    result["span_calls"] = span_calls(proc.stderr, checkout)
    return result


def span_calls(stderr: str, checkout: Path) -> dict[str, int]:
    """Spans per name in the spans file that a traced run names on stderr; {} without one."""
    written = re.search(r"spans written to (.+)", stderr)
    if not written:
        return {}
    spans = json.loads((checkout / written.group(1).strip()).read_text())["spans"]
    return dict(sorted(Counter(span[0] for span in spans).items()))


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]} if values else {}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def per_round(result: dict) -> dict:
    """A traced run's per-layer metrics, and its span counts as <name>.calls,
    divided by its rounds.  Times (s) and counts are totals over the rounds;
    other metrics, such as the maximum KKT dimension in rows, are kept as
    they are."""
    rounds = result.get("rounds")
    if not rounds:
        return {}
    calls = {f"{name}.calls": {"value": n, "unit": "count"} for name, n in result.get("span_calls", {}).items()}
    return {
        name: m["value"] / rounds if m["unit"] in ("s", "count") else m["value"]
        for name, m in {**calls, **result["metrics"]}.items()
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, the runs by
    seed and the change's wins over the pairs (ties count for neither); and
    each side's traced per-layer metrics per round."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"]:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        seeds = sorted(s for s, p in pairs.items() if {"parent", "change"} <= set(p))
        metrics = {}
        for name, sense in better.items():
            by_side = {
                side: [pairs[s][side]["metrics"].get(name, {}).get("value") for s in seeds]
                for side in ("parent", "change")
            }
            if any(v is None for vs in by_side.values() for v in vs) or not seeds:
                continue
            sign = -1.0 if sense == "lower" else 1.0
            diffs = [sign * (c - p) for p, c in zip(by_side["parent"], by_side["change"])]
            med_p, med_c = statistics.median(by_side["parent"]), statistics.median(by_side["change"])
            metrics[name] = {
                "better": sense,
                "parent": quartiles(by_side["parent"]),
                "change": quartiles(by_side["change"]),
                "runs_by_seed": by_side,
                "change_wins": sum(d > 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
                "pairs": len(seeds),
                "median_change_rel": (med_c - med_p) / med_p if med_p else None,
            }
        out[workload] = {
            "seeds": seeds,
            "end_to_end": metrics,
            "all_runs_correct": all(p[side]["correct"] for p in pairs.values() for side in p),
            "failed_ops": {side: sum(pairs[s][side]["failed"] for s in seeds) for side in ("parent", "change")},
            "attempted_ops": {side: sum(pairs[s][side]["attempted"] for s in seeds) for side in ("parent", "change")},
            "traced_per_round": {
                r["side"]: {"rounds": r["result"].get("rounds"), "metrics": per_round(r["result"])}
                for r in runs if r["workload"] == workload and r["trace"]
            },
        }
    return out


def collect(runner: Runner, workloads: list[str], pairs: int) -> list[dict]:
    """Every run, in the order made: the alternating pairs, then one traced run per side and workload."""
    runs = []
    for seed in range(1, pairs + 1):
        for workload in workloads:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs.append({"side": side, "workload": workload, "seed": seed, "trace": False,
                             "result": runner(side, workload, seed, False)})
    for workload in workloads:
        for side in ("parent", "change"):
            runs.append({"side": side, "workload": workload, "seed": 1, "trace": True,
                         "result": runner(side, workload, 1, True)})
    return runs


def source_lines(checkout: Path) -> int:
    """Lines of the package's Python source, src/lvdoe/*.py, in checkout."""
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src" / "lvdoe").glob("*.py"))


def report(runs: list[dict], better: dict[str, str], machine: dict, commits: dict, lines: dict,
           command: str) -> dict:
    return {
        "command": command,
        "machine": machine,
        "commits": commits,
        "source_lines": lines,
        "pairs": "seed k: the parent runs first when k is odd, the change when k is even",
        "summary": summarize(runs, better),
        "runs": runs,
    }


def machine_info(python: str) -> dict:
    probe = "import json, sys, numpy, scipy; print(json.dumps([sys.version.split()[0], numpy.__version__, scipy.__version__]))"
    py, np_version, sp_version = json.loads(subprocess.run(
        [python, "-c", probe], capture_output=True, text=True, check=True).stdout)
    return {"nproc": os.cpu_count(), "python": py, "numpy": np_version, "scipy": sp_version, "blas_threads": 1}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def fresh_tree(rev: str, dest: Path) -> Path:
    """The committed tree of rev, extracted with git archive into dest."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    return dest


def pair_count(text: str) -> int:
    """--pairs: a whole number of at least 1, since a report with no pair compares nothing."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="revision of the parent side")
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    commits = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else ""),
    }
    revs = {"parent": commits["parent"], "change": git("stash", "create") or "HEAD"}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        checkouts = {side: fresh_tree(rev, tmp / side) for side, rev in revs.items()}

        def runner(side: str, workload: str, seed: int, trace: bool) -> dict:
            result = run_benchmark(checkouts[side], workload, seed, seconds, trace)
            print(f"{side} {workload} seed {seed} trace {int(trace)}: exit {result['exit_code']}", file=sys.stderr)
            return result

        runs = collect(runner, workloads, args.pairs)
        lines = {side: source_lines(path) for side, path in checkouts.items()}
    finally:
        shutil.rmtree(tmp)
    command = f"python3 perfbench/run.py --workload <w> --seed <1..{args.pairs}> --seconds {seconds} --trace 0|1"
    out = report(runs, better, machine_info(sys.executable), commits, lines, command)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
