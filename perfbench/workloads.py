"""The four envelope workloads, run in a fresh interpreter by run.py.

``python3 perfbench/workloads.py --probe <workload>`` only sets up: it
imports lvdoe, loads the workload's inputs and prints ``ready``.
``python3 perfbench/workloads.py <workload> <seed> <seconds> <trace> <out>``
sets up, repeats whole rounds of the workload until ``seconds`` have passed,
checks the outputs with the independent sweep and prints one JSON line.
The program is reached only through its public entry points.
"""

from __future__ import annotations

import dataclasses
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "src" / "lvdoe" / "fixtures"
sys.path.insert(0, str(HERE))

from lvdoe import cli, netmodel, oracle, solver  # noqa: E402
from lvdoe.nlp import Objective, ScenarioSpec  # noqa: E402
from lvdoe.phasecalc import ALL_LIMITS  # noqa: E402

from sweep import PHASE, SCENARIO_LIMITS, Feeder  # noqa: E402

FEAS_TOL = 1e-6  # pu, how far a selected limit may be exceeded at an envelope
SCALE_UP = 1.001  # all P scaled by this must break a limit (local maximality)
BACKOFF = 1e-4  # stage-2 pin and oracle bracket probes, relative
CSV_KW = 1e-6  # one unit in the last place of envelopes.csv


def load(name: str, loads_csv: str | None = None):
    return netmodel.load_network(
        FIXTURES / f"{name}.json", FIXTURES / loads_csv if loads_csv else None
    )


def restrict(case, periods: list[int]):
    """The same feeder with its load profiles cut down to `periods`."""
    loads = tuple(
        dataclasses.replace(ld, p=ld.p[:, periods].copy(), q=ld.q[:, periods].copy())
        for ld in case.loads
    )
    return dataclasses.replace(case, loads=loads, horizon=len(periods))


def read_envelopes(case, csv_text: str) -> tuple[np.ndarray, np.ndarray]:
    """The text of envelopes.csv as (n_gen, 3, T) arrays of kW and kVAr."""
    gen = {g.id: i for i, g in enumerate(case.generators)}
    p = np.zeros((len(case.generators), 3, case.horizon))
    q = np.zeros_like(p)
    lines = csv_text.splitlines()
    if lines[0] != "generator_id,phase,period,p_kw,q_kvar":
        raise ValueError(f"unexpected envelopes.csv header {lines[0]!r}")
    for line in lines[1:]:
        gid, ph, t, pk, qk = line.split(",")
        p[gen[gid], PHASE[ph], int(t)] = float(pk)
        q[gen[gid], PHASE[ph], int(t)] = float(qk)
    return p, q


def sweep_periods(feeder: Feeder, p_pu: np.ndarray, q_pu: np.ndarray, limits):
    """Worst selected-limit violation per period, or None where the sweep
    does not converge; p_pu and q_pu are (n_gen, 3, T)."""
    T = p_pu.shape[2]
    s = np.stack([feeder.demand(t) for t in range(T)])
    s = s - feeder.generation(np.moveaxis(p_pu, 2, 0), np.moveaxis(q_pu, 2, 0))
    u, i_br, ok = feeder.solve(s)
    worst = feeder.worst_violation(u, i_br, limits)
    return [float(w) if good else None for w, good in zip(worst, ok)]


# ---------------------------------------------------------------------------
# Solver workloads: run_scenario + emit_results per job
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Job:
    label: str
    case: object
    scenario: int
    objective: Objective = Objective.ACTIVE_EXPORT
    starts: int = 2

    @property
    def ops(self) -> int:
        stages = 2 if self.objective is Objective.REACTIVE_MARGIN else 1
        return stages * self.case.horizon


class SolverWorkload:
    def __init__(self, jobs: list[Job]):
        self.jobs = jobs

    @property
    def ops(self) -> int:
        return sum(j.ops for j in self.jobs)

    def run(self, out: Path):
        """One round: ({label: (envelopes.csv text, stage-1 (P, Q) or None)}, failed)."""
        outputs, failed = {}, 0
        for job in self.jobs:
            try:
                result = cli.run_scenario(
                    job.case, ScenarioSpec(job.scenario, job.objective), starts=job.starts
                )
            except (cli.ScenarioSolveError, solver.KktSingularError) as exc:
                print(f"{job.label}: {exc}", file=sys.stderr)
                failed += job.ops
                continue
            cli.emit_results(result, out / job.label)
            csv_text = (out / job.label / "envelopes.csv").read_text()
            # Stage-1 P and Q are kept as tuples so that rounds compare with ==.
            stage1 = None
            if result.stage1 is not None:
                stage1 = (tuple(result.stage1.p_kw.ravel()), tuple(result.stage1.q_kvar.ravel()))
            outputs[job.label] = (csv_text, stage1)
        return outputs, failed

    def export_kwh(self, outputs) -> float:
        total = 0.0
        for job in self.jobs:
            if job.label in outputs:
                p, _ = read_envelopes(job.case, outputs[job.label][0])
                total += p.sum() * job.case.period_hours
        return total

    def check(self, outputs) -> list[str]:
        errors = []
        totals = {}
        for job in self.jobs:
            if job.label not in outputs:
                continue
            case = job.case
            feeder = Feeder(case)
            limits = SCENARIO_LIMITS[job.scenario]
            p_kw, q_kvar = read_envelopes(case, outputs[job.label][0])
            totals[job.label] = p_kw.sum() * case.period_hours
            p, q = p_kw / case.s_base, q_kvar / case.s_base
            if job.objective is Objective.ACTIVE_EXPORT:
                errors += self._check_active(job.label, feeder, p, q, limits)
                continue
            # Two-stage reactive margin: stage 1 is an active-export envelope,
            # and stage 2 pins P a whisker below it.
            p1_kw, q1_kvar = (np.reshape(a, p_kw.shape) for a in outputs[job.label][1])
            errors += self._check_active(
                f"{job.label} stage 1", feeder, p1_kw / case.s_base, q1_kvar / case.s_base, limits
            )
            dev = np.abs(p_kw - p1_kw * (1.0 - BACKOFF)).max()
            if dev > CSV_KW:
                errors.append(f"{job.label}: stage-2 P differs from pinned stage-1 P by {dev:.3e} kW")
            for t, w in enumerate(sweep_periods(feeder, p, q, limits)):
                if w is None or w > FEAS_TOL:
                    errors.append(f"{job.label} period {t}: stage-2 point infeasible ({w})")
        errors += self.check_totals(totals)
        return errors

    @staticmethod
    def _check_active(label, feeder, p, q, limits) -> list[str]:
        errors = []
        for t, w in enumerate(sweep_periods(feeder, p, q, limits)):
            if w is None or w > FEAS_TOL:
                errors.append(f"{label} period {t}: envelope violates a limit by {w}")
        for t, w in enumerate(sweep_periods(feeder, p * SCALE_UP, q, limits)):
            if w is None or w <= 0.0:
                errors.append(f"{label} period {t}: P x {SCALE_UP} still feasible ({w}), not maximal")
        return errors

    def check_totals(self, totals) -> list[str]:
        return []


class SynthSweep(SolverWorkload):
    FIXTURES = (("synth4", "synth4_loads.csv"), ("synth4_unbal", None))

    @classmethod
    def setup(cls, seed: int):
        jobs = []
        for name, loads_csv in cls.FIXTURES:
            case = load(name, loads_csv)
            jobs += [Job(f"{name}-s{sc}", case, sc) for sc in (2, 3, 4, 5)]
        return cls(jobs)

    def check_totals(self, totals) -> list[str]:
        # More limits can only shrink the envelope: scenario 5 holds all of
        # 2, 3 and 4.  The slack is criterion 4's 1e-6 pu, in kWh.
        errors = []
        for name, _ in self.FIXTURES:
            t = [totals.get(f"{name}-s{sc}") for sc in (2, 3, 4, 5)]
            if None not in t and t[3] > min(t[:3]) + 1e-4:
                errors.append(f"{name}: scenario 5 exports {t[3]:.6f} kWh, more than min of 2-4 {min(t[:3]):.6f}")
        return errors


class HrDay(SolverWorkload):
    @classmethod
    def setup(cls, seed: int):
        return cls([Job("feeder_hr-s5", load("feeder_hr"), 5, starts=1)])


class HrMargin(SolverWorkload):
    @staticmethod
    def periods(seed: int) -> list[int]:
        # One period from each four-hour block, so every seed covers the
        # night, the morning and the evening peak alike.
        rng = random.Random(seed)
        return [4 * block + rng.randrange(4) for block in range(6)]

    @classmethod
    def setup(cls, seed: int):
        case = restrict(load("feeder_hr"), cls.periods(seed))
        return cls([Job("feeder_hr-margin-s5", case, 5, Objective.REACTIVE_MARGIN, starts=1)])


class AuOracle:
    # The seed picks which unit on this spur bus, and so which phase, is
    # searched.  A limit depends mostly on where the unit sits, so a fixed
    # bus keeps the day's export steady from seed to seed.
    BUS = "s3"

    def __init__(self, case, generators: list[str]):
        self.case = case
        self.generators = generators
        self.ops = len(generators) * case.horizon

    @classmethod
    def pick(cls, case, seed: int) -> list[str]:
        return [random.Random(seed).choice([g.id for g in case.generators if g.bus == cls.BUS])]

    @classmethod
    def setup(cls, seed: int):
        case = load("feeder_au")
        return cls(case, cls.pick(case, seed))

    def run(self, out: Path):
        limits, failed = {}, 0
        for gid in self.generators:
            for t in range(self.case.horizon):
                try:
                    limits[gid, t] = oracle.doe_bisection(self.case, gid, ALL_LIMITS, t)
                except oracle.InfeasibleAtZeroExportError as exc:
                    print(f"{gid} period {t}: {exc}", file=sys.stderr)
                    failed += 1
        return limits, failed

    def export_kwh(self, limits) -> float:
        return sum(limits.values()) * self.case.s_base * self.case.period_hours

    def check(self, limits) -> list[str]:
        case = self.case
        feeder = Feeder(case)
        gen_pos = {g.id: i for i, g in enumerate(case.generators)}
        keys = [k for k in limits if limits[k] != 10.0 * case.generators[gen_pos[k[0]]].p_cap]
        errors = []
        for factor, want_feasible in ((1.0 - BACKOFF, True), (1.0 + BACKOFF, False)):
            s = []
            for gid, t in keys:
                g = case.generators[gen_pos[gid]]
                p = np.zeros((1, len(case.generators), 3))
                for ph in g.phases:
                    p[0, gen_pos[gid], PHASE[ph]] = limits[gid, t] * factor
                s.append(feeder.demand(t) - feeder.generation(p, np.zeros_like(p))[0])
            if not s:
                continue
            u, i_br, ok = feeder.solve(np.stack(s))
            worst = feeder.worst_violation(u, i_br, {"voltage", "current", "vuf"})
            for (gid, t), w, good in zip(keys, worst, ok):
                feasible = bool(good) and w <= 0.0
                if feasible != want_feasible:
                    errors.append(
                        f"{gid} period {t}: limit {limits[gid, t]:.8f} pu x {factor} "
                        f"is {'in' if want_feasible else ''}feasible (worst {w:.3e})"
                    )
        return errors


WORKLOADS = {"hr_day": HrDay, "synth_sweep": SynthSweep, "hr_margin": HrMargin, "au_oracle": AuOracle}


def main(argv: list[str]) -> int:
    if argv[0] == "--probe":
        WORKLOADS[argv[1]].setup(int(argv[2]))
        print("ready", flush=True)
        return 0

    name, seed, seconds, trace, out_root = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name].setup(seed)

    out_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        out = Path(tmp)
        first, failed, times, errors = None, 0, [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            outputs, round_failed = workload.run(out)
            times.append(time.perf_counter() - t0)
            failed += round_failed
            if first is None:
                first = outputs
            elif outputs != first:
                errors.append("outputs differ between rounds of the same inputs")
                break
            if time.perf_counter() - start >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += workload.check(first)

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    report = {
        "rounds": len(times),
        "attempted": workload.ops * len(times),
        "failed": failed,
        "correct": not errors,
        "run_s": statistics.median(times),
        "export_kwh": workload.export_kwh(first),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["per_layer"] = tracer.metrics()
        spans = out_root / f"spans-{name}-seed{seed}.json"
        tracer.write(spans)
        report["spans"] = str(spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
