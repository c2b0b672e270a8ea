"""Scenario runner, result files and the command-line interface.

Runs the per-period programs for a chosen scenario/objective pair,
aggregates daily envelopes, and writes deterministic result files
(envelopes.csv, summary.json, diagnostics.json, manifest.json and an SVG
export plot) next to timings.json, the one file that holds wall times.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
from dataclasses import dataclass, replace
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, nlp, oracle, solver
from .netmodel import InputError, NetworkCase, PHASE_INDEX, PHASES, _get, load_network, read_text
from .phasecalc import LimitKind
from .nlp import Objective, ScenarioSpec
from .solver import SolverOptions


class ScenarioSolveError(RuntimeError):
    """A period of a stage ended without an optimum, or the oracle rejected its optimum."""

    def __init__(self, stage: int, period: int, status: str):
        super().__init__(f"stage {stage}, period {period} failed with status {status!r}")
        self.stage = stage
        self.period = period
        self.status = status


# Deterministic initial-voltage ladder for multi-start polishing; the first
# N entries are used.  Nonconvex problems occasionally park a generator in a
# poor local optimum from the nominal flat start alone.
START_SCALES = (1.0, 0.9, 1.05, 0.8, 0.95)


@dataclass(frozen=True)
class EnvelopeResult:
    """Per-generator export limits for every phase and period, plus totals."""

    case: NetworkCase
    spec: ScenarioSpec
    p_kw: np.ndarray   # (n_gen, 3, T)
    q_kvar: np.ndarray
    objective_pu: np.ndarray  # (T,) optimizer objective per period
    diagnostics: tuple[dict, ...]
    timings: tuple[dict, ...] = ()  # per solved period: build and validation seconds
    solve_s: float = 0.0  # seconds of the stage's one batch solve
    stage1: "EnvelopeResult | None" = None
    starts: int = 2
    reactive_p: str = "two_stage"
    options: SolverOptions = SolverOptions()

    @functools.cached_property
    def rows(self) -> tuple[tuple[str, str, int, str, str], ...]:
        """envelopes.csv's rows in file order: generator id, phase, period, and P and Q at the file's six decimals."""
        p, q, gens = self.p_kw.tolist(), self.q_kvar.tolist(), self.case.generators
        rows = [(gens[g].id, PHASES[ph], t, f"{p[g][ph][t]:.6f}", f"{q[g][ph][t]:.6f}")
                for g, ph in self.case.gen_entries() for t in range(self.case.horizon)]
        return tuple(sorted(rows, key=lambda r: r[:3]))

    @property
    def total_kwh(self) -> float:
        return _envelope_totals(self.rows, self.case.horizon, self.case.period_hours)[0]

    @property
    def total_kvarh(self) -> float:
        return _envelope_totals(self.rows, self.case.horizon, self.case.period_hours)[1]

    @property
    def start_spread_pu(self) -> float:
        """Largest best-minus-worst objective over one period's optimal starts."""
        spreads = [0.0]
        for d in self.diagnostics:
            objs = [st["objective"] for st in d.get("starts", ()) if st["status"] == "optimal"]
            if objs:
                spreads.append(max(objs) - min(objs))
        return max(spreads)


def _envelope_totals(rows: Iterable, horizon: int, period_hours: float) -> tuple[float, float, tuple[float, ...]]:
    """Daily kWh and kVArh and per-period kW of envelopes.csv's rows, as written or read back.

    Every total lvdoe reports is this sum of the file's decimals in its row
    order, rounded to six decimals, so that a run's files and messages agree."""
    kw = kvar = 0.0
    per_period = [0.0] * horizon
    for _, _, t, p, q in rows:
        kw, kvar = kw + float(p), kvar + float(q)
        per_period[t] += float(p)
    return round(kw * period_hours, 6), round(kvar * period_hours, 6), tuple(round(v, 6) for v in per_period)


def run_scenario(
    case: NetworkCase,
    spec: ScenarioSpec,
    options: SolverOptions | None = None,
    *,
    reactive_p: str = "two_stage",
    starts: int = 2,
) -> EnvelopeResult:
    """Solve every period independently and aggregate the daily envelope.

    Scenario 1 is closed form (static caps, unity power factor).  The
    reactive-margin objective runs two stages by default: an active-export
    pass with device-limited reactive power pins each generator's P, then
    the margin program optimizes the Q split around it; reactive_p="free"
    leaves P unconstrained in a single margin pass instead.  Each period is
    solved from `starts` deterministic initial points, keeping the best,
    and every optimum is re-checked by the power-flow oracle.  The result
    records the solver options it ran with (the defaults when options is
    None).
    """
    if not 1 <= starts <= len(START_SCALES):
        raise ValueError(f"starts must be 1 to {len(START_SCALES)}, got {starts}")
    if reactive_p not in ("two_stage", "free"):
        raise ValueError(f"unknown reactive_p mode {reactive_p!r}")
    opts = options or SolverOptions()
    if spec.scenario == 1:
        result = _run_scenario_1(case, spec)
    elif spec.objective is Objective.ACTIVE_EXPORT or reactive_p == "free":
        result = _run_periods(case, spec, opts, starts=starts)
    else:  # two_stage
        stage1 = _run_periods(
            case,
            ScenarioSpec(spec.scenario, Objective.ACTIVE_EXPORT),
            opts,
            starts=starts,
            bound_q_by_rating=True,
        )
        # Back the pinned P off its stage-1 optimum by a whisker: that optimum
        # sits exactly on a network limit, and the margin stage needs a
        # strictly feasible interior to search for reactive headroom.
        fixed = stage1.p_kw / case.s_base * (1.0 - 1e-4)
        result = replace(_run_periods(case, spec, opts, starts=starts, fixed_p=fixed), stage1=stage1)
    return replace(result, starts=starts, reactive_p=reactive_p, options=opts)


def _run_scenario_1(case: NetworkCase, spec: ScenarioSpec) -> EnvelopeResult:
    T = case.horizon
    p_kw = np.zeros((len(case.generators), 3, T))
    for g, ph in case.gen_entries():
        p_kw[g, ph, :] = case.generators[g].p_cap * case.s_base
    total_pu = sum(case.generators[g].p_cap for g, _ in case.gen_entries())
    return EnvelopeResult(
        case=case,
        spec=spec,
        p_kw=p_kw,
        q_kvar=np.zeros_like(p_kw),
        objective_pu=np.full(T, total_pu),
        diagnostics=tuple({"period": t, "status": "closed_form", "iterations": 0} for t in range(T)),
    )


def _run_periods(
    case: NetworkCase,
    spec: ScenarioSpec,
    opts: SolverOptions,
    *,
    starts: int = 2,
    bound_q_by_rating: bool = False,
    fixed_p: np.ndarray | None = None,
) -> EnvelopeResult:
    """Solve every period; fixed_p, when given, pins P as a dense (n_gen, 3, T) array in pu.

    The periods of a stage differ only in their pins, so the stage builds
    its rows and its solver form once and solves all its periods and starts
    as one lockstep batch.  Then, period by period in time order, it picks
    each period's best start, decodes it and has the oracle check it.  A
    period fails when none of its starts ends optimal or the oracle rejects
    the best one, and the first period that fails stops the run.
    """
    T = case.horizon
    stage = 1 if fixed_p is None else 2
    scales = START_SCALES[:starts]
    clock = time.perf_counter
    problems, timings = [], []
    for t in range(T):
        t0 = clock()
        pins = None if fixed_p is None else fixed_p[:, :, t]
        if t == 0:
            problems.append(nlp.build_problem(case, spec, 0, bound_q_by_rating=bound_q_by_rating, fixed_p=pins))
        else:
            problems.append(nlp.pin_period(problems[0], t, pins))
        timings.append({"period": t, "build_s": clock() - t0})
    t0 = clock()
    form = solver.internalize(problems[0])
    x0 = np.array([nlp.initial_point(problem, scale) for problem in problems for scale in scales])
    solutions = solver.solve_batch(form, x0, opts)
    solve_s = clock() - t0

    # Generation per period in pu, filled in as the periods are checked; the
    # oracle only reads the period it checks.
    injections = oracle.InjectionSet.from_case(case)
    objective = np.zeros(T)
    diags = []
    for t, problem in enumerate(problems):
        sol, won, tried = None, 0, []
        for k, cand in enumerate(solutions[t * starts : (t + 1) * starts]):
            tried.append({"status": cand.status, "objective": cand.objective})
            if sol is None or (
                cand.status == "optimal" and (sol.status != "optimal" or cand.objective > sol.objective + 1e-10)
            ):
                sol, won = cand, k
        if sol.status != "optimal":
            raise ScenarioSolveError(stage, t, sol.status)
        t0 = clock()
        injections.p_gen[:, :, t], injections.q_gen[:, :, t] = nlp.decode_generation(problem, sol.x)
        u = nlp.decode_state(problem, sol.x).u[:, :, 0]
        report = oracle.validate(case, injections, t, problem.constraint_set, u)
        timings[t]["validate_s"] = clock() - t0
        if not report.ok:
            raise ScenarioSolveError(stage, t, "oracle_rejected")
        objective[t] = sol.objective
        diags.append({
            "period": t,
            "status": sol.status,
            "iterations": sol.iterations,
            "factorizations": sol.factorizations,
            "kkt_residual": sol.max_kkt_residual,
            "oracle_voltage_deviation": report.max_voltage_deviation,
            "oracle_violations": len(report.violations),
            "starts": tried,
            "winning_start": won,
        })
        if opts.trace:
            for rec in sol.trace:
                print(
                    f"period {t} iter {rec['iter']:3d}  mu {rec['mu']:9.2e}  "
                    f"obj {rec['objective']:12.6f}  kkt {rec['kkt_error']:9.2e}  "
                    f"theta {rec['theta']:9.2e}  alpha {rec['alpha']:6.4f}  "
                    f"dw {rec['delta_w']:8.2e}  dc {rec['delta_c']:8.2e}  fact {rec['factorizations']} "
                    f"in {rec['factorize_s'] * 1e3:.3f} ms"
                )
    return EnvelopeResult(
        case=case,
        spec=spec,
        p_kw=injections.p_gen * case.s_base,
        q_kvar=injections.q_gen * case.s_base,
        objective_pu=objective,
        diagnostics=tuple(diags),
        timings=tuple(timings),
        solve_s=solve_s,
    )


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def emit_results(
    result: EnvelopeResult,
    out_dir: str | Path,
    inputs: list[Path] | None = None,
) -> list[Path]:
    """Write envelopes.csv, summary.json, diagnostics.json, envelopes.svg, timings.json and manifest.json.

    Each row is formatted once, at the CSV's six decimals, and every total
    in the summary and the plot is _envelope_totals of those decimals, so
    the CSV, the summary and the SVG agree exactly.  The per-period
    diagnostics (stage 1 included) hold no timings, so they are deterministic;
    the wall times go to timings.json alone: each solved period's build_s
    and validate_s, each stage's solve_s for its one batch solve, and
    emit_s, the time taken to write the four deterministic files.
    """
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "envelopes.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("generator_id,phase,period,p_kw,q_kvar\n")
        fh.writelines(f"{gid},{ph},{t},{p},{q}\n" for gid, ph, t, p, q in result.rows)

    total_kwh, total_kvarh, per_period = _envelope_totals(result.rows, result.case.horizon, result.case.period_hours)
    summary = {
        "scenario": result.spec.scenario,
        "objective": result.spec.objective.value,
        "total_production_kwh": total_kwh,
        "total_production_kvarh": total_kvarh,
        "periods": result.case.horizon,
        "period_hours": result.case.period_hours,
        "per_period_total_kw": per_period,
        "start_spread_pu": result.start_spread_pu,
        "solver": {
            "statuses": sorted({d["status"] for d in result.diagnostics}),
            "total_iterations": int(sum(d["iterations"] for d in result.diagnostics)),
        },
    }
    diagnostics = {"periods": list(result.diagnostics)}
    if result.stage1 is not None:
        summary["stage1_total_kwh"] = result.stage1.total_kwh
        diagnostics["stage1"] = list(result.stage1.diagnostics)
    written = [csv_path, _write_json(out / "summary.json", summary), _write_json(out / "diagnostics.json", diagnostics)]

    svg_path = out / "envelopes.svg"
    label = f"scenario {result.spec.scenario} ({result.spec.objective.value})"
    svg_path.write_text(render_svg([(label, per_period)], result.case.period_hours))
    written.append(svg_path)

    timings = {"periods": list(result.timings), "solve_s": result.solve_s, "emit_s": time.perf_counter() - t0}
    if result.stage1 is not None:
        timings["stage1"] = {"periods": list(result.stage1.timings), "solve_s": result.stage1.solve_s}

    manifest = {
        "tool": "lvdoe",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "scenario": result.spec.scenario,
        "objective": result.spec.objective.value,
        "starts": result.starts,
        "reactive_p": result.reactive_p,
        "libraries": {"numpy": np.__version__, "scipy": solver.scipy_version()},
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in (inputs or [])],
        "solver_options": {
            "tol_kkt": result.options.tol_kkt,
            "max_iter": result.options.max_iter,
        },
    }
    return [*written, _write_json(out / "timings.json", timings), _write_json(out / "manifest.json", manifest)]


def _sha256(path: str | Path) -> str:
    import hashlib  # loads OpenSSL, about 3.6 MB: only input hashing needs it

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def render_svg(series: list[tuple[str, list[float]]], period_hours: float) -> str:
    """Line plot of aggregate export power versus period, one polyline per series."""
    width, height, pad = 640, 400, 48
    all_vals = [v for _, vals in series for v in vals] or [0.0]
    vmax = max(max(all_vals), 1e-9)
    vmin = min(min(all_vals), 0.0)
    span = vmax - vmin or 1.0
    n = max(len(vals) for _, vals in series) if series else 1

    def sx(t: int) -> float:
        return pad + (width - 2 * pad) * (t / max(n - 1, 1))

    def sy(v: float) -> float:
        return height - pad - (height - 2 * pad) * ((v - vmin) / span)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="12" text-anchor="middle">period ({period_hours:g} h)</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" transform="rotate(-90 14 {height // 2})">aggregate export (kW)</text>',
    ]
    for k, (label, vals) in enumerate(series):
        color = colors[k % len(colors)]
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in enumerate(vals))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{width - pad}" y="{pad + 14 * (k + 1)}" font-size="11" text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _read_result(raw: str) -> tuple[Path, dict[tuple[str, str, int], tuple], tuple[str, float, int] | None]:
    """A result directory or its envelopes.csv: the CSV's path, its rows in
    file order keyed by (generator_id, phase, period), and the plot label,
    period_hours and periods of the directory's summary.json, or None
    without one."""
    path = Path(raw)
    if path.is_dir():
        path = path / "envelopes.csv"
    rows = {}
    with io.StringIO(read_text(path), newline=None) as fh:
        header = fh.readline().strip()
        if header != "generator_id,phase,period,p_kw,q_kvar":
            raise InputError(f"{path}: unexpected envelopes header {header!r}")
        for n, line in enumerate(fh, start=2):
            try:
                gid, ph, t, p, q = line.strip().split(",")
                row = (gid, ph, int(t), float(p), float(q))
            except ValueError:
                raise InputError(
                    f"{path}, line {n}: expected generator_id,phase,period,p_kw,q_kvar, got {line.strip()!r}"
                ) from None
            if not np.isfinite(row[3:]).all():
                raise InputError(f"{path}, line {n}: p_kw and q_kvar must be finite, got {line.strip()!r}")
            if row[2] < 0:
                raise InputError(f"{path}, line {n}: period {row[2]} is negative")
            if row[:3] in rows:
                raise InputError(
                    f"{path}, line {n}: duplicate row for generator {gid!r}, phase {ph!r}, period {row[2]}"
                )
            rows[row[:3]] = row
    summary_path = path.parent / "summary.json"
    if not summary_path.exists():
        return path, rows, None
    try:
        summary = json.loads(read_text(summary_path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{summary_path}: invalid JSON: {exc}") from None
    ctx = str(summary_path)
    label = f"scenario {_get(summary, 'scenario', int, ctx)} ({_get(summary, 'objective', str, ctx)})"
    period_hours, periods = _get(summary, "period_hours", float, ctx), _get(summary, "periods", int, ctx)
    if periods < 1:
        raise InputError(f"{summary_path}: field 'periods' must be positive, got {periods}")
    beyond = [t for _, _, t in rows if t >= periods]
    if beyond:
        raise InputError(f"{path}: period {max(beyond)} outside the {periods} periods of {summary_path}")
    return path, rows, (label, period_hours, periods)


def _build_parser():
    import argparse  # only the command line parses arguments

    class _Parser(argparse.ArgumentParser):
        """Parser whose usage errors exit with code 1 instead of argparse's 2."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(prog="lvdoe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--network", required=True, help="network JSON file")
        p.add_argument("--loads", help="optional load-profile CSV")

    ps = sub.add_parser("solve", help="compute export envelopes for one scenario")
    common(ps)
    ps.add_argument("--scenario", type=int, choices=range(1, 6), required=True)
    ps.add_argument("--objective", choices=["active", "reactive-margin"], default="active")
    ps.add_argument("--reactive-p", choices=["two_stage", "free"], default="two_stage",
                    help="pin P from an active-export stage, or leave it free: the P written is then no envelope")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--tol", type=float, default=SolverOptions.tol_kkt)
    ps.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)
    ps.add_argument("--starts", type=int, default=2, choices=range(1, len(START_SCALES) + 1),
                    help="deterministic multi-start attempts per period")
    ps.add_argument("--trace", action="store_true", help="stream per-iteration solver diagnostics")

    po = sub.add_parser("oracle", help="largest feasible export of one unit, searched on power-flow limit excesses")
    common(po)
    po.add_argument("--generator", required=True)
    po.add_argument("--constraints", default="voltage,current,vuf", help="comma list of voltage|current|vuf")
    po.add_argument("--period", type=int, default=None, help="single period (default: all)")

    pv = sub.add_parser("validate", help="re-check an envelope against the power-flow oracle")
    common(pv)
    pv.add_argument("--result", required=True, help="result directory or envelopes.csv")
    pv.add_argument("--scenario", type=int, choices=range(1, 6), required=True)

    pp = sub.add_parser("plot", help="combined SVG from one or more result directories")
    pp.add_argument("--result", nargs="+", required=True)
    pp.add_argument("--out", required=True, help="output SVG path")
    return parser


def _cmd_solve(args) -> int:
    case = load_network(args.network, args.loads)
    spec = ScenarioSpec(args.scenario, Objective.ACTIVE_EXPORT if args.objective == "active" else Objective.REACTIVE_MARGIN)
    try:
        opts = SolverOptions(tol_kkt=args.tol, max_iter=args.max_iter, trace=args.trace)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    result = run_scenario(case, spec, opts, reactive_p=args.reactive_p, starts=args.starts)
    inputs = [Path(args.network)] + ([Path(args.loads)] if args.loads else [])
    for path in emit_results(result, args.out, inputs=inputs):
        print(path)
    print(f"total production: {result.total_kwh:.6f} kWh, {result.total_kvarh:.6f} kVArh")
    return 0


def _parse_constraints(raw: str) -> frozenset[LimitKind]:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    try:
        return frozenset(LimitKind(n) for n in names)
    except ValueError:
        raise InputError(f"bad constraint set {raw!r}: use voltage|current|vuf") from None


def _cmd_oracle(args) -> int:
    case = load_network(args.network, args.loads)
    cs = _parse_constraints(args.constraints)
    top = oracle.BRACKET_CAP_MULTIPLE * case.generators[case.gen_index(args.generator)].p_cap
    periods = [args.period] if args.period is not None else list(range(case.horizon))
    for t in periods:
        if not 0 <= t < case.horizon:
            raise InputError(f"period {t} outside horizon {case.horizon}")
        limit_pu = oracle.doe_bisection(case, args.generator, cs, t)
        note = ""
        if limit_pu >= top:
            note = f" (bracket top: no limit found at or below {oracle.BRACKET_CAP_MULTIPLE:g} x p_cap)"
        print(f"period {t}: {limit_pu * case.s_base:.6f} kW{note}")
    return 0


def _cmd_validate(args) -> int:
    case = load_network(args.network, args.loads)
    path, rows, _ = _read_result(args.result)
    cs = nlp.constraint_set_for(ScenarioSpec(args.scenario))

    injections = oracle.InjectionSet.from_case(case)
    gen_idx = {g.id: i for i, g in enumerate(case.generators)}
    for gid, ph, t, p, q in rows.values():
        if gid not in gen_idx:
            raise InputError(f"{path}: unknown generator {gid!r}")
        if ph not in PHASE_INDEX:
            raise InputError(f"{path}: unknown phase {ph!r}")
        if ph not in case.generators[gen_idx[gid]].phases:
            raise InputError(f"{path}: generator {gid!r} is not connected to phase {ph!r}")
        if not 0 <= t < case.horizon:
            raise InputError(f"{path}: period {t} outside horizon {case.horizon}")
        injections.p_gen[gen_idx[gid], PHASE_INDEX[ph], t] = p / case.s_base
        injections.q_gen[gen_idx[gid], PHASE_INDEX[ph], t] = q / case.s_base
    expected = {(g.id, ph, t) for g in case.generators for ph in g.phases for t in range(case.horizon)}
    missing = sorted(expected - rows.keys())
    if missing:
        gid, ph, t = missing[0]
        raise InputError(
            f"{path}: no row for generator {gid!r}, phase {ph!r}, period {t} ({len(missing)} rows missing)"
        )

    worst = 0
    for t in range(case.horizon):
        report = oracle.validate(case, injections, t, cs)
        if report.error is not None:
            print(f"period {t}: power flow failed: {report.error}")
            worst += 1
        for v in report.violations:
            loc = f"{v.location}/{v.phase}" if v.phase else v.location
            print(f"period {t}: {v.kind} at {loc}: {v.magnitude:.6f} beyond limit")
        worst += len(report.violations)
    if worst:
        print(f"validation FAILED: {worst} findings")
        return 2
    print(f"validation OK: no violations in {case.horizon} periods")
    return 0


def _cmd_plot(args) -> int:
    series = []
    ph = 1.0
    for raw in args.result:
        path, rows, meta = _read_result(raw)
        label, ph, horizon = meta or (path.parent.name, ph, 1 + max((t for _, _, t in rows), default=0))
        series.append((label, _envelope_totals(rows.values(), horizon, ph)[2]))
    Path(args.out).write_text(render_svg(series, ph))
    print(args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": _cmd_solve, "oracle": _cmd_oracle, "validate": _cmd_validate, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (oracle.InfeasibleAtZeroExportError, ScenarioSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
