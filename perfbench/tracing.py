"""Layer spans recorded from outside the program.

``install`` replaces the module-level functions that each lvdoe layer
exposes with timing wrappers, by assigning module attributes; the source
is not edited.  A function is wrapped in every module that calls it by its
bare name, so ``oracle.check_limits`` counts as ``phasecalc.check_limits``.
Spans stay in memory as (name, start, end, parent) and are written out at
the end of the run.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {"solver.iterations": 0, "solver.kkt_dim_max": 0}
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def install(self) -> None:
        from lvdoe import cli, netmodel, nlp, oracle, phasecalc, solver

        def on_solution(sol):
            self.counts["solver.iterations"] += sol.iterations

        def on_kkt(out):
            self.counts["solver.kkt_dim_max"] = max(self.counts["solver.kkt_dim_max"], out[0].shape[0])

        # (span name, owning modules, attribute, result hook)
        targets = [
            ("netmodel.load_network", [netmodel], "load_network", None),
            ("netmodel.tree_index", [nlp, oracle], "TreeIndex", None),
            ("nlp.build_problem", [nlp], "build_problem", None),
            ("nlp.initial_point", [nlp], "initial_point", None),
            ("nlp.decode_generation", [nlp], "decode_generation", None),
            ("solver.solve", [solver], "solve", on_solution),
            ("solver.internalize", [solver], "internalize", None),
            ("solver.kkt_assemble", [solver], "kkt_assemble", on_kkt),
            ("solver.factorize", [solver], "_ldlt", None),
            ("oracle.doe_bisection", [oracle], "doe_bisection", None),
            ("oracle.solve_pf", [oracle], "solve_pf", None),
            ("phasecalc.check_limits", [phasecalc, oracle], "check_limits", None),
            ("cli.run_scenario", [cli], "run_scenario", None),
            ("cli.emit_results", [cli], "emit_results", None),
        ]
        for name, modules, attr, hook in targets:
            traced = self.wrap(name, getattr(modules[0], attr), hook)
            for mod in modules:
                setattr(mod, attr, traced)

    def _total(self, name: str) -> tuple[float, int]:
        durs = [s[2] - s[1] for s in self.spans if s[0] == name]
        return float(sum(durs)), len(durs)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        for name in (
            "netmodel.load_network", "nlp.build_problem", "nlp.initial_point",
            "nlp.decode_generation", "solver.internalize", "solver.kkt_assemble",
            "solver.factorize", "oracle.solve_pf", "phasecalc.check_limits", "cli.emit_results",
        ):
            out[f"{name}.s"] = (self._total(name)[0], "s")
        for name in (
            "netmodel.tree_index", "nlp.build_problem", "solver.solve", "solver.kkt_assemble",
            "solver.factorize", "oracle.solve_pf", "oracle.doe_bisection",
        ):
            out[f"{name}.calls"] = (self._total(name)[1], "count")
        out["solver.factorize.retries"] = (
            out["solver.factorize.calls"][0] - out["solver.kkt_assemble.calls"][0], "count")
        out["solver.iterations"] = (self.counts["solver.iterations"], "count")
        out["solver.kkt_dim_max"] = (self.counts["solver.kkt_dim_max"], "rows")
        # Self time: each solver.solve span minus the spans directly inside it.
        child_time = 0.0
        solve_time, _ = self._total("solver.solve")
        solve_idx = {i for i, s in enumerate(self.spans) if s[0] == "solver.solve"}
        for s in self.spans:
            if s[3] in solve_idx:
                child_time += s[2] - s[1]
        out["solver.self.s"] = (solve_time - child_time, "s")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
