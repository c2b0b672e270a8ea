"""The benchmark's layer tracer still finds every attribute it wraps.

perfbench/tracing.py replaces module attributes by name (solver.internalize,
solver.kkt_assemble, solver._ldlt, ...), so renaming one of them would break
a traced benchmark run without failing any other test.  The tracer patches
modules globally, hence the separate interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys
from tracing import Tracer
tracer = Tracer()
tracer.install()
from lvdoe import netmodel, nlp, oracle, solver
from lvdoe.nlp import ScenarioSpec
case = netmodel.load_network(sys.argv[1])
solver.solve(nlp.build_problem(case, ScenarioSpec(5), 0))
oracle.validate(case, oracle.InjectionSet.from_case(case), 0, nlp.constraint_set_for(ScenarioSpec(5)))
print(json.dumps({name: value for name, (value, _) in tracer.metrics().items()}))
"""


# A whole scenario run, as the benchmark traces it: the CLI solves each
# stage as one batch.  The metrics must serialize as they are.
SCENARIO_SCRIPT = """
import json
import sys
from tracing import Tracer
tracer = Tracer()
tracer.install()
from lvdoe import cli, netmodel, solver
from lvdoe.nlp import ScenarioSpec
factored = []
ldlt = solver._ldlt

def recording(mats):
    factored.extend(m.shape[0] for m in mats)
    return ldlt(mats)

solver._ldlt = recording
case = netmodel.load_network(sys.argv[1])
cli.run_scenario(case, ScenarioSpec(5), starts=2)
metrics = {name: value for name, (value, _) in tracer.metrics().items()}
starts = sum(span[0] == "nlp.initial_point" for span in tracer.spans)
print(json.dumps({"metrics": metrics, "factored_max": max(factored), "batch": 2 * case.horizon, "starts": starts}))
"""


def run_traced(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src" / "lvdoe" / "fixtures" / "synth2.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_tracer_wraps_the_layers_a_solve_runs_through():
    metrics = run_traced(SCRIPT)
    assert metrics["solver.solve.calls"] == 1
    assert metrics["nlp.build_problem.calls"] == 1
    assert metrics["solver.iterations"] > 0
    assert metrics["solver.kkt_assemble.calls"] == metrics["solver.iterations"]
    assert metrics["solver.factorize.calls"] >= metrics["solver.kkt_assemble.calls"]
    assert metrics["solver.kkt_dim_max"] > 0
    assert metrics["solver.internalize.s"] > 0.0
    assert metrics["nlp.initial_point.s"] > 0.0
    assert metrics["oracle.solve_pf.calls"] == 1
    assert metrics["phasecalc.check_limits.s"] > 0.0


def test_traced_scenario_run_reports_the_factored_dimension():
    # kkt_assemble returns the batch's matrices as one (dim, dim, B) stack,
    # so the tracer's kkt_dim_max reads the largest factored dimension, not B.
    out = run_traced(SCENARIO_SCRIPT)
    metrics = out["metrics"]
    assert metrics["solver.kkt_dim_max"] == out["factored_max"] != out["batch"]
    assert metrics["solver.kkt_assemble.calls"] > 0
    assert metrics["solver.factorize.calls"] >= metrics["solver.kkt_assemble.calls"]
    assert metrics["solver.internalize.s"] > 0.0 and metrics["nlp.initial_point.s"] > 0.0
    assert metrics["oracle.solve_pf.calls"] == 24
    # The case holds its tree, so the hook on nlp.TreeIndex and
    # oracle.TreeIndex counts no walk; and each start of the stage's batch
    # (24 periods x 2 starts) is its own initial_point call.
    assert metrics["netmodel.tree_index.calls"] == 0
    assert out["starts"] == out["batch"] == 48
