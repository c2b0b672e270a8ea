"""Importing the package loads only the scipy modules it uses.

The benchmark's setup time counts interpreter start through `import
lvdoe`.  The optimizer loads scipy.linalg on its first factorization; the
package, and the power-flow oracle with the commands that run only the
oracle, load no scipy package at all.  Importing scipy.linalg took about
280 ms and 27 MB of peak memory, and scipy.sparse, scipy.special,
scipy.optimize or scipy.stats on top of it about 10, 40, 220 and 850 ms
more, on a 2-core machine.  Each test runs in a fresh interpreter, so that no other test's
imports count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.sparse", "scipy.optimize", "scipy.special", "scipy.stats")

# The oracle's paths, then one optimizer solve; prints which scipy.linalg
# and heavy packages were loaded before and after that solve.
ORACLE_SCRIPT = f"""
import contextlib, io, json, sys, tempfile
from pathlib import Path
import lvdoe, lvdoe.cli
from lvdoe import load_network, nlp, oracle, solver
from lvdoe.phasecalc import ALL_LIMITS
net = sys.argv[1]
case = load_network(net)
oracle.doe_bisection(case, case.generators[0].id, ALL_LIMITS, 12)
injections = oracle.InjectionSet.from_case(case)
assert all(oracle.validate(case, injections, t, ALL_LIMITS).ok for t in range(case.horizon))
out = Path(tempfile.mkdtemp())
with open(out / "envelopes.csv", "w") as fh:
    fh.write("generator_id,phase,period,p_kw,q_kvar\\n")
    for g in case.generators:
        for ph in g.phases:
            for t in range(case.horizon):
                fh.write(f"{{g.id}},{{ph}},{{t}},0.0,0.0\\n")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        lvdoe.cli.main(["oracle", "--network", net, "--generator", case.generators[0].id, "--period", "3"]),
        lvdoe.cli.main(["validate", "--network", net, "--result", str(out), "--scenario", "5"]),
        lvdoe.cli.main(["plot", "--result", str(out), "--out", str(out / "plot.svg")]),
    ]
assert codes == [0, 0, 0], codes
loaded = lambda: sorted(m for m in sys.modules if m == "scipy.linalg" or m.startswith({HEAVY!r}))
before = loaded()
sol = solver.solve(nlp.build_problem(case, nlp.ScenarioSpec(5), 0))
print(json.dumps({{"before": before, "after": loaded(), "status": sol.status}}))
"""


def run_fresh(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_loads_no_heavy_scipy_package():
    script = f"import sys, lvdoe; print(sorted(m for m in sys.modules if m.startswith({HEAVY!r})))"
    assert run_fresh(script) == "[]"


def test_oracle_paths_never_load_scipy_linalg():
    out = json.loads(run_fresh(ORACLE_SCRIPT, str(ROOT / "src" / "lvdoe" / "fixtures" / "synth2.json")))
    assert out["before"] == []
    # The optimizer still works, and loads scipy.linalg alone.
    assert out["status"] == "optimal"
    assert out["after"] == ["scipy.linalg"]
