"""Importing the package loads only the modules that a call runs.

The benchmark's setup time counts interpreter start through `import
lvdoe`.  The optimizer loads scipy's compiled LAPACK extension alone on its
first factorization, by path, never the scipy.linalg package nor even the
scipy package; the package, and the power-flow oracle with the commands
that run only the oracle, load no LAPACK and no scipy package at all, and
no path loads numpy.ma.  The extension took about 15-20 ms and 2.5 MB;
importing scipy.linalg on top of it, about 160 ms and 21.5 MB more, and
scipy.sparse, scipy.special, scipy.optimize or scipy.stats about 10, 40,
220 and 850 ms more, on a 2-core machine.  After numpy, hashlib (which
loads OpenSSL) added 3.6 MB, the scipy package (scipy/__init__.py, 23
modules) 1.3 MB and about 8 ms, and argparse 0.3 MB; no library call loads
them, only hashing `lvdoe solve`'s inputs loads hashlib and only `main`
argparse.  Each test runs in a fresh interpreter, so that no other test's
imports count.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.sparse", "scipy.optimize", "scipy.special", "scipy.stats")
# What importing scipy.linalg would load beyond the LAPACK extension.
LINALG = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py")
# What no library call needs: hashlib (OpenSSL), the scipy package and
# argparse.  Only hashing `lvdoe solve`'s inputs loads hashlib, and only
# `main` argparse.
CLI_ONLY = ("hashlib", "_hashlib", "scipy", "argparse")

# The oracle's paths, then one optimizer solve and one `lvdoe solve`;
# prints which LINALG and HEAVY packages were loaded before and after them.
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
loaded = lambda: sorted(m for m in sys.modules if m in {LINALG!r} or m.startswith({HEAVY!r}))
lapack = lambda: "scipy.linalg._flapack" in sys.modules
before, lapack_before = loaded(), lapack()
sol = solver.solve(nlp.build_problem(case, nlp.ScenarioSpec(5), 0))
after_solve, ma_after_solve = loaded(), "numpy.ma" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = lvdoe.cli.main(["solve", "--network", net, "--scenario", "5", "--out", str(out / "solve")])
    code += lvdoe.cli.main(["solve", "--network", net, "--scenario", "5", "--objective", "reactive-margin",
                            "--out", str(out / "margin")])
print(json.dumps({{"before": before, "after_solve": after_solve, "after_cli": loaded(),
                  "lapack": [lapack_before, lapack()], "status": sol.status, "code": code,
                  "numpy_ma": [ma_after_solve, "numpy.ma" in sys.modules]}}))
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
    assert out["before"] == [] and out["lapack"] == [False, True]
    # The optimizer works on the LAPACK extension alone, and still loads
    # none of scipy.linalg's package.
    assert out["status"] == "optimal" and out["code"] == 0
    assert out["after_solve"] == []
    assert out["after_cli"] == []
    # np.unique without a return_* flag, and so np.setdiff1d, would load numpy.ma (numpy 2.4).
    assert out["numpy_ma"] == [False, False]


# The library's calls, then emit_results without and with inputs; prints
# which of the modules that only a command line run needs were loaded.
LIBRARY_SCRIPT = f"""
import json, sys, tempfile
from pathlib import Path
import lvdoe, lvdoe.cli
from lvdoe import load_network, nlp, oracle
from lvdoe.phasecalc import ALL_LIMITS
net = sys.argv[1]
case = load_network(net)
oracle.doe_bisection(case, case.generators[0].id, ALL_LIMITS, 12)
assert oracle.validate(case, oracle.InjectionSet.from_case(case), 12, ALL_LIMITS).ok
result = lvdoe.cli.run_scenario(case, nlp.ScenarioSpec(5), starts=1)
out = Path(tempfile.mkdtemp())
lvdoe.cli.emit_results(result, out / "library")
loaded = {{m: m in sys.modules for m in {CLI_ONLY + ("scipy.linalg._flapack",)!r}}}
lvdoe.cli.emit_results(result, out / "solve", inputs=[Path(net)])
manifests = [json.loads((out / d / "manifest.json").read_text()) for d in ("library", "solve")]
import scipy
print(json.dumps({{"loaded": loaded, "inputs": [m["inputs"] for m in manifests],
                  "scipy": [m["libraries"]["scipy"] for m in manifests], "scipy_version": scipy.__version__}}))
"""


def test_library_calls_load_no_hashlib_scipy_package_or_argparse():
    net = ROOT / "src" / "lvdoe" / "fixtures" / "synth2.json"
    out = json.loads(run_fresh(LIBRARY_SCRIPT, str(net)))
    assert out["loaded"] == {**dict.fromkeys(CLI_ONLY, False), "scipy.linalg._flapack": True}
    digest = hashlib.sha256(net.read_bytes()).hexdigest()
    assert out["inputs"] == [[], [{"path": str(net), "sha256": digest}]]
    assert out["scipy"] == [out["scipy_version"]] * 2


# One stage of feeder_hr solved on the LAPACK extension alone, then
# scipy.linalg imported and its routines checked against that solve's.
DRIFT_SCRIPT = """
import json, sys
import numpy as np
from lvdoe import load_network, nlp, solver
case = load_network(sys.argv[1])
problems = [nlp.build_problem(case, nlp.ScenarioSpec(5), 0)]
problems += [nlp.pin_period(problems[0], t, None) for t in range(1, case.horizon)]
form = solver.internalize(problems[0])
x0 = np.array([nlp.initial_point(problem) for problem in problems])
first = []
assemble = solver.kkt_assemble
def spy(form, pt, mu):
    out = assemble(form, pt, mu)
    if not first:  # every instance at its multiplier start
        first.append((pt, out[0][: out[1][0], : out[1][0], 0].copy()))
    return out
solver.kkt_assemble = spy
stage = lambda: [(s.status, s.iterations, s.factorizations, s.objective, s.max_kkt_residual, s.x.tobytes())
                 for s in solver.solve_batch(form, x0)]
sols = stage()
assert "scipy.linalg" not in sys.modules
import scipy.linalg
pt, kkt = first[0]
sytrf, sytrs = scipy.linalg.get_lapack_funcs(("sytrf", "sytrs"), dtype=np.float64)
ldu, ipiv, info = sytrf(kkt, lower=1, lwork=solver._sytrf_lwork(kkt.shape[0]))
(ours,), _ = solver._ldlt([kkt])
rhs = np.linspace(-1.0, 1.0, kkt.shape[0])
same_kkt = (info == 0 and np.array_equal(ldu, ours[0]) and np.array_equal(ipiv, ours[1])
            and np.array_equal(sytrs(ldu, ipiv, rhs, lower=1)[0], solver._ldlt_solve(ours, rhs)))
rhs0 = -(form.c + solver._jt(form.ineq, pt.jh, pt.z))[:, form.free]
jg = np.zeros((form.eq.n_rows, form.n_vars))
same_start = []
for k in range(len(problems)):
    jg[form.eq.jac_row, form.eq.jac_col] = pt.jg[k]
    y_ls = scipy.linalg.lstsq(jg[:, form.free].T, rhs0[k], lapack_driver="gelsy")[0]
    same_start.append(np.abs(y_ls).max() <= 1e3 and np.array_equal(pt.y[k], y_ls))
print(json.dumps({"statuses": sorted({s[0] for s in sols}), "same_kkt": bool(same_kkt),
                  "same_start": same_start, "same_solve": stage() == sols}))
"""


def test_lapack_extension_matches_scipy_linalg_bit_for_bit():
    out = json.loads(run_fresh(DRIFT_SCRIPT, str(ROOT / "src" / "lvdoe" / "fixtures" / "feeder_hr.json")))
    assert out["statuses"] == ["optimal"]
    assert out["same_kkt"]
    assert out["same_start"] == [True] * 24
    assert out["same_solve"]
