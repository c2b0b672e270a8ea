"""The benchmark's sweep agrees with the program's Newton power flow.

Every bundled fixture is solved in every period at zero export and with
every generator at its static cap; voltages and branch currents must match
``lvdoe.oracle.solve_pf`` to 1e-8 pu.  Run with
``PYTHONPATH=src python3 -m pytest perfbench/test_sweep.py``.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sweep import PHASE, Feeder  # noqa: E402

from lvdoe import load_network, oracle  # noqa: E402

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "lvdoe" / "fixtures"
NETWORKS = ["synth2", "synth4", "synth4_unbal", "feeder_hr", "feeder_au"]


@pytest.mark.parametrize("name", NETWORKS)
@pytest.mark.parametrize("at_cap", [False, True], ids=["zero_export", "static_caps"])
def test_sweep_matches_oracle(name, at_cap):
    case = load_network(FIXTURES / f"{name}.json")
    feeder = Feeder(case)
    n_gen, T = len(case.generators), case.horizon
    p = np.zeros((T, n_gen, 3))
    if at_cap:
        for g, gen in enumerate(case.generators):
            for ph in gen.phases:
                p[:, g, PHASE[ph]] = gen.p_cap
    s = np.stack([feeder.demand(t) for t in range(T)]) - feeder.generation(p, np.zeros_like(p))
    u, i_br, ok = feeder.solve(s)
    assert ok.all()

    base = oracle.InjectionSet.from_case(case)
    inj = dataclasses.replace(base, p_gen=np.moveaxis(p, 0, -1).copy())
    worst = 0.0
    for t in range(T):
        state = oracle.solve_pf(case, inj, t)
        worst = max(
            worst,
            float(np.abs(state.u[:, :, 0] - u[t]).max()),
            float(np.abs(state.i_branch[:, :, 0] - i_br[t]).max()),
        )
    assert worst <= 1e-8, f"{name}: sweep and oracle differ by {worst:.3e} pu"
