import importlib.resources
from pathlib import Path

import numpy as np
import pytest

from lvdoe import netmodel as nm
from lvdoe.netmodel import load_network
from lvdoe.phasecalc import PhasorState


def fixture_path(name: str) -> Path:
    return Path(importlib.resources.files("lvdoe")) / "fixtures" / name


@pytest.fixture(scope="session")
def synth2():
    return load_network(fixture_path("synth2.json"))


@pytest.fixture(scope="session")
def synth4():
    return load_network(fixture_path("synth4.json"))


@pytest.fixture(scope="session")
def synth4_unbal():
    return load_network(fixture_path("synth4_unbal.json"))


@pytest.fixture(scope="session")
def feeder_hr():
    return load_network(fixture_path("feeder_hr.json"))


@pytest.fixture(scope="session")
def feeder_au():
    return load_network(fixture_path("feeder_au.json"))


def flat_state(case: nm.NetworkCase, n_periods: int = 1, vm: float = 1.0) -> PhasorState:
    """Balanced nominal voltages everywhere, all currents zero."""
    ref = nm.slack_reference(case, vm)
    return PhasorState(
        case=case,
        u=np.tile(ref[None, :, None], (len(case.buses), 1, n_periods)),
        i_branch=np.zeros((len(case.branches), 3, n_periods), dtype=complex),
        i_load=np.zeros((len(case.loads), 3, n_periods), dtype=complex),
        i_gen=np.zeros((len(case.generators), 3, n_periods), dtype=complex),
    )


def two_bus_case(
    r_diag: float = 0.192,
    x_diag: float = 0.0133,
    i_max: float = 100.0,
    load_kw: float = 0.5,
    horizon: int = 4,
    vmin: float = 0.9,
    vmax: float = 1.1,
    vuf_max: float = 0.02,
    load: bool = True,
) -> nm.NetworkCase:
    """Hand-sized two-bus feeder in physical units, converted to per-unit."""
    r = np.diag([r_diag] * 3)
    x = np.diag([x_diag] * 3)
    loads = ()
    if load:
        loads = (
            nm.Load(
                "d1",
                "h1",
                ("b",),
                p=np.full((1, horizon), load_kw),
                q=np.full((1, horizon), load_kw * 0.3287),
            ),
        )
    case = nm.NetworkCase(
        buses=(
            nm.Bus("src", vmin=vmin, vmax=vmax, vuf_max=vuf_max, is_slack=True),
            nm.Bus("h1", vmin=vmin, vmax=vmax, vuf_max=vuf_max),
        ),
        branches=(nm.Branch("ln1", "src", "h1", r=r, x=x, i_max=i_max),),
        loads=loads,
        generators=(nm.Generator("g1", "h1", ("a",), p_cap=3.68, q_abs_max=3.0),),
        s_base=100.0,
        v_base=230.0,
        horizon=horizon,
        period_hours=1.0,
    )
    return nm.to_per_unit(case)
