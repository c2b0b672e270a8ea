import dataclasses
import importlib.resources
from pathlib import Path

import numpy as np
import pytest

from lvdoe import netmodel as nm
from lvdoe import solver
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


def force_singular(monkeypatch, rows, stage: int = 1) -> None:
    """Make the instances `rows` of the stage-th solve_batch call from now on
    singular: their KKT matrices read zero, before and after every
    regularization, in that batch's first iteration only.  Every instance is
    still in the batch then, so rows are rows of its x0, and each one's
    ladder passes 1e12 within that one Newton step."""
    batch, assemble = solver.solve_batch, solver.kkt_assemble
    assembled = []  # kkt_assemble calls per solve_batch call

    def counting(*args):
        assembled.append(0)
        return batch(*args)

    def zeroed(form, pt, mu):
        kkt, dims, step, regularize = assemble(form, pt, mu)
        assembled[-1] += 1
        if (len(assembled), assembled[-1]) != (stage, 1):
            return kkt, dims, step, regularize

        def rezero(*args):
            regularize(*args)
            kkt[:, :, rows] = 0.0

        kkt[:, :, rows] = 0.0
        return kkt, dims, step, rezero

    monkeypatch.setattr(solver, "solve_batch", counting)
    monkeypatch.setattr(solver, "kkt_assemble", zeroed)


def dense_jacobian(block, x: np.ndarray) -> np.ndarray:
    """block's Jacobian at one point x as a dense (n_rows, n_vars) array: the
    values the solver uses, jacobian_values, scattered onto (jac_row, jac_col)."""
    out = np.zeros((block.n_rows, block.n_vars))
    out[block.jac_row, block.jac_col] = block.jacobian_values(x)
    return out


def flat_state(case: nm.NetworkCase, n_periods: int = 1, vm: float = 1.0) -> PhasorState:
    """Balanced nominal voltages everywhere, all currents zero."""
    ref = nm.slack_reference(vm)
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


def shared_units_case(case: nm.NetworkCase, unrated_q_kvar: tuple[float, float] = (0.0, 0.0)) -> nm.NetworkCase:
    """case (synth4_unbal) with three more units: t3 at n3 on all three
    phases, which shares phase a with g2 and g3 (5 kW and 1 kVAr against
    their 3.68 kW and 2.5 kVAr), and z1, z2 at n2 on phase b, which have no
    P rating and the Q ratings unrated_q_kvar."""
    physical = nm.to_physical(case)
    extra = (
        nm.Generator("t3", "n3", ("a", "b", "c"), p_cap=5.0, q_abs_max=1.0),
        nm.Generator("z1", "n2", ("b",), p_cap=0.0, q_abs_max=unrated_q_kvar[0]),
        nm.Generator("z2", "n2", ("b",), p_cap=0.0, q_abs_max=unrated_q_kvar[1]),
    )
    return nm.to_per_unit(dataclasses.replace(physical, generators=physical.generators + extra))
