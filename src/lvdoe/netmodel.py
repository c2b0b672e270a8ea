"""Network data model: file ingestion, validation, per-unit scaling.

Feeders are three-phase four-wire LV networks stored Kron-reduced, so every
branch carries a full 3x3 series impedance in phase coordinates.  Cables
specified by sequence parameters (z1/z0 per km) are expanded to phase
matrices on load.  All electrical quantities are converted to per-unit
immediately after parsing; the conversion is exactly invertible.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

PHASES = ("a", "b", "c")
PHASE_INDEX = {"a": 0, "b": 1, "c": 2}


class InputError(ValueError):
    """Raised for any malformed or inconsistent network input file."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def read_text(path: Path) -> str:
    """The text of an input file, which must be UTF-8; its line ends as written."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: byte {exc.start} is {exc.object[exc.start:exc.end]!r}") from None


@dataclass(frozen=True)
class Bus:
    id: str
    vmin: float = 0.90
    vmax: float = 1.10
    vuf_max: float = 0.02
    is_slack: bool = False

    def __post_init__(self) -> None:
        _require(0.0 < self.vmin < self.vmax, f"bus {self.id}: vmin/vmax out of order")
        _require(0.0 <= self.vuf_max < 1.0, f"bus {self.id}: vuf_max must be in [0, 1)")


@dataclass(frozen=True)
class Branch:
    """Series element (cable or transformer) with per-phase current rating."""

    id: str
    from_bus: str
    to_bus: str
    r: np.ndarray
    x: np.ndarray
    i_max: float

    def __post_init__(self) -> None:
        _require(self.from_bus != self.to_bus, f"branch {self.id}: from_bus equals to_bus")
        _require(self.i_max > 0.0, f"branch {self.id}: i_max must be positive")
        for name, m in (("r", self.r), ("x", self.x)):
            _require(m.shape == (3, 3), f"branch {self.id}: {name} matrix must be 3x3")
            _require(
                np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))),
                f"branch {self.id}: {name} matrix must be symmetric",
            )
        self.r.flags.writeable = False
        self.x.flags.writeable = False

    @property
    def z(self) -> np.ndarray:
        return self.r + 1j * self.x


@dataclass(frozen=True)
class Load:
    """Fixed, unsheddable demand with one profile row per connected phase."""

    id: str
    bus: str
    phases: tuple[str, ...]
    p: np.ndarray  # (len(phases), T)
    q: np.ndarray

    def __post_init__(self) -> None:
        _require(self.p.shape == self.q.shape, f"load {self.id}: p/q profile shapes differ")
        _require(self.p.shape[0] == len(self.phases), f"load {self.id}: profile rows != phases")
        self.p.flags.writeable = False
        self.q.flags.writeable = False


@dataclass(frozen=True)
class Generator:
    """DG unit; p_cap is the static grid-code export cap per phase."""

    id: str
    bus: str
    phases: tuple[str, ...]
    p_cap: float
    q_abs_max: float

    def __post_init__(self) -> None:
        _require(self.p_cap >= 0.0, f"generator {self.id}: p_cap must be >= 0")
        _require(self.q_abs_max >= 0.0, f"generator {self.id}: q_abs_max must be >= 0")


@dataclass(frozen=True)
class NetworkCase:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    loads: tuple[Load, ...]
    generators: tuple[Generator, ...]
    s_base: float  # kVA, per phase
    v_base: float  # V, line to neutral
    horizon: int
    period_hours: float
    in_per_unit: bool = False

    # Derived lookups, filled in __post_init__.
    bus_pos: dict = field(init=False, repr=False, compare=False)
    branch_pos: dict = field(init=False, repr=False, compare=False)
    slack: int = field(init=False, repr=False, compare=False)
    tree: TreeIndex = field(init=False, repr=False, compare=False)
    z: np.ndarray = field(init=False, repr=False, compare=False)  # (n_branch, 3, 3) complex series impedances
    # Read by the Newton power flow of oracle.solve_pf.  The matrices have
    # rows [branch, phase] and columns [non-slack bus, phase]; the slack's
    # columns of ZP are zero, as P feeds no branch from it.
    zp_u: np.ndarray = field(init=False, repr=False, compare=False)  # blockdiag(Z) (P x I3), complex
    a3: np.ndarray = field(init=False, repr=False, compare=False)  # A x I3
    u_flat: np.ndarray = field(init=False, repr=False, compare=False)  # (n_bus, 3) slack voltage everywhere

    def __post_init__(self) -> None:
        _require(self.s_base > 0.0 and self.v_base > 0.0, "bases must be positive")
        _require(self.horizon >= 1, "horizon must be at least 1 period")
        _require(self.period_hours > 0.0, "period_hours must be positive")

        bus_pos = {b.id: i for i, b in enumerate(self.buses)}
        _require(len(bus_pos) == len(self.buses), "duplicate bus ids")
        branch_pos = {br.id: i for i, br in enumerate(self.branches)}
        _require(len(branch_pos) == len(self.branches), "duplicate branch ids")
        for coll, kind in ((self.loads, "load"), (self.generators, "generator")):
            ids = [e.id for e in coll]
            _require(len(set(ids)) == len(ids), f"duplicate {kind} ids")

        slacks = [i for i, b in enumerate(self.buses) if b.is_slack]
        if len(slacks) != 1:
            raise InputError("multiple slack buses" if len(slacks) > 1 else "no slack bus")

        for br in self.branches:
            _require(br.from_bus in bus_pos, f"branch {br.id}: unknown from_bus {br.from_bus!r}")
            _require(br.to_bus in bus_pos, f"branch {br.id}: unknown to_bus {br.to_bus!r}")
        for el in (*self.loads, *self.generators):
            _require(el.bus in bus_pos, f"element {el.id}: unknown bus {el.bus!r}")
        for ld in self.loads:
            _require(
                ld.p.shape[1] == self.horizon,
                f"load {ld.id}: profile length {ld.p.shape[1]} does not match horizon {self.horizon}",
            )

        object.__setattr__(self, "bus_pos", bus_pos)
        object.__setattr__(self, "branch_pos", branch_pos)
        object.__setattr__(self, "slack", slacks[0])
        # raises InputError unless the branches span the buses as a tree
        tree = TreeIndex(self)
        z = np.array([br.z for br in self.branches]).reshape(-1, 3, 3)
        n_br, n = tree.P.shape
        unknown = np.arange(n) != self.slack
        derived = {
            "tree": tree,
            "z": z,
            "zp_u": np.einsum("lm,lpq->lpmq", tree.P[:, unknown], z).reshape(3 * n_br, 3 * (n - 1)),
            "a3": np.kron(tree.A[:, unknown], np.eye(3)),
            "u_flat": np.tile(slack_reference(), (n, 1)),
        }
        for name, value in derived.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    # Base quantities used by the per-unit transform.
    @property
    def z_base(self) -> float:
        """Impedance base in ohm."""
        return self.v_base**2 / (self.s_base * 1e3)

    @property
    def i_base(self) -> float:
        """Current base in ampere, per phase."""
        return self.s_base * 1e3 / self.v_base

    def gen_entries(self) -> list[tuple[int, int]]:
        """(generator index, phase index) pairs, one per connected phase."""
        return [(g, PHASE_INDEX[ph]) for g, gen in enumerate(self.generators) for ph in gen.phases]

    def load_entries(self) -> list[tuple[int, int]]:
        return [(d, PHASE_INDEX[ph]) for d, ld in enumerate(self.loads) for ph in ld.phases]

    def gen_index(self, gen_id: str) -> int:
        """Position of the generator with this id; InputError if there is none."""
        for g, gen in enumerate(self.generators):
            if gen.id == gen_id:
                return g
        raise InputError(f"unknown generator {gen_id!r}")


# ---------------------------------------------------------------------------
# Sequence parameters -> phase impedance matrix
# ---------------------------------------------------------------------------

def seq_to_phase_impedance(z1: complex, z0: complex) -> np.ndarray:
    """Build the 3x3 phase impedance matrix from sequence impedances.

    Uses the similarity transform with the symmetrical-component matrix,
    assuming equal positive and negative sequence values; this collapses to
    diagonal entries (z0 + 2 z1)/3 and off-diagonal entries (z0 - z1)/3.
    """
    zs = (z0 + 2.0 * z1) / 3.0
    zm = (z0 - z1) / 3.0
    out = np.full((3, 3), zm, dtype=complex)
    np.fill_diagonal(out, zs)
    return out


# ---------------------------------------------------------------------------
# Per-unit conversion
# ---------------------------------------------------------------------------

def _scale_case(case: NetworkCase, *, to_pu: bool) -> NetworkCase:
    z_scale = 1.0 / case.z_base if to_pu else case.z_base
    s_scale = 1.0 / case.s_base if to_pu else case.s_base
    i_scale = 1.0 / case.i_base if to_pu else case.i_base

    branches = tuple(
        replace(br, r=br.r * z_scale, x=br.x * z_scale, i_max=br.i_max * i_scale)
        for br in case.branches
    )
    loads = tuple(replace(ld, p=ld.p * s_scale, q=ld.q * s_scale) for ld in case.loads)
    gens = tuple(
        replace(g, p_cap=g.p_cap * s_scale, q_abs_max=g.q_abs_max * s_scale)
        for g in case.generators
    )
    return replace(case, branches=branches, loads=loads, generators=gens, in_per_unit=to_pu)


def to_per_unit(case: NetworkCase) -> NetworkCase:
    """Normalize all impedances, powers and current limits to per-unit."""
    _require(not case.in_per_unit, "case is already in per-unit")
    return _scale_case(case, to_pu=True)


def to_physical(case: NetworkCase) -> NetworkCase:
    """Inverse of to_per_unit: restore ohm / kW / kVAr / ampere quantities."""
    _require(case.in_per_unit, "case is not in per-unit")
    return _scale_case(case, to_pu=False)


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

def _parse_phases(raw, ctx: str) -> tuple[str, ...]:
    _require(isinstance(raw, str) and raw in {"a", "b", "c", "abc"}, f'{ctx}: phase must be "a"|"b"|"c"|"abc"')
    return tuple(raw) if raw != "abc" else PHASES


def _get(obj: dict, key: str, typ, ctx: str, default=None):
    """obj[key] of the JSON object obj, checked against typ; default, when given, stands in for an absent field."""
    _require(isinstance(obj, dict), f"{ctx}: expected an object, got {type(obj).__name__}")
    if key not in obj and default is not None:
        return default
    _require(key in obj, f"{ctx}: missing field {key!r}")
    val = obj[key]
    if typ is float:
        _require(_is_finite_number(val), f"{ctx}: field {key!r} must be a finite number")
        return float(val)
    # JSON true and false load as Python bools, which are ints too.
    _require(isinstance(val, typ) and isinstance(val, bool) == (typ is bool), f"{ctx}: field {key!r} has wrong type")
    return val


def _is_finite_number(val) -> bool:
    """A JSON number a float holds: not a bool, NaN, an infinity or an int beyond float range."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max


def _finite_array(raw: list, ctx: str) -> np.ndarray:
    _require(all(_is_finite_number(v) for v in raw), f"{ctx}: every entry must be a finite number")
    return np.asarray(raw, dtype=float)


def _parse_matrix(raw, ctx: str) -> np.ndarray:
    _require(isinstance(raw, list) and len(raw) == 9, f"{ctx}: expected 9 row-major entries")
    return _finite_array(raw, ctx).reshape(3, 3)


def _parse_branch(obj: dict, ctx: str) -> Branch:
    bid = _get(obj, "id", str, ctx)
    ctx = f"branch {bid}"
    common = dict(
        id=bid,
        from_bus=_get(obj, "from_bus", str, ctx),
        to_bus=_get(obj, "to_bus", str, ctx),
        i_max=_get(obj, "i_max_a", float, ctx),
    )
    if "r_matrix" in obj or "x_matrix" in obj:
        r = _parse_matrix(_get(obj, "r_matrix", list, ctx), f"{ctx}: r_matrix")
        x = _parse_matrix(_get(obj, "x_matrix", list, ctx), f"{ctx}: x_matrix")
        return Branch(r=r, x=x, **common)
    # Sequence form: per-km positive/zero sequence impedances plus a length.
    z1_obj = _get(obj, "z1", dict, ctx)
    z0_obj = _get(obj, "z0", dict, ctx)
    length = _get(obj, "length_km", float, ctx)
    _require(length > 0.0, f"{ctx}: length_km must be positive")
    z1 = complex(_get(z1_obj, "r_ohm_per_km", float, f"{ctx}.z1"), _get(z1_obj, "x_ohm_per_km", float, f"{ctx}.z1"))
    z0 = complex(_get(z0_obj, "r_ohm_per_km", float, f"{ctx}.z0"), _get(z0_obj, "x_ohm_per_km", float, f"{ctx}.z0"))
    z = seq_to_phase_impedance(z1, z0) * length
    return Branch(r=np.ascontiguousarray(z.real), x=np.ascontiguousarray(z.imag), **common)


def _parse_profile(obj: dict, key: str, horizon: int, n_ph: int, ctx: str) -> np.ndarray | None:
    """The profile under key, one row per phase; None when the field is absent or null."""
    if obj.get(key) is None:
        return None
    raw = _get(obj, key, list, ctx)
    if len(raw) != horizon:
        raise InputError(f"{ctx}: profile length {len(raw)} does not match horizon {horizon}")
    return np.tile(_finite_array(raw, f"{ctx}: {key}"), (n_ph, 1))


def load_profiles_csv(path: str | Path, horizon: int) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """Read a load-profile CSV (element_id,phase,period,p_kw,q_kvar).

    Every (element, phase) pair mentioned must cover periods 0..horizon-1
    completely.  Values are in physical units (kW / kVAr).
    """
    path = Path(path)
    _require(path.exists(), f"loads file not found: {path}")
    table: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    filled: dict[tuple[str, str], np.ndarray] = {}
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        expect = ["element_id", "phase", "period", "p_kw", "q_kvar"]
        _require(reader.fieldnames == expect, f"loads CSV header must be {','.join(expect)}")
        for ln, row in enumerate(reader, start=2):
            try:
                el, ph = row["element_id"], row["phase"]
                t = int(row["period"])
                p, q = float(row["p_kw"]), float(row["q_kvar"])
            except (TypeError, ValueError) as exc:
                raise InputError(f"loads CSV line {ln}: {exc}") from None
            _require(math.isfinite(p) and math.isfinite(q), f"loads CSV line {ln}: p_kw and q_kvar must be finite")
            _require(ph in PHASE_INDEX, f"loads CSV line {ln}: bad phase {ph!r}")
            _require(0 <= t < horizon, f"loads CSV line {ln}: period {t} outside 0..{horizon - 1}")
            key = (el, ph)
            if key not in table:
                table[key] = (np.zeros(horizon), np.zeros(horizon))
                filled[key] = np.zeros(horizon, dtype=bool)
            _require(not filled[key][t], f"loads CSV line {ln}: duplicate entry for {el}/{ph} period {t}")
            table[key][0][t] = p
            table[key][1][t] = q
            filled[key][t] = True
    for (el, ph), mask in filled.items():
        if not mask.all():
            missing = int(np.flatnonzero(~mask)[0])
            raise InputError(f"loads CSV: profile length mismatch for {el}/{ph}: missing period {missing}")
    return table


def load_network(path: str | Path, loads_csv: str | Path | None = None) -> NetworkCase:
    """Parse, validate and per-unit-normalize a network JSON file.

    An optional profiles CSV supplies or overrides per-phase load profiles;
    the JSON may then omit p_profile/q_profile for loads covered by it.
    Every connected load phase needs a p_profile or a CSV row, and every
    CSV row must name a connected load phase; a missing q_profile is zero.
    """
    path = Path(path)
    _require(path.exists(), f"network file not found: {path}")
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path.name}: invalid JSON: {exc}") from None

    base = _get(doc, "base", dict, path.name)
    s_base = _get(base, "s_kva", float, "base")
    v_base = _get(base, "v_volts", float, "base")
    horizon = _get(base, "periods", int, "base")
    period_hours = _get(base, "period_hours", float, "base", 1.0)
    _require(s_base > 0 and v_base > 0, "base: s_kva and v_volts must be positive")

    buses = tuple(
        Bus(
            id=_get(b, "id", str, "bus"),
            vmin=_get(b, "vmin", float, f"bus {b.get('id')}", 0.90),
            vmax=_get(b, "vmax", float, f"bus {b.get('id')}", 1.10),
            vuf_max=_get(b, "vuf_max", float, f"bus {b.get('id')}", 0.02),
            is_slack=_get(b, "is_slack", bool, f"bus {b.get('id')}", False),
        )
        for b in _get(doc, "buses", list, path.name)
    )
    branches = tuple(_parse_branch(br, "branch") for br in _get(doc, "branches", list, path.name))

    csv_profiles = load_profiles_csv(loads_csv, horizon) if loads_csv is not None else {}

    loads = []
    for obj in _get(doc, "loads", list, path.name, []):
        lid = _get(obj, "id", str, "load")
        ctx = f"load {lid}"
        phases = _parse_phases(_get(obj, "phase", str, ctx), ctx)
        p = _parse_profile(obj, "p_profile", horizon, len(phases), ctx)
        q = _parse_profile(obj, "q_profile", horizon, len(phases), ctx)
        if q is None:
            q = np.zeros((len(phases), horizon))
        if p is None:
            uncovered = [ph for ph in phases if (lid, ph) not in csv_profiles]
            _require(not uncovered, f"{ctx}: phase {','.join(uncovered)} has no p_profile and no loads CSV row")
            p = np.zeros((len(phases), horizon))
        for k, ph in enumerate(phases):
            if (lid, ph) in csv_profiles:
                p[k], q[k] = csv_profiles[(lid, ph)]
        loads.append(Load(id=lid, bus=_get(obj, "bus", str, ctx), phases=phases, p=p, q=q))
    stray = sorted(csv_profiles.keys() - {(ld.id, ph) for ld in loads for ph in ld.phases})
    if stray:
        raise InputError(f"loads CSV: no load {stray[0][0]!r} on phase {stray[0][1]!r}")

    gens = tuple(
        Generator(
            id=_get(g, "id", str, "generator"),
            bus=_get(g, "bus", str, f"generator {g.get('id')}"),
            phases=_parse_phases(_get(g, "phase", str, f"generator {g.get('id')}"), f"generator {g.get('id')}"),
            p_cap=_get(g, "p_cap_kw", float, f"generator {g.get('id')}"),
            q_abs_max=_get(g, "q_abs_max_kvar", float, f"generator {g.get('id')}", 0.0),
        )
        for g in _get(doc, "generators", list, path.name, [])
    )

    case = NetworkCase(
        buses=buses,
        branches=branches,
        loads=tuple(loads),
        generators=gens,
        s_base=s_base,
        v_base=v_base,
        horizon=horizon,
        period_hours=period_hours,
        in_per_unit=False,
    )
    return to_per_unit(case)


def slack_reference(vm: float = 1.0) -> np.ndarray:
    """Balanced slack voltage phasors (3,) at magnitude vm, phase a at 0 deg."""
    ang = np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
    return vm * np.exp(1j * ang)


class TreeIndex:
    """Feeder topology as arrays, from one walk outward from the slack.

    The walk raises InputError unless the branches form a tree spanning all
    buses.  For n_branch branches and n_bus buses it yields:

    - A (n_branch, n_bus): branch-bus incidence, +1 at a branch's to_bus and
      -1 at its from_bus, so A @ u is the voltage rise along each branch;
    - down_sign[l]: +1 when branch l's stored from->to direction points away
      from the slack, -1 when it points towards it;
    - P (n_branch, n_bus): signed path matrix, P[l, m] = down_sign[l] when
      bus m is fed through branch l.  For net bus demand currents i_net,
      the branch currents in stored direction are P @ i_net (the
      bus-injection-to-branch-current matrix of a radial feeder);
    - load_bus[d], gen_bus[g]: bus position of each load and generator, the
      element-bus incidence in index form.
    """

    def __init__(self, case: NetworkCase):
        n, n_br = len(case.buses), len(case.branches)
        if n_br != n - 1:
            raise InputError(f"network is not radial: {n_br} branches for {n} buses (expected {n - 1})")
        frm = np.array([case.bus_pos[br.from_bus] for br in case.branches], dtype=np.intp)
        to = np.array([case.bus_pos[br.to_bus] for br in case.branches], dtype=np.intp)
        self.A = np.zeros((n_br, n))
        self.A[np.arange(n_br), to] = 1.0
        self.A[np.arange(n_br), frm] = -1.0
        self.load_bus = np.array([case.bus_pos[ld.bus] for ld in case.loads], dtype=np.intp)
        self.gen_bus = np.array([case.bus_pos[g.bus] for g in case.generators], dtype=np.intp)

        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (neighbor, branch)
        for l in range(n_br):
            adj[frm[l]].append((to[l], l))
            adj[to[l]].append((frm[l], l))
        self.down_sign = np.zeros(n_br)
        # fed[:, m] marks the branches on the path from the slack to bus m; a
        # bus inherits its parent's path, complete by the time it is reached.
        fed = np.zeros((n_br, n), dtype=bool)
        seen = np.zeros(n, dtype=bool)
        seen[case.slack] = True
        stack = [case.slack]
        while stack:
            b = stack.pop()
            for nb, l in adj[b]:
                if not seen[nb]:
                    seen[nb] = True
                    self.down_sign[l] = 1.0 if frm[l] == b else -1.0
                    fed[:, nb] = fed[:, b]
                    fed[l, nb] = True
                    stack.append(nb)
        if not seen.all():
            missing = sorted(case.buses[i].id for i in np.flatnonzero(~seen))
            raise InputError(f"disconnected graph: buses unreachable from slack: {missing}")
        self.P = np.where(fed, self.down_sign[:, None], 0.0)
