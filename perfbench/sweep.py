"""Backward/forward sweep power flow, written apart from the program.

The benchmark checks every envelope with this module.  It reads only the
data of a ``lvdoe.NetworkCase`` (buses, branches, loads and their limits);
it shares no code with ``lvdoe.oracle`` or ``lvdoe.phasecalc``, so a fault
in the program's own physics does not hide itself.

A batch of K injection patterns is solved at once: arrays are indexed
[pattern, bus or branch, phase].  Injections are constant power, drawn
power positive, in per-unit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

PHASE = {"a": 0, "b": 1, "c": 2}
_A = cmath.exp(2j * math.pi / 3)

# Limits each network scenario selects (scenario 1 is the static caps alone).
SCENARIO_LIMITS = {
    2: frozenset({"voltage", "vuf"}),
    3: frozenset({"voltage", "current"}),
    4: frozenset({"current", "vuf"}),
    5: frozenset({"voltage", "current", "vuf"}),
}


class Feeder:
    """Radial topology and limits of one network case, in per-unit."""

    def __init__(self, case):
        if not case.in_per_unit:
            raise ValueError("case must be in per-unit")
        pos = {b.id: i for i, b in enumerate(case.buses)}
        n_bus, n_br = len(case.buses), len(case.branches)
        slack = next(i for i, b in enumerate(case.buses) if b.is_slack)
        adj = [[] for _ in range(n_bus)]
        for l, br in enumerate(case.branches):
            adj[pos[br.from_bus]].append((pos[br.to_bus], l))
            adj[pos[br.to_bus]].append((pos[br.from_bus], l))
        # Walk away from the slack; path[b] lists the branches from the
        # slack down to bus b.
        path = {slack: []}
        sign = np.zeros(n_br)
        stack = [slack]
        while stack:
            b = stack.pop()
            for nb, l in adj[b]:
                if nb not in path:
                    path[nb] = path[b] + [l]
                    sign[l] = 1.0 if pos[case.branches[l].from_bus] == b else -1.0
                    stack.append(nb)
        # below[l, b] = 1 when bus b is fed through branch l.
        self.below = np.zeros((n_br, n_bus))
        for b, branches in path.items():
            self.below[branches, b] = 1.0
        self.sign = sign
        self.z = np.array([br.r + 1j * br.x for br in case.branches])
        self.i_max = np.array([br.i_max for br in case.branches])
        self.vmin = np.array([b.vmin for b in case.buses])
        self.vmax = np.array([b.vmax for b in case.buses])
        self.vuf_max = np.array([b.vuf_max for b in case.buses])
        # Balanced nominal voltage, phase a at 0 degrees, b lagging.
        self.u_slack = np.exp(1j * np.array([0.0, -2.0 * math.pi / 3, 2.0 * math.pi / 3]))
        self.case = case
        self.pos = pos
        self.n_bus = n_bus

    def demand(self, period: int) -> np.ndarray:
        """(n_bus, 3) complex power drawn by the loads in one period."""
        s = np.zeros((self.n_bus, 3), dtype=complex)
        for ld in self.case.loads:
            for k, ph in enumerate(ld.phases):
                s[self.pos[ld.bus], PHASE[ph]] += ld.p[k, period] + 1j * ld.q[k, period]
        return s

    def generation(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """(K, n_bus, 3) complex power from per-generator (K, n_gen, 3) P and Q."""
        s = np.zeros((p.shape[0], self.n_bus, 3), dtype=complex)
        for g, gen in enumerate(self.case.generators):
            s[:, self.pos[gen.bus], :] += p[:, g, :] + 1j * q[:, g, :]
        return s

    def solve(self, s_drawn: np.ndarray, tol: float = 1e-13, max_iter: int = 1000):
        """Voltages (K, n_bus, 3), branch currents (K, n_branch, 3) and a
        converged flag (K,).  Branch currents follow each branch's stored
        from->to direction."""
        k = s_drawn.shape[0]
        u = np.broadcast_to(self.u_slack, (k, self.n_bus, 3)).copy()
        done = np.zeros(k, dtype=bool)
        for _ in range(max_iter):
            with np.errstate(all="ignore"):
                i_down = np.einsum("lb,kbp->klp", self.below, np.conj(s_drawn / u))
                drop = np.einsum("lpq,klq->klp", self.z, i_down)
                u_new = self.u_slack - np.einsum("lb,klp->kbp", self.below, drop)
                step = np.abs(u_new - u).max(axis=(1, 2))
            u = u_new
            done = step <= tol
            if np.all(done | ~np.isfinite(step)):
                break
        with np.errstate(all="ignore"):
            i_down = np.einsum("lb,kbp->klp", self.below, np.conj(s_drawn / u))
        return u, self.sign[None, :, None] * i_down, done

    def worst_violation(self, u: np.ndarray, i_branch: np.ndarray, limits) -> np.ndarray:
        """(K,) largest amount by which a selected limit is exceeded; a
        value <= 0 means every selected limit holds."""
        worst = np.full(u.shape[0], -np.inf)
        if "voltage" in limits:
            vm = np.abs(u)
            worst = np.maximum(worst, (vm - self.vmax[None, :, None]).max(axis=(1, 2)))
            worst = np.maximum(worst, (self.vmin[None, :, None] - vm).max(axis=(1, 2)))
        if "current" in limits:
            worst = np.maximum(worst, (np.abs(i_branch) - self.i_max[None, :, None]).max(axis=(1, 2)))
        if "vuf" in limits:
            ua, ub, uc = u[..., 0], u[..., 1], u[..., 2]
            u1 = np.abs(ua + _A * ub + _A * _A * uc)
            u2 = np.abs(ua + _A * _A * ub + _A * uc)
            worst = np.maximum(worst, (u2 / u1 - self.vuf_max[None, :]).max(axis=1))
        return worst
