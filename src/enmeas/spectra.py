"""Battery spectrum analysis: maximal chains and joint energy sectors.

A chain is a maximal run of battery levels spaced exactly by the target gap
``delta``; a level joins a chain only through consecutive delta steps that are
actually present in the spectrum, not merely commensurate gaps.

A joint energy sector is written once, as (rows, feeds) tuples: the target
level of each of its rows and the battery populations feeding that row.
joint_sectors is the one builder of the joint eigenspaces of two spectra;
chain_sectors lists a qubit's sectors chain by chain, keeping the chains'
links. The characterization programs, the physical sector blocks and the
CLI read this form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def energy_tol(*spectra) -> float:
    """1e-9 times the largest spread of the given spectra: two energies this
    close are equal, whatever the unit or the origin of energy. A level that
    is not finite makes its spread nan or inf: ValueError."""
    spreads = [float(s.max()) - float(s.min()) for s in map(np.asarray, spectra)]
    if not np.isfinite(spreads).all():
        raise ValueError("spectra must be finite")
    return 1e-9 * max(spreads)


@dataclass(frozen=True)
class Chain:
    """One maximal chain nu + k*delta, k = 0..length-1."""

    nu: float
    level_ids: tuple[int, ...]  # indices into the input level list, energy-ascending

    @property
    def length(self) -> int:
        return len(self.level_ids)


@dataclass(frozen=True)
class ChainDecomposition:
    delta: float
    levels: np.ndarray
    chains: tuple[Chain, ...]  # sorted by nu
    grouping_tol: float
    # almost-chaining level pairs (id_lo, id_hi, |gap - delta|) within 10x tol
    near_misses: tuple[tuple[int, int, float], ...] = field(default=())

    @property
    def dim(self) -> int:
        return len(self.levels)

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "levels": [float(x) for x in self.levels],
            "grouping_tol": self.grouping_tol,
            "chains": [
                {"nu": c.nu, "length": c.length, "level_ids": list(c.level_ids)}
                for c in self.chains
            ],
            "near_misses": [
                {"low_id": a, "high_id": b, "gap_mismatch": g}
                for a, b, g in self.near_misses
            ],
        }


def _sorted_distinct(levels: np.ndarray, tol: float, name: str):
    """(order, sorted levels, gaps) of levels whose sorted gaps all exceed
    tol; else ValueError naming the indices of the closest pair."""
    order = np.argsort(levels)
    s = levels[order]
    gaps = np.diff(s)
    if np.any(gaps <= tol):
        k = int(np.argmin(gaps))
        raise ValueError(f"degenerate {name} spectrum: levels {order[k]} and {order[k+1]} "
                         f"differ by {gaps[k]:.3e} <= grouping_tol {tol:.3e}")
    return order, s, gaps


def decompose_chains(battery_levels, delta: float, grouping_tol: float | None = None) -> ChainDecomposition:
    """Partition a battery spectrum into maximal chains (nu_j + k*delta).

    Parameters
    ----------
    battery_levels : array_like
        Non-degenerate eigenvalues of the battery Hamiltonian, any order.
    delta : float
        Target level gap, > 0.
    grouping_tol : float, optional
        Two gaps are identified when they differ by at most this amount.
        Defaults to energy_tol(levels, (0, delta)), 1e-9 * max(spread, delta).

    Returns
    -------
    ChainDecomposition
        Chains sorted by offset nu; every input index appears exactly once.
    """
    levels = np.asarray(battery_levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError("battery_levels must be a non-empty 1-d array")
    if not np.all(np.isfinite(levels)):
        raise ValueError("battery_levels must be finite")
    if not (delta > 0):
        raise ValueError("delta must be positive")
    tol = energy_tol(levels, (0.0, delta)) if grouping_tol is None else float(grouping_tol)

    order, s, gaps = _sorted_distinct(levels, tol, "battery")
    n = levels.size
    # the successor candidates of every level: j - 1, then j, each within tol
    # of its target s + delta, where j = searchsorted(s, s + delta)
    target = s + delta
    j = np.searchsorted(s, target)
    lower = np.where((j > 0) & (np.abs(s[np.maximum(j - 1, 0)] - target) <= tol), j - 1, -1)
    upper = np.where((j < n) & (np.abs(s[np.minimum(j, n - 1)] - target) <= tol), j, -1)
    if gaps.min(initial=np.inf) > 2.0 * tol:
        # no two levels within 2 tol: every level has at most one successor
        # candidate, above it (or itself when delta <= tol), and no two
        # levels share one, so the walk below would make no choice. Each
        # chain is then a run of ascending indices under its lowest level,
        # its head, found by pointer jumping on the predecessors: after k
        # jumps every level points 2^k links down or at its head.
        succ, idx = np.maximum(lower, upper), np.arange(n)
        linked = (succ >= 0) & (succ != idx)
        head = idx.copy()
        head[succ[linked]] = idx[linked]
        for _ in range(n.bit_length()):
            head = head[head]
        perm = np.argsort(head, kind="stable")
        starts = np.flatnonzero(head[perm] == perm)
        ids, cuts = order[perm].tolist(), [*starts.tolist(), n]
        chains = [Chain(nu=nu, level_ids=tuple(ids[a:b]))
                  for nu, a, b in zip(s[perm[starts]].tolist(), cuts, cuts[1:])]
    else:
        lower, upper = lower.tolist(), upper.tolist()
        rank, nus = order.tolist(), s.tolist()
        used = [False] * n
        chains = []
        # s is ascending, so scanning left to right starts every chain at
        # its bottom, and the chains come out sorted by nu
        for start in range(n):
            if used[start]:
                continue
            ids = [start]
            used[start] = True
            cur = start
            while True:
                nxt = lower[cur]
                if nxt < 0 or used[nxt]:
                    nxt = upper[cur]
                    if nxt < 0 or used[nxt]:
                        break
                ids.append(nxt)
                used[nxt] = True
                cur = nxt
            chains.append(Chain(nu=nus[start], level_ids=tuple(rank[i] for i in ids)))

    # near misses: candidates j - 1, j, j + 1 of every level, in that order
    cand = j[:, None] + np.arange(-1, 2)
    mismatch = np.abs(s[np.clip(cand, 0, n - 1)] - s[:, None] - delta)
    lo, col = np.nonzero((cand >= 0) & (cand < n) & (cand != np.arange(n)[:, None])
                         & (tol < mismatch) & (mismatch <= 10.0 * tol))
    near = list(zip(order[lo].tolist(), order[cand[lo, col]].tolist(),
                    mismatch[lo, col].tolist()))
    return ChainDecomposition(
        delta=float(delta),
        levels=levels,
        chains=tuple(chains),
        grouping_tol=tol,
        near_misses=tuple(near),
    )


@lru_cache(maxsize=64)
def joint_sectors(target_levels: tuple, battery_levels: tuple) -> tuple:
    """The joint eigenspaces of H_S x 1 + 1 x H_B as (rows, feeds), by
    energy. A sector holds every pair of target level m and battery level n
    whose sum E_m + mu_n lies within energy_tol(target, battery) of the
    sector's lowest sum, so its row m is fed by population n alone; rows
    ascend by target level. The spectra must be non-empty, finite and
    non-degenerate. Cached on the two level tuples."""
    et = np.asarray(target_levels, dtype=float)
    eb = np.asarray(battery_levels, dtype=float)
    if et.ndim != 1 or eb.ndim != 1 or et.size == 0 or eb.size == 0:
        raise ValueError("spectra must be non-empty 1-d arrays")
    tol = energy_tol(et, eb)
    _sorted_distinct(et, tol, "target")
    _sorted_distinct(eb, tol, "battery")

    sums = sorted((et[m] + eb[n], m, n) for m in range(et.size) for n in range(eb.size))
    groups, low = [], None
    for e, m, n in sums:
        if low is None or abs(e - low) > tol:
            groups.append([])
            low = e
        groups[-1].append((m, n))
    return tuple((tuple(m for m, _ in g), tuple((n,) for _, n in g))
                 for g in map(sorted, groups))


def chain_sectors(chains: ChainDecomposition) -> tuple:
    """The (rows, feeds) sectors of a qubit target on a chained battery,
    chain by chain: sector k of a chain holds target row 0 fed by the
    chain's level k and target row 1 fed by its level k - 1, so the chain's
    two end sectors have one row."""
    sectors = []
    for chain in chains.chains:
        ids = chain.level_ids
        for k in range(len(ids) + 1):
            rows = tuple(a for a in (0, 1) if 0 <= k - a < len(ids))
            sectors.append((rows, tuple((ids[k - a],) for a in rows)))
    return tuple(sectors)
