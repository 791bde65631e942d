"""Battery spectrum analysis: maximal chains and joint eigenspace structure.

A chain is a maximal run of battery levels spaced exactly by the target gap
``delta``; a level joins a chain only through consecutive delta steps that are
actually present in the spectrum, not merely commensurate gaps.

A joint energy sector is written once, as (rows, feeds) tuples: the target
level of each of its rows and the battery populations feeding that row.
The characterization programs and the physical sector blocks both read
this form (joint_sectors, chain_sectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def default_grouping_tol(levels, delta: float) -> float:
    levels = np.asarray(levels, dtype=float)
    spread = float(levels.max() - levels.min()) if levels.size else 0.0
    return 1e-9 * max(delta, spread)


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
        Defaults to 1e-9 * max(delta, spread of levels).

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
    tol = default_grouping_tol(levels, delta) if grouping_tol is None else float(grouping_tol)

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


@dataclass(frozen=True)
class Sector:
    """A joint eigenspace of H_S x 1 + 1 x H_B: equal-sum pairs (m, n)."""

    energy: float
    pairs: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class JointEigenstructure:
    target_levels: np.ndarray
    battery_levels: np.ndarray
    sectors: tuple[Sector, ...]  # sorted by energy
    grouping_tol: float

    @property
    def total_rank(self) -> int:
        return sum(s.rank for s in self.sectors)

    def to_json(self) -> dict:
        return {
            "target_levels": [float(x) for x in self.target_levels],
            "battery_levels": [float(x) for x in self.battery_levels],
            "sectors": [
                {"energy": s.energy, "rank": s.rank, "pairs": [list(p) for p in s.pairs]}
                for s in self.sectors
            ],
        }


def joint_eigenspaces(target_levels, battery_levels) -> JointEigenstructure:
    """Group all sums E_m + mu_n into equal-energy sectors.

    Within a sector the m indices are pairwise distinct and so are the n
    indices (a consequence of both spectra being non-degenerate), which is
    what makes the per-sector POVM blocks well defined. Sums within 1e-9
    times the larger spectral spread (at least 1) share a sector.
    """
    et = np.asarray(target_levels, dtype=float)
    eb = np.asarray(battery_levels, dtype=float)
    if et.ndim != 1 or eb.ndim != 1 or et.size == 0 or eb.size == 0:
        raise ValueError("spectra must be non-empty 1-d arrays")
    if not (np.all(np.isfinite(et)) and np.all(np.isfinite(eb))):
        raise ValueError("spectra must be finite")
    spread = max(et.max() - et.min(), eb.max() - eb.min(), 1.0)
    tol = 1e-9 * spread
    _sorted_distinct(et, tol, "target")
    _sorted_distinct(eb, tol, "battery")

    sums = [(et[m] + eb[n], m, n) for m in range(et.size) for n in range(eb.size)]
    sums.sort(key=lambda t: t[0])
    sectors: list[Sector] = []
    cur: list[tuple[int, int]] = []
    cur_e = None
    for e, m, n in sums:
        if cur_e is None or abs(e - cur_e) <= tol:
            cur.append((int(m), int(n)))
            cur_e = e if cur_e is None else cur_e
        else:
            sectors.append(Sector(energy=float(cur_e), pairs=tuple(cur)))
            cur = [(int(m), int(n))]
            cur_e = e
    sectors.append(Sector(energy=float(cur_e), pairs=tuple(cur)))

    out = JointEigenstructure(
        target_levels=et, battery_levels=eb, sectors=tuple(sectors), grouping_tol=tol
    )
    if out.total_rank != et.size * eb.size:
        raise AssertionError("sector ranks do not sum to the product of dimensions")
    return out


@lru_cache(maxsize=64)
def joint_sectors(target_levels: tuple, battery_levels: tuple) -> tuple:
    """The sectors of joint_eigenspaces as (rows, feeds): a sector holds
    every pair of target level m and battery level n whose energies sum to
    its energy, so its row m is fed by population n alone. Cached on the two
    level tuples."""
    return tuple((tuple(m for m, _ in sec.pairs), tuple((n,) for _, n in sec.pairs))
                 for sec in joint_eigenspaces(target_levels, battery_levels).sectors)


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
