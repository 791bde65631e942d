"""Battery spectrum analysis: maximal chains and joint energy sectors.

A chain is a maximal run of battery levels spaced exactly by the target gap
``delta``; a level joins a chain only through consecutive delta steps that are
actually present in the spectrum, not merely commensurate gaps.

A joint energy sector is written once, as (rows, feeds) tuples: the target
level of each of its rows and the battery populations feeding that row.
joint_sectors is the one builder of the joint eigenspaces of two spectra,
and the chains follow it: level i links to level j when the qubit sector of
(0, delta) and the battery holds target row 1 fed by i and row 0 fed by j.
The characterization programs, the physical sector blocks and the CLI read
this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    grouping_tol: float  # energy_tol(levels, (0, delta))

    @property
    def dim(self) -> int:
        return len(self.levels)

    @property
    def sectors(self) -> tuple:
        """joint_sectors((0, delta), levels): the qubit's sectors, whose
        two-row sectors are the chains' links."""
        return joint_sectors((0.0, self.delta), self.levels)

    @cached_property
    def near_misses(self) -> tuple[tuple[int, int, float], ...]:
        """Almost-chaining level pairs (id_lo, id_hi, |gap - delta|) whose
        gap misses delta by more than grouping_tol and at most 10x it: the
        levels j - 1, j, j + 1 around each level's target, in that order."""
        order = np.argsort(self.levels)
        s, n, tol = self.levels[order], self.levels.size, self.grouping_tol
        cand = np.searchsorted(s, s + self.delta)[:, None] + np.arange(-1, 2)
        mismatch = np.abs(s[np.clip(cand, 0, n - 1)] - s[:, None] - self.delta)
        lo, col = np.nonzero((cand >= 0) & (cand < n) & (cand != np.arange(n)[:, None])
                             & (tol < mismatch) & (mismatch <= 10.0 * tol))
        return tuple(zip(order[lo].tolist(), order[cand[lo, col]].tolist(),
                         mismatch[lo, col].tolist()))

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
    """(order, sorted levels) of levels whose sorted gaps all exceed tol;
    else ValueError naming the indices of the closest pair."""
    order = np.argsort(levels)
    s = levels[order]
    gaps = np.diff(s)
    if np.any(gaps <= tol):
        k = int(np.argmin(gaps))
        raise ValueError(f"degenerate {name} spectrum: levels {order[k]} and {order[k+1]} "
                         f"differ by {gaps[k]:.3e} <= grouping_tol {tol:.3e}")
    return order, s


def _sector_pairs(et: np.ndarray, eb: np.ndarray, tol: float):
    """The joint sectors of two spectra as arrays (m, n, bounds): target
    level m and battery level n of every pair, sector after sector by
    energy, rows ascending by target level; sector k is pairs bounds[k] to
    bounds[k + 1]. A sector holds every pair whose sum E_m + mu_n lies
    within tol of the sector's lowest sum; equal sums go by (m, n)."""
    size = et.size * eb.size
    sums = (et[:, None] + eb).ravel()
    pair = np.argsort(sums, kind="stable")  # pair = m * eb.size + n
    sums = sums[pair]
    cuts = np.flatnonzero(np.diff(sums) > tol) + 1
    bounds = np.concatenate(([0], cuts, [size]))
    # a run with no step above tol can still span more than tol: split it
    # anew wherever a sum lies more than tol above the last split's
    wide = np.flatnonzero(sums[bounds[1:] - 1] - sums[bounds[:-1]] > tol)
    if wide.size:
        sums, extra = sums.tolist(), []
        for a, b in zip(bounds[wide].tolist(), bounds[wide + 1].tolist()):
            low = sums[a]
            for k in range(a + 1, b):
                if sums[k] - low > tol:
                    extra.append(k)
                    low = sums[k]
        cuts = np.sort(np.concatenate((cuts, np.array(extra, dtype=cuts.dtype))))
    sector = np.zeros(size, dtype=np.int64)
    sector[cuts] = 1
    m, n = np.divmod(pair[np.argsort(np.cumsum(sector) * size + pair)], eb.size)
    return m, n, np.concatenate(([0], cuts, [size]))


def decompose_chains(battery_levels, delta: float) -> ChainDecomposition:
    """Partition a battery spectrum into maximal chains (nu_j + k*delta):
    level i links to level j when a sector of joint_sectors((0, delta),
    battery_levels) holds just row 1 fed by i and row 0 fed by j.

    Parameters
    ----------
    battery_levels : array_like
        Non-degenerate eigenvalues of the battery Hamiltonian, any order.
    delta : float
        Target level gap, > 0.

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
    tol = energy_tol(levels, (0.0, delta))
    if not delta > tol:  # the qubit (0, delta) itself is degenerate
        raise ValueError(f"degenerate target spectrum: levels 0 and 1 differ by {delta:.3e} "
                         f"<= grouping_tol {tol:.3e}")
    order, s = _sorted_distinct(levels, tol, "battery")
    n = levels.size

    # the sectors of the sorted levels, the same sets; one holds at most one
    # pair of each row, so every level has at most one link up and one link
    # down
    m, fed, bounds = _sector_pairs(np.array([0.0, delta]), s, tol)
    two = bounds[:-1][np.diff(bounds) == 2]
    two = two[m[two] < m[two + 1]]
    lo, hi = fed[two + 1], fed[two]
    # each chain is a run of ascending sorted positions under its lowest
    # level, its head, found by pointer jumping on the predecessors: after
    # k jumps every level points 2^k links down or at its head
    head = np.arange(n)
    head[hi] = lo
    for _ in range(n.bit_length()):
        head = head[head]
    perm = np.argsort(head, kind="stable")
    heads = np.flatnonzero(head[perm] == perm)
    ids, cuts = order[perm].tolist(), [*heads.tolist(), n]
    chains = [Chain(nu=nu, level_ids=tuple(ids[a:b]))
              for nu, a, b in zip(s[perm[heads]].tolist(), cuts, cuts[1:])]
    return ChainDecomposition(delta=float(delta), levels=levels, chains=tuple(chains),
                              grouping_tol=tol)


def joint_sectors(target_levels, battery_levels) -> tuple:
    """The joint eigenspaces of H_S x 1 + 1 x H_B as (rows, feeds), by
    energy. A sector holds every pair of target level m and battery level n
    whose sum E_m + mu_n lies within energy_tol(target, battery) of the
    sector's lowest sum, so its row m is fed by population n alone; rows
    ascend by target level. The spectra must be non-empty, 1-d, finite and
    non-degenerate. Cached on the two spectra's values."""
    et = np.asarray(target_levels, dtype=float)
    eb = np.asarray(battery_levels, dtype=float)
    if et.ndim != 1 or eb.ndim != 1 or et.size == 0 or eb.size == 0:
        raise ValueError("spectra must be non-empty 1-d arrays")
    return _joint_sectors(tuple(et.tolist()), tuple(eb.tolist()))


@lru_cache(maxsize=64)
def _joint_sectors(target_levels: tuple, battery_levels: tuple) -> tuple:
    et, eb = np.array(target_levels), np.array(battery_levels)
    tol = energy_tol(et, eb)
    _sorted_distinct(et, tol, "target")
    _sorted_distinct(eb, tol, "battery")
    m, n, cuts = (a.tolist() for a in _sector_pairs(et, eb, tol))
    return tuple((tuple(m[a:b]), tuple((k,) for k in n[a:b])) for a, b in zip(cuts, cuts[1:]))
