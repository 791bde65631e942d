"""The battery quality factor tau and the worst-case error it implies.

tau of a battery state is the summed magnitude of its coherences between
adjacent levels of each chain; the optimal distinguishing error between an
unrestricted measurement device and one driven by that battery is
epsilon = (1 - tau)/2 for both classical and entanglement-assisted tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from .linalg import as_hermitian, matrix_from_json, matrix_to_json
from .spectra import ChainDecomposition

NORM_TOL = 1e-10  # slack on a state's norm^2, trace and least eigenvalue


@dataclass
class BatteryState:
    """A pure or mixed state over an indexed set of battery levels."""

    amplitudes: np.ndarray | None = None  # pure state coefficients
    rho: np.ndarray | None = None  # density matrix (mixed)
    levels: np.ndarray | None = None  # optional energies per index

    def __post_init__(self):
        if (self.amplitudes is None) == (self.rho is None):
            raise ValueError("provide exactly one of amplitudes or rho")
        if self.amplitudes is not None:
            a = np.asarray(self.amplitudes, dtype=complex).ravel()
            nrm = float(np.sum(np.abs(a) ** 2))
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"pure state norm^2 = {nrm:.12f} differs from 1 beyond tol")
            self.amplitudes = a
        else:
            r = as_hermitian(self.rho, herm_tol=1e-9)
            w = np.linalg.eigvalsh(r)
            if w[0] < -NORM_TOL:
                raise ValueError(f"density matrix not PSD: min eigenvalue {w[0]:.3e}")
            tr = float(np.trace(r).real)
            if abs(tr - 1.0) > NORM_TOL:
                raise ValueError(f"density matrix trace {tr:.12f} differs from 1 beyond tol")
            self.rho = r
        if self.levels is not None:
            self.levels = np.asarray(self.levels, dtype=float)
            if self.levels.size != self.dim:
                raise ValueError("levels length must match state dimension")

    @property
    def kind(self) -> str:
        return "pure" if self.amplitudes is not None else "mixed"

    @property
    def dim(self) -> int:
        return self.amplitudes.size if self.amplitudes is not None else self.rho.shape[0]

    def density(self) -> np.ndarray:
        if self.rho is not None:
            return self.rho
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def populations(self) -> np.ndarray:
        if self.amplitudes is not None:
            return np.abs(self.amplitudes) ** 2
        return np.real(np.diag(self.rho)).copy()

    def mean_energy(self) -> float:
        if self.levels is None:
            raise ValueError("state carries no level energies")
        return float(np.dot(self.populations(), self.levels))

    @classmethod
    def pure(cls, amplitudes, levels=None) -> "BatteryState":
        return cls(amplitudes=np.asarray(amplitudes, dtype=complex), levels=levels)

    @classmethod
    def mixed(cls, rho, levels=None) -> "BatteryState":
        return cls(rho=rho, levels=levels)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "pure":
            out["amplitudes"] = [[float(c.real), float(c.imag)] for c in self.amplitudes]
        else:
            out["rho"] = matrix_to_json(self.rho)
        if self.levels is not None:
            out["levels"] = [float(x) for x in self.levels]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BatteryState":
        levels = data.get("levels")
        if data.get("kind", "pure") == "pure":
            amps = np.asarray(data["amplitudes"], dtype=float)
            return cls.pure(amps[:, 0] + 1j * amps[:, 1], levels=levels)
        return cls.mixed(matrix_from_json(data["rho"]), levels=levels)


@dataclass(frozen=True)
class TauResult:
    tau: float
    epsilon: float


def epsilon_from_tau(tau: float) -> float:
    """Worst-case distinguishing bias (1 - tau)/2 of a tau-quality device."""
    if not (-1e-12 <= tau <= 1.0 + 1e-12):
        raise ValueError(f"tau = {tau} outside [0, 1]")
    return 0.5 * (1.0 - min(max(tau, 0.0), 1.0))


def tau_of_state(state: BatteryState, chains: ChainDecomposition) -> TauResult:
    """Sum of adjacent-level coherence magnitudes along every chain.

    For a state sigma over the chain-indexed levels this is
    sum_j sum_k |<j,k+1| sigma |j,k>|, evaluated at the given sigma.
    """
    if state.dim != chains.dim:
        raise ValueError(f"state dimension {state.dim} != number of battery levels {chains.dim}")
    ids = [np.array(c.level_ids) for c in chains.chains if c.length > 1]
    if state.amplitudes is not None:
        # |rho[hi, lo]| = |a_hi| |a_lo|: a pure state needs no dim x dim matrix
        amp = np.abs(state.amplitudes)
        total = sum(amp[i[1:]] @ amp[i[:-1]] for i in ids)
    else:
        total = sum(np.abs(state.rho[i[1:], i[:-1]]).sum() for i in ids)
    tau = min(float(total), 1.0)
    return TauResult(tau=tau, epsilon=epsilon_from_tau(tau))


def optimal_finite_state(d: int) -> BatteryState:
    """The d-level ladder state maximizing tau, with energy (d-1)/2.

    Amplitudes sqrt(2/(d+1)) * sin((k+1) pi / (d+1)); mean level index
    (d-1)/2, so its energy on a gap-Delta ladder is (d-1) Delta / 2.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    k = np.arange(d)
    amps = np.sqrt(2.0 / (d + 1)) * np.sin((k + 1) * np.pi / (d + 1))
    amps = amps / np.linalg.norm(amps)
    return BatteryState.pure(amps, levels=k.astype(float))


def tau_finite(d: int) -> float:
    """Best tau reachable with a battery of d levels: cos(pi/(d+1))."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return math.cos(math.pi / (d + 1))


def tau_coherent(alpha_sq: float) -> float:
    """tau of a coherent state of mean photon number |alpha|^2.

    tau = sum_k sqrt(p_k p_{k+1}) over the Poisson weights p_k of mean
    a = |alpha|^2.  Because sum_k (sqrt(p_k) - sqrt(p_{k+1}))^2 = 2 - p_0 - 2 tau,
    the deficit is summed directly as a sum of positive terms,

        1 - tau = (p_0 + sum_k p_k (k + 1 - a)^2 / ((k+1) (sqrt(k+1) + sqrt(a))^2)) / 2,

    so 1 - tau keeps its relative precision however small it gets.  The
    weights come from lgamma in log space, which neither underflows nor
    overflows, over the window a +- (12 sqrt(a) + 30) around the Poisson peak;
    the weight outside it is below 1e-25 of the deficit.  The window holds
    O(sqrt(a)) terms, so a is capped at 1e10.  Below a = 1/4, where tau < 1/2,
    tau itself is summed, as sum_k p_k sqrt(a / (k+1)).
    """
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be >= 0")
    if alpha_sq > 1e10:
        raise ValueError("alpha_sq above 1e10 is not supported")
    if alpha_sq == 0:
        return 0.0
    a2 = float(alpha_sq)
    half = 12.0 * math.sqrt(a2) + 30.0
    k = np.arange(max(0.0, math.floor(a2 - half)), math.ceil(a2 + half) + 1.0)
    p = np.exp(k * math.log(a2) - a2 - gammaln(k + 1.0))
    if a2 < 0.25:  # tau < 1/2: its own series is the better conditioned one
        return math.fsum(p * np.sqrt(a2 / (k + 1.0)))
    g = (k + 1.0 - a2) ** 2 / ((k + 1.0) * (np.sqrt(k + 1.0) + math.sqrt(a2)) ** 2)
    return 1.0 - 0.5 * (math.exp(-a2) + math.fsum(p * g))


@dataclass(frozen=True)
class EnergyDensity:
    """A normalized energy density f(E) with declared finite support."""

    f: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]

    def __call__(self, e):
        lo, hi = self.support
        e = np.asarray(e, dtype=float)
        vals = np.where((e >= lo) & (e <= hi), self.f(e), 0.0)
        # rounding may push a nonnegative density slightly negative
        return np.clip(vals, 0.0, None)

    def check_normalized(self) -> float:
        lo, hi = self.support
        total = _quad_with_edges(lambda x: float(self(x)), lo, hi, [])
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {total:.8f}, not 1")
        return total

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "EnergyDensity":
        """The normal density, cut off 12 standard deviations from its mean."""
        if variance <= 0:
            raise ValueError("variance must be positive")
        s = math.sqrt(variance)
        lo, hi = mean - 12.0 * s, mean + 12.0 * s
        norm = 1.0 / math.sqrt(2 * math.pi * variance)

        def f(e):
            return norm * np.exp(-((np.asarray(e) - mean) ** 2) / (2 * variance))

        return cls(f=f, support=(lo, hi))


def _quad_with_edges(func, lo: float, hi: float, edges) -> float:
    """Adaptive quadrature over 24 fixed panels plus declared breakpoints.

    Panelling keeps narrowly concentrated densities (widths well below the
    support) visible to the adaptive rule's initial samples.
    """
    if hi <= lo:
        return 0.0
    pts = {p for p in edges if lo < p < hi}
    pts.update(np.linspace(lo, hi, 25)[1:-1])
    grid = [lo] + sorted(pts) + [hi]
    total = 0.0
    with warnings.catch_warnings():
        # sqrt kinks at support edges trip the roundoff detector; the panel
        # sum is still accurate far beyond the tolerances used downstream
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(grid[:-1], grid[1:]):
            val, _ = integrate.quad(func, a, b, limit=200)
            total += val
    return float(total)


def _overlap(g1, g2, a: float, b: float, edges) -> float:
    """The integral of sqrt(g1 g2) over [a, b], panels broken at edges, clipped at 1."""
    return min(_quad_with_edges(lambda e: math.sqrt(max(g1(e) * g2(e), 0.0)), a, b, edges), 1.0)


def tau_continuous(f: EnergyDensity, delta: float) -> float:
    """tau of a pure battery state with continuous energy density f.

    Computes the overlap integral of sqrt(f(E) f(E + delta)) over the
    declared support; delta = 0 returns the normalization itself.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    f.check_normalized()
    lo, hi = f.support
    return _overlap(lambda e: float(f(e)), lambda e: float(f(e + delta)), lo, hi - delta,
                    [lo, hi, lo - delta, hi - delta])


def tau_near_resonant(
    c0: complex,
    c1: complex,
    eps_detuning: float,
    clock_density: EnergyDensity,
    delta: float,
) -> float:
    """tau of a two-level battery detuned by eps, dressed by a clock density.

    The two-level battery has gap delta + eps against a target gap delta; a
    continuous degree of freedom with density sigma(E) absorbs the mismatch.
    The result interpolates continuously to |c0 c1| as eps -> 0.
    """
    p0, p1 = abs(c0) ** 2, abs(c1) ** 2
    if abs(p0 + p1 - 1.0) > 1e-10:
        raise ValueError("|c0|^2 + |c1|^2 must equal 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    eps = float(eps_detuning)
    sig = clock_density
    sig.check_normalized()
    lo, hi = sig.support

    def g1(e):
        return p0 * float(sig(e)) + p1 * float(sig(e - delta - eps))

    def g2(e):
        return p0 * float(sig(e + delta)) + p1 * float(sig(e - eps))

    # g1 lives on s1 and g2 on s2, so their product vanishes outside the
    # overlaps; one integral over the hull of those covers them all
    s1 = [(lo, hi), (lo + delta + eps, hi + delta + eps)]
    s2 = [(lo - delta, hi - delta), (lo + eps, hi + eps)]
    overlaps = [(max(a1, a2), min(b1, b2)) for a1, b1 in s1 for a2, b2 in s2
                if min(b1, b2) > max(a1, a2)]
    if not overlaps:
        return 0.0
    a, b = min(a for a, _ in overlaps), max(b for _, b in overlaps)
    return _overlap(g1, g2, a, b, [x for piece in s1 + s2 for x in piece])
