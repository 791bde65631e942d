"""The three benchmark workloads: inputs from a seed, one pass, its checks.

A pass is a fixed list of operations, the same on every pass of a run.
Every call into enmeas goes through a module attribute
(``charact.membership_finite``, ``bessel.phi``, ...), so the traced run
can wrap those attributes without touching the package.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

from enmeas import bessel, charact, distances, povm, reproduce, spectra, tau

import oracles


@dataclass
class PassResult:
    """Wall time of every completed operation, the failures, the outputs."""

    times: list[float] = field(default_factory=list)
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    def op(self, fn, *args):
        """Run one operation; return its value, or None when it raised."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, and the run goes on
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.times.append(time.perf_counter() - t0)
        return out


# ---------------------------------------------------------------------------
# membership-flip
# ---------------------------------------------------------------------------

class MembershipFlip:
    """Bisection of the reachability flip of the degraded x measurement.

    For each d in {2, 3, 5, 10} the bracket [lo, lo + 0.9] holds the flip
    point cos(pi/(d+1)); lo is drawn from [0.06, 0.10) by the seed. Halving
    it to 2e-7 takes 23 verdicts, so a pass is 92 verdicts whatever the
    seed; the seed moves the t values the solver sees near the boundary.
    """

    DS = (2, 3, 5, 10)
    WIDTH = 0.9
    TOL = 2e-7

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.target = povm.projective_qubit("x")
        self.brackets = {d: 0.06 + 0.04 * float(rng.random()) for d in self.DS}

    def verdict(self, t: float, d: int) -> bool:
        return charact.membership_finite(povm.degrade(self.target, t), d).is_member

    def warm_up(self) -> None:
        self.verdict(0.3, 2)
        self.verdict(0.7, 2)

    def run_pass(self) -> PassResult:
        res = PassResult()
        verdicts, flips = [], {}
        for d in self.DS:
            lo = self.brackets[d]
            hi = lo + self.WIDTH
            clean = True
            while hi - lo > self.TOL:
                mid = 0.5 * (lo + hi)
                member = res.op(self.verdict, mid, d)
                if member is None:
                    clean = False  # the flip of a broken bisection is not checked
                else:
                    verdicts.append((d, mid, member))
                if member:
                    lo = mid
                else:
                    hi = mid
            if clean:
                flips[d] = 0.5 * (lo + hi)
        res.outputs = {"verdicts": verdicts, "flips": flips}
        return res

    def reference(self) -> None:
        return None

    def errors(self, outputs, reference) -> list[str]:
        return oracles.membership_errors(outputs["verdicts"], outputs["flips"])


# ---------------------------------------------------------------------------
# diamond-distance
# ---------------------------------------------------------------------------

def _random_two_outcome(rng, dim: int = 2) -> povm.Povm:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _ = np.linalg.qr(g)
    e = (u * rng.random(dim)) @ u.conj().T
    return povm.Povm(elements=[e, np.eye(dim) - e])


def _random_rank_one(rng, dim: int, n_out: int) -> povm.Povm:
    vs = rng.standard_normal((n_out, dim)) + 1j * rng.standard_normal((n_out, dim))
    g = vs.T @ vs.conj()
    w, u = np.linalg.eigh(g)
    gmh = (u / np.sqrt(w)) @ u.conj().T
    return povm.Povm(elements=[gmh @ np.outer(v, v.conj()) @ gmh for v in vs])


class DiamondDistance:
    """Classical and quantum distances of random POVM pairs.

    A pass is 27 pairs: 8 two-outcome qubit pairs, three triples of rank-one
    3-outcome qubit POVMs and three of qutrit POVMs (three pairs each), and
    the 64-outcome sphere discretization pair. The random POVMs come from
    the fixed POOL_SEED and the run's seed only orders the pairs:
    quantum_distance raises on about one random 3-outcome qubit pair in
    300, so POVMs drawn from the run's seed would fail on some seeds only.
    """

    N_TWO = 8
    N_TRIPLES = 3
    POOL_SEED = 0

    def __init__(self, seed: int):
        rng = np.random.default_rng(self.POOL_SEED)
        pairs = [(_random_two_outcome(rng), _random_two_outcome(rng))
                 for _ in range(self.N_TWO)]
        triples = []
        for dim in (2, 3):
            for _ in range(self.N_TRIPLES):
                a, b, c = (_random_rank_one(rng, dim, 3) for _ in range(3))
                triples.append(len(pairs))
                pairs += [(a, b), (b, c), (a, c)]
        pairs.append(reproduce.sphere_povm_pair(64))
        order = np.random.default_rng(seed).permutation(len(pairs))
        where = {int(old): new for new, old in enumerate(order)}
        self.pairs = [pairs[i] for i in order]
        self.triples = [(where[i], where[i + 1], where[i + 2]) for i in triples]
        self.sphere = where[len(pairs) - 1]

    @staticmethod
    def both(m0, m1):
        return distances.classical_distance(m0, m1), distances.quantum_distance(m0, m1)

    def warm_up(self) -> None:
        two = next(p for p in self.pairs if p[0].n_outcomes == 2)
        qutrit = next(p for p in self.pairs if p[0].dim == 3)
        self.both(*two)
        self.both(*qutrit)

    def run_pass(self) -> PassResult:
        res = PassResult()
        res.outputs = {"results": [res.op(self.both, m0, m1) for m0, m1 in self.pairs]}
        return res

    def reference(self) -> list:
        return [oracles.two_outcome_distance(m0.elements[0], m1.elements[0])
                if m0.n_outcomes == 2 else None for m0, m1 in self.pairs]

    def errors(self, outputs, reference) -> list[str]:
        records, keep = [], {}
        for i, ((m0, m1), out) in enumerate(zip(self.pairs, outputs["results"])):
            if out is None:
                continue
            dc, dq = out
            keep[i] = len(records)
            records.append({
                "diffs": [a - b for a, b in zip(m0.elements, m1.elements)],
                "dc": dc.value, "dq": dq.value, "rho_c": dc.witness["rho"],
                "rho_q": dq.witness["rho"], "xs": dq.witness["X"], "two": reference[i],
            })
        triples = [tuple(keep[i] for i in t) for t in self.triples
                   if all(i in keep for i in t)]
        return oracles.distance_errors(records, triples, keep.get(self.sphere))


# ---------------------------------------------------------------------------
# phi-curve
# ---------------------------------------------------------------------------

class PhiCurve:
    """phi, the coherent-state tau and the power state along z in [0.1, 1000].

    The grid is the 41-point geometric grid with 10 points a decade. Below
    z = 100 the seed moves each point but the first by a factor within
    10^(+-0.01), a tenth of a grid step, so the work per pass stays put
    while the z values change. From z = 100 on the points are fixed:
    power_state raises on a scattered seventh of the z values above 127,
    and three of these points (z = 10^2.3, 10^2.8, 10^2.9) are among them,
    so every pass fails those three operations, whatever the seed.
    """

    N = 41
    JITTER = 0.01
    FIXED_FROM = 2.0  # log10 z

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        logs = np.linspace(-1.0, 3.0, self.N)
        moved = np.flatnonzero((logs > -1.0) & (logs < self.FIXED_FROM))
        logs[moved] += rng.uniform(-self.JITTER, self.JITTER, moved.size)
        self.zs = [float(z) for z in 10.0 ** logs]

    @staticmethod
    def point(z: float):
        p = bessel.phi(z).phi
        coherent = tau.tau_coherent(z)
        state = bessel.power_state(z, 1.0)
        chains = spectra.decompose_chains(state.levels, 1.0)
        return p, coherent, tau.tau_of_state(state, chains).tau, state.mean_energy()

    def warm_up(self) -> None:
        for z in (0.2, 50.0):
            self.point(z)

    def run_pass(self) -> PassResult:
        res = PassResult()
        res.outputs = {"points": [res.op(self.point, z) for z in self.zs]}
        return res

    def reference(self) -> list[float]:
        return [oracles.phi_oracle(z) for z in self.zs]

    def errors(self, outputs, reference) -> list[str]:
        rows = [(z, out[0], ref, *out[1:])
                for z, ref, out in zip(self.zs, reference, outputs["points"])
                if out is not None]
        return oracles.phi_curve_errors(*zip(*rows)) if rows else []


WORKLOADS = {
    "membership-flip": MembershipFlip,
    "diamond-distance": DiamondDistance,
    "phi-curve": PhiCurve,
}
