"""CHSH tests under passive, photon-number-conserving local operations.

Two parties share one excitation delocalized over modes A and B plus one
local reference mode each (A' and B'). Passive optics cannot see coherences
between different local photon numbers, so the accessible state is the
projection of |phi>|+>|+> onto local number sectors; with the parity-block
observables below it still violates CHSH.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .linalg import as_hermitian, operator_sign

# one party's pair of modes, occupation basis |n, n'> at index 2n + n'
_IDX = {(n, npr): 2 * n + npr for n in (0, 1) for npr in (0, 1)}
PARTY_DIM = 4


def _party_number_projectors() -> list[np.ndarray]:
    """Projectors onto one party's local photon number 0, 1 and 2."""
    number = np.array([sum(occ) for occ in sorted(_IDX, key=_IDX.get)])
    return [np.diag((number == total).astype(complex)) for total in (0, 1, 2)]


def _single_photon_ops() -> tuple[np.ndarray, np.ndarray]:
    """sigma_x and sigma_z on the span of |0,1> and |1,0>."""
    sx = np.zeros((PARTY_DIM, PARTY_DIM), dtype=complex)
    sx[_IDX[(0, 1)], _IDX[(1, 0)]] = 1.0
    sx[_IDX[(1, 0)], _IDX[(0, 1)]] = 1.0
    sz = np.zeros((PARTY_DIM, PARTY_DIM), dtype=complex)
    sz[_IDX[(0, 1)], _IDX[(0, 1)]] = 1.0
    sz[_IDX[(1, 0)], _IDX[(1, 0)]] = -1.0
    return sx, sz


def reference_observables() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The dichotomic settings A_1, A_2 and B_1, B_2 on each party's modes."""
    sx, sz = _single_photon_ops()
    p00, _, p11 = _party_number_projectors()
    a = [p00 - p11 + sz, p00 - p11 + sx]
    b = [
        -p00 + p11 + (sx - sz) / sqrt(2.0),
        -p00 + p11 - (sx + sz) / sqrt(2.0),
    ]
    return a, b


def shared_pure_state() -> np.ndarray:
    """|phi>_AB |+>_A' |+>_B' arranged as (A A') x (B B'), a 16-vector."""
    amp = 1.0 / (2.0 * sqrt(2.0))
    psi = np.zeros(PARTY_DIM * PARTY_DIM, dtype=complex)
    for ap in (0, 1):
        for bp in (0, 1):
            psi[PARTY_DIM * _IDX[(0, ap)] + _IDX[(1, bp)]] += amp
            psi[PARTY_DIM * _IDX[(1, ap)] + _IDX[(0, bp)]] += amp
    return psi


def dephase_local_number(rho: np.ndarray) -> np.ndarray:
    """Project a two-party state onto joint local photon-number sectors."""
    rho = np.asarray(rho, dtype=complex)
    projs = _party_number_projectors()
    out = np.zeros_like(rho)
    for pa in projs:
        for pb in projs:
            p = np.kron(pa, pb)
            out += p @ rho @ p
    return out


def build_dephased_state() -> np.ndarray:
    """The 16-dim state the parties can actually exploit after dephasing."""
    psi = shared_pure_state()
    return dephase_local_number(np.outer(psi, psi.conj()))


def entangled_component() -> np.ndarray:
    """The surviving maximally entangled vector in the (1,1) number sector."""
    v = np.zeros(PARTY_DIM * PARTY_DIM, dtype=complex)
    v[PARTY_DIM * _IDX[(0, 1)] + _IDX[(1, 0)]] = 1.0 / sqrt(2.0)
    v[PARTY_DIM * _IDX[(1, 0)] + _IDX[(0, 1)]] = 1.0 / sqrt(2.0)
    return v


@dataclass
class BellScenario:
    """A two-party state with two dichotomic settings per side."""

    state: np.ndarray
    alice: list[np.ndarray]
    bob: list[np.ndarray]

    def __post_init__(self):
        self.state = as_hermitian(self.state)
        if len(self.alice) != 2 or len(self.bob) != 2:
            raise ValueError("need exactly two settings per party")
        da = self.alice[0].shape[0]
        db = self.bob[0].shape[0]
        if self.state.shape[0] != da * db:
            raise ValueError("state dimension must factor as alice x bob")
        w = np.linalg.eigvalsh(self.state)
        if w[0] < -1e-9 or abs(np.trace(self.state).real - 1.0) > 1e-9:
            raise ValueError("state must be PSD with unit trace")
        for o in self.alice + self.bob:
            w = np.linalg.eigvalsh(as_hermitian(o))
            if np.max(np.abs(np.abs(w) - 1.0)) > 1e-10:
                raise ValueError("observables must be dichotomic (eigenvalues +-1)")


def reference_scenario() -> BellScenario:
    a, b = reference_observables()
    return BellScenario(state=build_dephased_state(), alice=a, bob=b)


def chsh_operator(alice, bob) -> np.ndarray:
    a1, a2 = alice
    b1, b2 = bob
    return np.kron(a1, b1) + np.kron(a1, b2) + np.kron(a2, b1) - np.kron(a2, b2)


def chsh_value(s: BellScenario) -> float:
    """tr{rho (A1 B1 + A1 B2 + A2 B1 - A2 B2)}."""
    return float(np.trace(s.state @ chsh_operator(s.alice, s.bob)).real)


def chsh_mixture_bound() -> float:
    """2 (1 - w) + 2 sqrt(2) w for the dephased state's weight w = <e|rho|e> on
    its entangled component e; the rest, at most 2, must be a nonnegative
    diagonal (so separable) state to 1e-12, else ValueError. Here w = 1/4."""
    rho, e = build_dephased_state(), entangled_component()
    w = float(np.vdot(e, rho @ e).real)
    rest = rho - w * np.outer(e, e.conj())
    diag = np.diag(rest).real
    if np.max(np.abs(rest - np.diag(diag))) > 1e-12 or diag.min() < -1e-12:
        raise ValueError("the state less its entangled component is not a nonnegative diagonal")
    return 2.0 * (1.0 - w) + 2.0 * sqrt(2.0) * w


def optimize_chsh_seesaw(rho: np.ndarray, dims: tuple[int, int], restarts: int = 20,
                         iters: int = 500, seed: int = 0,
                         seeds_ab: list | None = None):
    """Locally optimal CHSH value by alternating sign-operator updates.

    Fixing Bob, Alice's optimal dichotomic observables are the operator
    signs of the partial expectations tr_B{rho (1 x (B1 +- B2))}; iterating
    both sides is monotonically nondecreasing. Returns (value, (A, B)).
    """
    da, db = dims
    rho = as_hermitian(rho)
    if rho.shape[0] != da * db:
        raise ValueError("state dimension does not match the factorization")
    if not iters >= 1:  # nan fails too
        raise ValueError(f"iters must be >= 1, got {iters}")
    rng = np.random.default_rng(seed)
    r4 = rho.reshape(da, db, da, db)

    def tr_b(c):  # tr_B(rho (1 x C))
        return np.einsum("ibjc,cb->ij", r4, c)

    def tr_a(c):  # tr_A(rho (C x 1))
        return np.einsum("ibjc,ji->bc", r4, c)

    def random_dichotomic(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return operator_sign(g + g.conj().T)

    best_val, best_obs = -np.inf, None
    starts = list(seeds_ab or [])
    while len(starts) < restarts:
        starts.append(([random_dichotomic(da), random_dichotomic(da)],
                       [random_dichotomic(db), random_dichotomic(db)]))
    if not starts:
        raise ValueError(f"restarts must be >= 1 when no seeds_ab are given, got {restarts}")
    for alice, bob in starts:
        alice = [np.asarray(a, dtype=complex) for a in alice]
        bob = [np.asarray(b, dtype=complex) for b in bob]
        val = -np.inf
        for _ in range(iters):
            g1 = tr_b(bob[0] + bob[1])
            g2 = tr_b(bob[0] - bob[1])
            alice = [operator_sign(g1), operator_sign(g2)]
            h1 = tr_a(alice[0] + alice[1])
            h2 = tr_a(alice[0] - alice[1])
            bob = [operator_sign(h1), operator_sign(h2)]
            new = float(np.trace(rho @ chsh_operator(alice, bob)).real)
            if new - val < 1e-12:
                val = new
                break
            val = new
        if val > best_val:
            best_val, best_obs = val, (alice, bob)
    return best_val, best_obs
