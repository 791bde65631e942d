"""Operational distances between POVMs.

The classical distance is the best bias for telling two POVMs apart from
their outcome statistics on one input state; the quantum distance allows an
entangled input and a follow-up measurement, and equals half the diamond
norm of the difference of the induced measure-and-prepare channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .linalg import as_hermitian
from .povm import Povm

ENUMERATION_LIMIT = 24  # 2^(n-1) eigenproblems beyond this is rejected


@dataclass(frozen=True)
class DistanceResult:
    value: float
    witness: dict
    method: str  # exact | sdp | lower_bound


def _matched_differences(m0: Povm, m1: Povm) -> list[np.ndarray]:
    """Element-wise differences with unmatched outcome labels zero-padded."""
    if m0.dim != m1.dim:
        raise ValueError("POVMs act on different dimensions")
    d = m0.dim
    e0 = dict(zip(map(str, m0.labels), m0.elements))
    e1 = dict(zip(map(str, m1.labels), m1.elements))
    labels = list(e0.keys()) + [l for l in e1.keys() if l not in e0]
    zero = np.zeros((d, d), dtype=complex)
    return [e0.get(l, zero) - e1.get(l, zero) for l in labels]


def _bloch_parts(diffs):
    t = np.array([float(np.trace(dd).real) for dd in diffs])
    v = np.array(
        [
            [2.0 * dd[0, 1].real, -2.0 * dd[0, 1].imag, (dd[0, 0] - dd[1, 1]).real]
            for dd in diffs
        ]
    )
    return t, v


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + 5 ** 0.5) * k
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
    )


def _qubit_sign_search(t, v, n_starts: int = 2048):
    """Maximize sum_x |t_x + v_x . r| over the Bloch sphere.

    Sign-pattern fixed-point iteration is monotone, so polishing a dense
    deterministic grid of starts finds the global optimum of this piecewise
    linear objective in practice.
    """
    grid = _fibonacci_sphere(n_starts)
    vals = np.abs(t[None, :] + grid @ v.T).sum(axis=1)
    order = np.argsort(vals)[::-1][:64]
    best_val, best_r = -np.inf, None
    for i in order:
        r = grid[i]
        for _ in range(200):
            s = np.sign(t + v @ r)
            s[s == 0] = 1.0
            vs = s @ v
            nrm = np.linalg.norm(vs)
            if nrm < 1e-15:
                break
            r_new = vs / nrm
            if np.allclose(r_new, r, atol=1e-15):
                r = r_new
                break
            r = r_new
        val = float(np.abs(t + v @ r).sum())
        if val > best_val:
            best_val, best_r = val, r
    return best_val, best_r


def _bloch_to_state(r) -> np.ndarray:
    sx = np.array([[0, 1], [1, 0]], complex)
    sy = np.array([[0, -1j], [1j, 0]], complex)
    sz = np.array([[1, 0], [0, -1]], complex)
    return 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)


def classical_distance(m0: Povm, m1: Povm) -> DistanceResult:
    """Best single-state distinguishing bias between two POVMs.

    Solved exactly by sign-vector enumeration, max_s lambda_max(sum_x s_x
    (M0_x - M1_x))/2 over 2^(n-1) sign vectors. Qubit pairs with more than
    24 matched outcomes fall back to a Bloch-sphere search (a certified
    lower bound that is tight in practice); higher dimensions are rejected
    beyond the enumeration guard.
    """
    diffs = _matched_differences(m0, m1)
    n = len(diffs)
    d = m0.dim
    if n > ENUMERATION_LIMIT:
        if d != 2:
            raise ValueError(
                f"{n} outcomes exceeds the exact enumeration guard ({ENUMERATION_LIMIT})"
            )
        t, v = _bloch_parts(diffs)
        val, r = _qubit_sign_search(t, v)
        rho = _bloch_to_state(r)
        return DistanceResult(value=0.25 * val, witness={"rho": rho}, method="lower_bound")

    if d == 2:
        t, v = _bloch_parts(diffs)
        best = (-np.inf, None)
        free = n - 1
        chunk = 1 << min(free, 18)
        total = 1 << free
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
            bits = ((idx[:, None] >> np.arange(free, dtype=np.uint64)[None, :]) & 1).astype(float)
            signs = np.hstack([np.ones((idx.size, 1)), 1.0 - 2.0 * bits])
            tt = signs @ t
            vv = signs @ v
            vals = np.abs(tt) + np.linalg.norm(vv, axis=1)
            j = int(np.argmax(vals))
            if vals[j] > best[0]:
                best = (float(vals[j]), signs[j].copy())
        val, s = best
        h = sum(si * dd for si, dd in zip(s, diffs))
        w, u = np.linalg.eigh(h)
        vec = u[:, -1] if w[-1] >= -w[0] else u[:, 0]
        return DistanceResult(
            value=0.25 * val,
            witness={"rho": np.outer(vec, vec.conj()), "signs": s},
            method="exact",
        )

    # general dimension: batched eigenvalue sweep over sign vectors
    free = n - 1
    total = 1 << free
    stack = np.stack(diffs)
    best_val, best_s = -np.inf, None
    chunk = 1 << min(free, 12)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(free, dtype=np.uint64)[None, :]) & 1).astype(float)
        signs = np.hstack([np.ones((idx.size, 1)), 1.0 - 2.0 * bits])
        hs = np.einsum("ks,sij->kij", signs, stack)
        w = np.linalg.eigvalsh(hs)
        vals = np.maximum(w[:, -1], -w[:, 0])
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_s = float(vals[j]), signs[j].copy()
    h = sum(si * dd for si, dd in zip(best_s, diffs))
    w, u = np.linalg.eigh(h)
    vec = u[:, -1] if w[-1] >= -w[0] else u[:, 0]
    return DistanceResult(
        value=0.5 * best_val,
        witness={"rho": np.outer(vec, vec.conj()), "signs": best_s},
        method="exact",
    )


def quantum_distance(m0: Povm, m1: Povm,
                     feas_tol: float = 1e-9, gap_tol: float = 1e-9) -> DistanceResult:
    """Half the diamond norm of the difference of measure-and-prepare channels.

    Uses the completely-bounded-norm semidefinite program specialized to a
    Hermitian, block-diagonal Choi operator: maximize sum_x <D_x, X_x> over
    Hermitian X_x with -rho <= X_x <= rho and tr(rho) = 1. The program is
    encoded with U_x = rho - X_x >= 0 and V_x = rho + X_x >= 0.
    """
    diffs = _matched_differences(m0, m1)
    d = m0.dim
    n = len(diffs)
    p = sdp.BlockSdp()
    rho = p.add_block(d, "rho")
    us = [p.add_block(d, f"U{x}") for x in range(n)]
    vs = [p.add_block(d, f"V{x}") for x in range(n)]
    for x in range(n):
        p.add_matrix_equality([(us[x], None, 1.0), (vs[x], None, 1.0), (rho, None, -2.0)],
                              np.zeros((d, d)))
    p.add_equality({rho: np.eye(d)}, 1.0)
    # objective sum_x <D_x^T, (V_x - U_x)/2>; transpose matches the Choi pairing
    obj = {}
    for x, dd in enumerate(diffs):
        dt = dd.T
        obj[vs[x]] = 0.5 * dt
        obj[us[x]] = -0.5 * dt
    p.set_objective(obj)
    sol = sdp.solve(p, feas_tol=feas_tol, gap_tol=gap_tol)
    if sol.status not in ("optimal", "feasible"):
        raise RuntimeError(
            f"diamond norm SDP did not converge: status {sol.status}, "
            f"bounds ({sol.objective}, {sol.dual_objective})"
        )
    xs = [0.5 * (sol.block(vs[x]) - sol.block(us[x])) for x in range(n)]
    return DistanceResult(
        value=0.5 * sol.objective,
        witness={"rho": sol.block(rho), "X": xs},
        method="sdp",
    )


def seesaw_lower_bound(m0: Povm, m1: Povm, restarts: int = 10,
                       iters: int = 200, seed: int = 0) -> DistanceResult:
    """Monotone alternating lower bound on the quantum distance.

    Alternates between the optimal input state (top eigenvector step) and
    the optimal guess observables (operator sign step) of
    (1/2) sum_x tr{rho (M0_x - M1_x) (x) S^x}.
    """
    diffs = _matched_differences(m0, m1)
    d = m0.dim
    n = len(diffs)
    rng = np.random.default_rng(seed)
    best_val, best = -np.inf, None

    def partial_d(rho_big, dd):
        # tr_D(rho (D (x) I)): result on the ancilla factor
        r4 = rho_big.reshape(d, d, d, d)
        return np.einsum("iajb,ji->ab", r4, dd)

    for trial in range(restarts):
        if trial == 0:
            vec = np.zeros(d * d, dtype=complex)
            vec[:: d + 1] = 1.0 / np.sqrt(d)  # maximally entangled start
        else:
            vec = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            vec /= np.linalg.norm(vec)
        rho_big = np.outer(vec, vec.conj())
        val = -np.inf
        for _ in range(iters):
            ss = []
            for dd in diffs:
                red = as_hermitian(partial_d(rho_big, dd), herm_tol=1e-8)
                w, u = np.linalg.eigh(red)
                ss.append((u * np.sign(w)) @ u.conj().T)
            h = sum(np.kron(dd, s) for dd, s in zip(diffs, ss))
            w, u = np.linalg.eigh(h)
            new_val = 0.5 * float(w[-1])
            vec = u[:, -1]
            rho_big = np.outer(vec, vec.conj())
            if new_val - val < 1e-13:
                val = new_val
                break
            val = new_val
        if val > best_val:
            best_val, best = val, (rho_big, ss)
    return DistanceResult(
        value=float(best_val),
        witness={"rho_dq": best[0], "guess_observables": best[1]},
        method="lower_bound",
    )


def set_distance_epsilon(tau: float) -> tuple[float, float]:
    """Worst-case classical and quantum set distances of a tau-quality device."""
    if not (0.0 <= tau <= 1.0 + 1e-12):
        raise ValueError("tau must lie in [0, 1]")
    eps = 0.5 * (1.0 - min(tau, 1.0))
    return eps, eps
