"""Operational distances between POVMs.

The classical distance is the best bias for telling two POVMs apart from
their outcome statistics on one input state; the quantum distance allows an
entangled input and a follow-up measurement, and equals half the diamond
norm of the difference of the induced measure-and-prepare channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import sdp
from .linalg import operator_sign
from .povm import Povm
from .tau import epsilon_from_tau

ENUMERATION_LIMIT = 24  # d > 2: 2^(n-1) eigenproblems beyond this is rejected
_TOL = 1e-10  # relative: zero and parallel generators, dependent subsets, lines
_CHUNK = 1024  # generator subsets per vectorized batch
_SDP_TOL = 1e-9  # solver tolerance of the diamond-norm program
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class DistanceResult:
    value: float
    witness: dict
    method: str  # exact (classical) | sdp (quantum) | lower_bound (seesaw)


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


def _enumerate_signs(diffs) -> np.ndarray:
    """The signs maximizing ||sum_x s_x D_x||, by a batched eigenvalue sweep.

    Runs over all 2^(n-1) sign vectors with s_0 = +1, in any dimension.
    """
    free = len(diffs) - 1
    total = 1 << free
    best_val, best_s = -np.inf, None
    chunk = 1 << min(free, 12)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        bits = ((idx[:, None] >> np.arange(free, dtype=np.uint64)[None, :]) & 1).astype(float)
        signs = np.hstack([np.ones((idx.size, 1)), 1.0 - 2.0 * bits])
        w = np.linalg.eigvalsh(np.einsum("ks,sij->kij", signs, diffs))
        vals = np.maximum(w[:, -1], -w[:, 0])
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_s = float(vals[j]), signs[j].copy()
    return best_s


def _zonotope_signs(g) -> np.ndarray:
    """The signs maximizing |s @ g[:, 0]| + ||s @ g[:, 1:]||, for any n.

    The value is a convex function of the point s @ g of the zonotope with
    generators g_x, so it peaks at a vertex. Zero generators keep s = +1,
    and parallel ones share one segment, their aligned sum, so that each
    hyperplane of the arrangement below is met once.
    """
    s = np.ones(len(g))
    norms = np.linalg.norm(g, axis=1)
    live = np.flatnonzero(norms > _TOL * norms.max(initial=0.0))
    if live.size == 0:
        return s
    u = g[live] / norms[live, None]
    gap = np.minimum(np.linalg.norm(u[:, None] - u[None], axis=2),
                     np.linalg.norm(u[:, None] + u[None], axis=2))
    heads = np.flatnonzero(~np.tril(gap <= _TOL, -1).any(axis=1))
    group = np.argmin(gap[:, heads], axis=1)  # each head its own group
    orient = np.sign(np.einsum("ij,ij->i", u, u[heads[group]]))
    merged = np.zeros((heads.size, g.shape[1]))
    np.add.at(merged, group, orient[:, None] * g[live])
    s[live] = orient * _vertex_max(merged, np.zeros(g.shape[1]))[1][group]
    return s


def _vertex_max(g, offset) -> tuple[float, np.ndarray]:
    """Max of |p_0| + ||p_1:|| over the vertices p = offset + s @ g.

    A vertex is the sign pattern of a region of the central arrangement
    {c : c.g_x = 0} in the span of the generators, of rank r. Every region
    has an extreme ray, on a line orthogonal to r - 1 independent
    generators; the regions round a line on which only those vanish differ
    on them alone, so the two rays give 2^r patterns. A line on which more
    generators vanish recurses on those, the others fixed by the line.
    """
    _, sv, vt = np.linalg.svd(g, full_matrices=False)
    r = int(np.sum(sv > _TOL * sv[0]))
    h = g @ vt[:r].T
    h /= np.linalg.norm(h, axis=1)[:, None]
    patterns = 1.0 - 2.0 * ((np.arange(1 << (r - 1))[:, None] >> np.arange(r - 1)) & 1)
    subsets = list(combinations(range(len(g)), r - 1))
    subsets = np.array(subsets, dtype=int).reshape(len(subsets), r - 1)
    best_val, best_s, seen = -np.inf, None, set()
    for start in range(0, len(subsets), _CHUNK):
        sub = subsets[start:start + _CHUNK]
        a = h[sub]
        c = np.stack([(-1) ** j * np.linalg.det(np.delete(a, j, axis=2))
                      for j in range(r)], axis=1)
        norm_c = np.linalg.norm(c, axis=1)
        keep = norm_c > _TOL  # the subset is independent
        sub, c = sub[keep], c[keep] / norm_c[keep, None]
        dots = c @ h.T
        on = np.abs(dots) <= _TOL
        on[np.arange(len(sub))[:, None], sub] = True
        fixed = np.where(on, 0.0, np.sign(dots))
        plain = on.sum(axis=1) == r - 1
        fp, sp = fixed[plain], sub[plain]
        base = fp @ g
        points = offset + np.stack([base, -base])[:, :, None] + np.einsum(
            "pj,kjd->kpd", patterns, g[sp])
        vals = np.abs(points[..., 0]) + np.linalg.norm(points[..., 1:], axis=-1)
        if vals.size and vals.max() > best_val:
            ray, k, p = np.unravel_index(np.argmax(vals), vals.shape)
            best_val, best_s = float(vals[ray, k, p]), (1.0 - 2.0 * ray) * fp[k]
            best_s[sp[k]] = patterns[p]
        for i in np.flatnonzero(~plain):
            on_line = np.flatnonzero(on[i])
            if tuple(on_line) in seen:
                continue
            seen.add(tuple(on_line))
            for ray in (1.0, -1.0):
                val, s = _vertex_max(g[on_line], offset + ray * fixed[i] @ g)
                if val > best_val:
                    best_val, best_s = val, ray * fixed[i]
                    best_s[on_line] = s
    return best_val, best_s


def classical_distance(m0: Povm, m1: Povm) -> DistanceResult:
    """Best single-state distinguishing bias between two POVMs.

    Half the largest |eigenvalue| of sum_x s_x (M0_x - M1_x), maximized
    over the sign vectors s. Qubit pairs take the zonotope vertices, in
    polynomial time for any outcome count; higher dimensions enumerate all
    2^(n-1) sign vectors and reject more than ENUMERATION_LIMIT outcomes.
    """
    diffs = np.stack(_matched_differences(m0, m1))
    if m0.dim == 2:
        # D_x = (t_x + v_x . sigma) / 2 gives the generator (t_x, v_x) = tr(P D_x)
        s = _zonotope_signs(np.einsum("kij,xji->xk", _PAULI, diffs).real)
    elif len(diffs) > ENUMERATION_LIMIT:
        raise ValueError(
            f"{len(diffs)} outcomes exceeds the exact enumeration guard ({ENUMERATION_LIMIT})"
        )
    else:
        s = _enumerate_signs(diffs)
    w, u = np.linalg.eigh(np.einsum("x,xij->ij", s, diffs))
    vec = u[:, -1] if w[-1] >= -w[0] else u[:, 0]
    return DistanceResult(
        value=0.5 * float(max(w[-1], -w[0])),
        witness={"rho": np.outer(vec, vec.conj()), "signs": s},
        method="exact",
    )


@lru_cache(maxsize=16)
def _diamond_shape(d: int, n: int) -> tuple[sdp.BlockSdp, int, tuple[int, ...], tuple[int, ...]]:
    """The compiled rows of the n-outcome diamond-norm program on d x d
    blocks, with no objective, and its rho, U_x and V_x block indices; every
    pair of this shape shares them and sets only its objective."""
    p = sdp.BlockSdp()
    rho = p.add_block(d, "rho")
    us = tuple(p.add_block(d, f"U{x}") for x in range(n))
    vs = tuple(p.add_block(d, f"V{x}") for x in range(n))
    for x in range(n):
        p.add_matrix_equality([(us[x], None, 1.0), (vs[x], None, 1.0), (rho, None, -2.0)],
                              np.zeros((d, d)))
    p.add_equality({rho: np.eye(d)}, 1.0)
    p.compile()  # with_rhs copies share it
    return p, rho, us, vs


def quantum_distance(m0: Povm, m1: Povm) -> DistanceResult:
    """Half the diamond norm of the difference of measure-and-prepare channels.

    Uses the completely-bounded-norm semidefinite program specialized to a
    Hermitian, block-diagonal Choi operator: maximize sum_x <D_x, X_x> over
    Hermitian X_x with -rho <= X_x <= rho and tr(rho) = 1, encoded with
    U_x = rho - X_x >= 0 and V_x = rho + X_x >= 0. The witness's "bounds"
    are half the solution's bracket(), which raises when it is not closed.
    """
    diffs = _matched_differences(m0, m1)
    shape, rho, us, vs = _diamond_shape(m0.dim, len(diffs))
    # objective sum_x <D_x^T, (V_x - U_x)/2>; transpose matches the Choi pairing
    obj = {}
    for x, dd in enumerate(diffs):
        dt = dd.T
        obj[vs[x]] = 0.5 * dt
        obj[us[x]] = -0.5 * dt
    sol = sdp.solve(shape.with_rhs([rhs for _, rhs in shape.equalities], obj), tol=_SDP_TOL)
    lower, upper = sol.bracket()
    xs = [0.5 * (sol.x[v] - sol.x[u]) for u, v in zip(us, vs)]
    return DistanceResult(
        value=0.5 * sol.objective,
        witness={"rho": sol.x[rho], "X": xs, "bounds": (0.5 * lower, 0.5 * upper)},
        method="sdp",
    )


def seesaw_lower_bound(m0: Povm, m1: Povm, restarts: int = 10, seed: int = 0) -> DistanceResult:
    """Monotone alternating lower bound on the quantum distance.

    Alternates between the optimal input state (top eigenvector step) and
    the optimal guess observables (operator sign step) of
    (1/2) sum_x tr{rho (M0_x - M1_x) (x) S^x}.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
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
        for _ in range(200):
            ss = [operator_sign(partial_d(rho_big, dd)) for dd in diffs]
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
    """Worst-case classical and quantum set distances of a tau-quality device:
    both are epsilon_from_tau(tau) = (1 - tau)/2."""
    eps = epsilon_from_tau(tau)
    return eps, eps
