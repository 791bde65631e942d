"""Reference values computed without enmeas, and the checks that use them.

Each oracle is an independent route to a quantity the benchmark asks
enmeas for: closed forms, a dense tridiagonal eigenvalue solve of the
truncated ladder, or a direct numpy test of a property the method must
have. The check functions take the benchmark's inputs and enmeas'
outputs as plain numbers and arrays and return a list of failure
messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar
from scipy.special import ai_zeros

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def flip_point(d: int) -> float:
    """Largest degradation t at which degrade(x-measurement, t) is reachable
    with a d-level ladder battery: the best d-level tau, cos(pi/(d+1))."""
    return math.cos(math.pi / (d + 1))


def airy_limit() -> float:
    """lim (1 - phi(z)) (z+1)^2 = 4 c^3 / 27, c = |a_1| / 2^(1/3)."""
    c = -float(ai_zeros(1)[0][0]) / 2.0 ** (1.0 / 3.0)
    return 4.0 * c ** 3 / 27.0


def _ground(d: int, lam: float, vector: bool = False):
    """Lowest eigenpair of diag(0..d-1) - lam (hop + hop') on d levels."""
    diag = np.arange(d, dtype=float)
    off = np.full(d - 1, -lam)
    if vector:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
        return float(w[0]), v[:, 0]
    return float(eigh_tridiagonal(diag, off, eigvals_only=True,
                                  select="i", select_range=(0, 0))[0])


def tau_truncated(z: float, d: int) -> tuple[float, float]:
    """Best tau at mean energy z with a d-level battery, and its minimizer.

    tau_d(z) = min over lambda > 0 of (z - e0(lambda)) / (2 lambda), with
    e0 the lowest eigenvalue of the d-level ladder diag(k) - lambda (hop +
    hop'). As lambda grows the quotient falls to cos(pi/(d+1)); when the
    minimum sits at that end the energy cap does not bind and the d-level
    optimum cos(pi/(d+1)) is returned with lambda = inf.
    """
    def f(s: float) -> float:
        lam = math.exp(s)
        return (z - _ground(d, lam)) / (2.0 * lam)

    s_grid = np.linspace(math.log(1e-3), math.log(1e12), 31)
    vals = [f(s) for s in s_grid]
    i = int(np.argmin(vals))
    if i == len(s_grid) - 1:
        return flip_point(d), math.inf
    lo, hi = s_grid[max(i - 1, 0)], s_grid[i + 1]
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10, "maxiter": 500})
    best = min(float(res.fun), vals[i])
    return min(best, flip_point(d)), math.exp(float(res.x))


def phi_oracle(z: float, d0: int = 64, tail: float = 1e-12) -> float:
    """phi(z) as tau_d(z) on a ladder long enough not to bind.

    The level count doubles until the ground vector at the optimal lambda
    has fallen below ``tail`` at the cut, so the truncation moves 1 - tau
    by far less than the check's tolerance.
    """
    d = d0
    while True:
        val, lam = tau_truncated(z, d)
        if math.isfinite(lam):
            _, v = _ground(d, lam, vector=True)
            if abs(v[-1]) <= tail * np.max(np.abs(v)):
                return val
        d *= 2
        if d > 1 << 17:
            raise RuntimeError(f"ladder truncation did not converge at z = {z}")


def two_outcome_distance(m0_first: np.ndarray, m1_first: np.ndarray) -> float:
    """dist_C = dist_Q = ||M0_0 - M1_0||_inf for two-outcome POVMs."""
    return float(np.max(np.abs(np.linalg.eigvalsh(m0_first - m1_first))))


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def quantum_witness_errors(diffs, rho, xs, value: float, tol: float = 1e-7) -> list[str]:
    """Feasibility and attainment of a diamond-norm witness (rho, X_x).

    rho >= 0, tr rho = 1, rho +- X_x >= 0 for every outcome, and
    value = (1/2) sum_x Re tr(D_x^T X_x) with D_x = M0_x - M1_x.
    """
    errs = []
    if _min_eig(rho) < -tol:
        errs.append(f"rho not PSD: {_min_eig(rho):.3e}")
    if abs(np.trace(rho).real - 1.0) > tol:
        errs.append(f"tr rho = {np.trace(rho).real!r}")
    for x, xx in enumerate(xs):
        lo = min(_min_eig(rho - xx), _min_eig(rho + xx))
        if lo < -tol:
            errs.append(f"rho +- X_{x} not PSD: {lo:.3e}")
    got = 0.5 * sum(float(np.trace(dd.T @ xx).real) for dd, xx in zip(diffs, xs))
    if abs(got - value) > tol:
        errs.append(f"witness attains {got!r}, reported {value!r}")
    return errs


def classical_witness_errors(diffs, rho, value: float, tol: float = 1e-7) -> list[str]:
    """A state rho attaining value = (1/2) sum_x |tr(rho D_x)|."""
    errs = []
    if _min_eig(rho) < -tol:
        errs.append(f"rho not PSD: {_min_eig(rho):.3e}")
    if abs(np.trace(rho).real - 1.0) > tol:
        errs.append(f"tr rho = {np.trace(rho).real!r}")
    got = 0.5 * sum(abs(float(np.trace(rho @ dd).real)) for dd in diffs)
    if abs(got - value) > tol:
        errs.append(f"witness attains {got!r}, reported {value!r}")
    return errs


# ---------------------------------------------------------------------------
# Checks on one pass of each workload
# ---------------------------------------------------------------------------

FLIP_TOL = 1e-6


def membership_errors(verdicts, flips) -> list[str]:
    """verdicts: (d, t, is_member) per completed verdict; flips: {d: flip}.

    Every verdict outside +-1e-6 of cos(pi/(d+1)) agrees with t <= flip
    point, and each bisection ends within 1e-6 of it.
    """
    errs = []
    for d, t, member in verdicts:
        ref = flip_point(d)
        if abs(t - ref) > FLIP_TOL and member != (t <= ref):
            errs.append(f"d={d} t={t!r}: member={member}, expected {t <= ref}")
    for d, flip in flips.items():
        if abs(flip - flip_point(d)) > FLIP_TOL:
            errs.append(f"d={d}: flip {flip!r} is {flip - flip_point(d):+.3e} off")
    return errs


DIST_TOL = 1e-7


def distance_errors(records, triples, sphere) -> list[str]:
    """Checks of one diamond-distance pass.

    records: per pair, a dict with the matched differences ``diffs``, the
    values ``dc`` and ``dq``, the witnesses ``rho_c``, ``rho_q``, ``xs``,
    and ``two`` (the norm oracle) for two-outcome pairs.
    triples: (i_ab, i_bc, i_ac) record indices of each triple.
    sphere: record index of the 64-outcome pair.
    """
    errs = []
    for i, r in enumerate(records):
        tag = f"pair {i}"
        if r["dc"] > r["dq"] + DIST_TOL:
            errs.append(f"{tag}: dist_C {r['dc']!r} > dist_Q {r['dq']!r}")
        if r.get("two") is not None:
            for key in ("dc", "dq"):
                if abs(r[key] - r["two"]) > DIST_TOL:
                    errs.append(f"{tag}: {key} {r[key]!r} != norm oracle {r['two']!r}")
        errs += [f"{tag} quantum: {e}" for e in
                 quantum_witness_errors(r["diffs"], r["rho_q"], r["xs"], r["dq"])]
        errs += [f"{tag} classical: {e}" for e in
                 classical_witness_errors(r["diffs"], r["rho_c"], r["dc"])]
    for ab, bc, ac in triples:
        for key in ("dc", "dq"):
            a, b, c = records[ab][key], records[bc][key], records[ac][key]
            if max(c - a - b, a - b - c, b - a - c) > DIST_TOL:
                errs.append(f"triple {ab},{bc},{ac}: {key} breaks the triangle inequality")
    if sphere is not None:
        r = records[sphere]
        if abs(r["dc"] - 0.25) > 0.01 or r["dq"] < 0.45:
            errs.append(f"64-outcome pair: dist_C {r['dc']!r}, dist_Q {r['dq']!r}")
    return errs


PHI_REL_TOL = 1e-9
ASYMPTOTIC_FROM = 300.0
ASYMPTOTIC_TOL = 1e-4
STATE_TOL = 1e-6


def phi_curve_errors(zs, phis, oracle, coherent, state_tau, state_energy) -> list[str]:
    """Checks of one phi-curve pass; every argument is a list over the grid.

    phi strictly increases, 1 - phi matches the truncated-ladder oracle to
    1e-9 relative, (1 - phi)(z+1)^2 is within 1e-4 of 4c^3/27 from z = 300
    on, coherent states do worse than phi, and each power state attains
    phi within 1e-6 at mean energy z within 1e-6 z.
    """
    errs = []
    limit = airy_limit()
    for i, z in enumerate(zs):
        p, o = phis[i], oracle[i]
        if i and not p > phis[i - 1]:
            errs.append(f"z={z!r}: phi {p!r} does not exceed phi at the previous point")
        if abs((1.0 - p) - (1.0 - o)) > PHI_REL_TOL * (1.0 - o):
            errs.append(f"z={z!r}: 1-phi {1 - p!r} vs oracle {1 - o!r}")
        if z >= ASYMPTOTIC_FROM and abs((1.0 - p) * (z + 1.0) ** 2 - limit) > ASYMPTOTIC_TOL:
            errs.append(f"z={z!r}: (1-phi)(z+1)^2 = {(1 - p) * (z + 1) ** 2!r}")
        if not 1.0 - coherent[i] > 1.0 - p:
            errs.append(f"z={z!r}: coherent tau {coherent[i]!r} >= phi {p!r}")
        if abs(state_tau[i] - p) > STATE_TOL:
            errs.append(f"z={z!r}: power-state tau {state_tau[i]!r} vs phi {p!r}")
        if abs(state_energy[i] - z) > STATE_TOL * z:
            errs.append(f"z={z!r}: power-state energy {state_energy[i]!r}")
    return errs
