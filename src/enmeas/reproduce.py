"""The canonical reproduction checks behind `enmeas reproduce`.

Each check recomputes one headline quantity from scratch and compares it
against its closed-form reference value at a fixed tolerance. The
acceptance test suite drives exactly these implementations, so the CLI
table and the test results cannot drift apart.

A check is registered once, by `_check`, with its name, what it expects
and an optional wall-clock limit; its body returns only (passed, got). One
runner times every check, applies the limit and builds the `CheckResult`.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from . import bell, bessel, charact, distances, spectra, tau as tau_mod
from .linalg import eig_hermitian, operator_norm
from .povm import (
    Povm,
    PhysicalPovm,
    _normalized,
    degrade,
    effective_povm,
    joint_operators,
    projective_qubit,
    random_rank_one_povm,
)
from .tau import BatteryState, EnergyDensity


@dataclass
class CheckResult:
    name: str
    passed: bool
    got: object
    expected: str
    seconds: float
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "got": repr(self.got),
            "expected": self.expected,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

def sphere_povm_pair(n: int = 64):
    """Antipodal direction discretization of the uniform rank-one POVM vs noise.

    n/2 Fibonacci-sphere directions plus antipodes make the Bloch vectors
    cancel exactly, so {2/n |psi_i><psi_i|} is a genuine POVM.
    """
    if n % 2:
        raise ValueError("n must be even")
    half = n // 2
    k = np.arange(half) + 0.5
    phi_ang = np.arccos(1.0 - 2.0 * k / half)
    theta = np.pi * (1.0 + 5 ** 0.5) * k
    dirs = np.stack(
        [np.sin(phi_ang) * np.cos(theta), np.sin(phi_ang) * np.sin(theta), np.cos(phi_ang)],
        axis=1,
    )
    dirs = np.vstack([dirs, -dirs])
    elems = []
    for r in dirs:
        ct = math.sqrt(max(0.0, (1.0 + r[2]) / 2.0))
        st = math.sqrt(max(0.0, (1.0 - r[2]) / 2.0))
        ph = math.atan2(r[1], r[0])
        v = np.array([ct, st * np.exp(1j * ph)], dtype=complex)
        elems.append((2.0 / n) * np.outer(v, v.conj()))
    m0 = Povm(elements=elems, labels=[f"d{i}" for i in range(n)])
    m1 = Povm(elements=[np.eye(2, dtype=complex) / n] * n,
              labels=[f"d{i}" for i in range(n)])
    return m0, m1


def random_two_outcome(rng) -> Povm:
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = 0.5 * (h + h.conj().T)
    w, u = np.linalg.eigh(h)
    lo, hi = w[0], w[-1]
    e = (u * ((w - lo) / max(hi - lo, 1e-12))) @ u.conj().T  # spectrum in [0, 1]
    return Povm(elements=[e, np.eye(2) - e])


def random_physical_povm(rng, chains, n_out: int) -> PhysicalPovm:
    """Sector-complete random blocks via the normalized Gram construction."""
    blocks = [[] for _ in range(n_out)]
    for rows, _ in chains.sectors:
        r = len(rows)
        gs = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(n_out)]
        for bl, m in zip(blocks, _normalized([g @ g.conj().T + 1e-3 * np.eye(r) for g in gs])):
            bl.append(m)
    return PhysicalPovm(chains=chains, blocks=blocks)


def random_battery_state(rng, dim: int, levels=None) -> BatteryState:
    if rng.random() < 0.5:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        return BatteryState.pure(v, levels=levels)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return BatteryState.mixed(rho, levels=levels)


def random_diag_povm(rng, dim: int, n_out: int) -> Povm:
    table = rng.dirichlet(np.ones(n_out), size=dim)  # rows: level, cols: outcome
    return Povm(elements=[np.diag(table[:, x].astype(complex)) for x in range(n_out)])


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

_CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(name: str, expected: str, limit: float | None = None, detail: str = ""):
    """Register a check under name, in definition order.

    The check's body returns (passed, got). The registered runner times the
    body, fails it when it takes limit seconds or more, and builds the
    CheckResult. A body that raises fails its check, with "{type}: {message}"
    as got and the traceback as detail, so the checks after it still run.
    """
    def register(body):
        def run() -> CheckResult:
            t0 = time.perf_counter()
            try:
                passed, got = body()
            except Exception as exc:  # one broken check must not stop the others
                return CheckResult(name, False, f"{type(exc).__name__}: {exc}", expected,
                                   time.perf_counter() - t0, traceback.format_exc().strip())
            seconds = time.perf_counter() - t0
            passed = bool(passed) and (limit is None or seconds < limit)
            return CheckResult(name, passed, got, expected, seconds, detail)
        _CHECKS[name] = run
        return run
    return register


@_check("finite-spectrum-optimum",
        "tau(d)=cos(pi/(d+1)) and sin^2 populations to 1e-10, d<=200, <10s", limit=10.0)
def check_finite_spectrum_optimum():
    worst_eig = 0.0
    worst_pop = 0.0
    for d in range(2, 201):
        # the coupling matrix, 1/2 off the diagonal: its top eigenvalue
        top = float(eigvalsh_tridiagonal(np.zeros(d), np.full(d - 1, 0.5), select="i",
                                         select_range=(d - 1, d - 1))[0])
        worst_eig = max(worst_eig, abs(tau_mod.tau_finite(d) - top))
        pops = tau_mod.optimal_finite_state(d).populations()
        k = np.arange(d)
        ref = 2.0 / (d + 1) * np.sin((k + 1) * np.pi / (d + 1)) ** 2
        worst_pop = max(worst_pop, float(np.max(np.abs(pops - ref))))
    ok = worst_eig <= 1e-10 and worst_pop <= 1e-10
    return ok, {"max_eig_err": worst_eig, "max_pop_err": worst_pop}


@_check("phi-asymptotics",
        "(1-phi(z))*z^2 at z=1e2,1e3,1e4,1e5 nears 0.9468, within 0.01 from z=1e4 on",
        detail="z->inf limit 4c^3/27 = 0.946803 (c = 1.855757); at finite z "
               "1-phi = (4c^3/27)/(z+1)^2 + O((z+1)^(-8/3)), so the product "
               "is 0.9281 at z=100 and 0.94661 at z=1e4")
def check_phi_asymptotics():
    zs = (1e2, 1e3, 1e4, 1e5)
    got = [(1.0 - bessel.phi(z).phi) * z ** 2 for z in zs]
    dist = [abs(g - 0.9468) for g in got]
    ok = (all(b < a for a, b in zip(dist, dist[1:]))
          and all(d <= 0.01 for z, d in zip(zs, dist) if z >= 1e4))
    return ok, got


@_check("phi-monotone", "phi strictly increasing on 50 z-points in [0.5, 200], <30s",
        limit=30.0)
def check_phi_monotone():
    zs = np.linspace(0.5, 200.0, 50)
    vals = [bessel.phi(float(z)).phi for z in zs]
    diffs = np.diff(vals)
    return np.all(diffs > 0), {"min_step": float(diffs.min())}


@_check("power-state", "tau within 1e-6 of phi(10), energy within 1e-6*E, overlap > 1-1e-8")
def check_power_state():
    z = 10.0
    st = bessel.power_state(z, 1.0)
    chains = spectra.decompose_chains(st.levels, 1.0)
    t = tau_mod.tau_of_state(st, chains).tau
    r = bessel.phi(z)
    d = st.dim
    h = bessel.truncated_hamiltonian(d, r.lambda_star)
    ground = eig_hermitian(h).eigenvectors[:, 0]
    overlap = float(abs(np.vdot(ground, st.amplitudes)))
    en = st.mean_energy()
    ok = (abs(t - r.phi) <= 1e-6 and abs(en - z) <= 1e-6 * z and overlap > 1 - 1e-8)
    return ok, {"tau_minus_phi": t - r.phi, "energy_err": en - z, "overlap": overlap}


@_check("coherent-approx", "(1-tau_coherent)*8|alpha|^2 in [0.9, 1.1] at |alpha|^2=100")
def check_coherent_approx():
    got = (1.0 - tau_mod.tau_coherent(100.0)) * 8.0 * 100.0
    return 0.9 <= got <= 1.1, got


@_check("precision-doubling",
        "0.5*slope(power)/slope(coherent) of ln(1-tau) vs ln z within 25% of 1 "
        "at z=1e2,1e3,1e4; 0.5*log10(1-tau_power)/log10(1-tau_coherent) increasing",
        detail="the exponent doubles (-2 vs -1) while the prefactors 0.9468 and "
               "1/8 stay, so the halved log ratio only creeps towards 1, as "
               "about 1 - 0.89/(log10 z + 0.90): 0.69 at z=100")
def check_precision_doubling():
    zs = (1e2, 1e3, 1e4)
    h = 0.05  # half-width of the symmetric difference in ln z

    def slope(deficit, z):
        """d ln(1 - tau) / d ln z, the exponent of the power law in z."""
        return (math.log(deficit(z * math.exp(h)))
                - math.log(deficit(z * math.exp(-h)))) / (2.0 * h)

    def power(z):
        return 1.0 - bessel.phi(z).phi

    def coherent(z):
        return 1.0 - tau_mod.tau_coherent(z)

    slope_ratio = [0.5 * slope(power, z) / slope(coherent, z) for z in zs]
    log_ratio = [0.5 * math.log10(power(z)) / math.log10(coherent(z)) for z in zs]
    ok = (all(abs(r - 1.0) <= 0.25 for r in slope_ratio)
          and all(b > a for a, b in zip(log_ratio, log_ratio[1:])))
    return ok, {"slope_ratio": slope_ratio, "log_ratio": log_ratio}


@_check("chsh-value", "1 + 3*sqrt(2)/4 to 1e-12")
def check_chsh_value():
    got = bell.chsh_value(bell.reference_scenario())
    return abs(got - (1.0 + 0.75 * math.sqrt(2.0))) <= 1e-12, got


@_check("chsh-mixture-bound", "6/8*2 + 2/8*2sqrt(2) to 1e-12")
def check_chsh_mixture_bound():
    got = bell.chsh_mixture_bound()
    ref = 6.0 / 8.0 * 2.0 + 2.0 / 8.0 * 2.0 * math.sqrt(2.0)
    return abs(got - ref) <= 1e-12, got


@_check("chsh-seesaw-no-ancilla", "seesaw over 50 restarts stays <= 2 + 1e-6")
def check_chsh_seesaw_no_ancilla():
    # locally dephased |phi>_AB alone: diagonal two-qubit correlations
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 0.5  # |0>|1>
    rho[2, 2] = 0.5  # |1>|0>
    val, _ = bell.optimize_chsh_seesaw(rho, (2, 2), restarts=50, seed=11)
    return val <= 2.0 + 1e-6, val


@_check("membership-boundary",
        "member/non-member flip at cos(pi/(d+1)) +- 1e-6, d in {2,3,5,10}, <60s", limit=60.0)
def check_membership_boundary():
    # one threshold SDP per d; by convexity a member at t* - 1e-6 and a
    # non-member at t* + 1e-6 prove that the verdicts flip between them
    mx = projective_qubit("x")
    ok, flips = True, {}
    for d in (2, 3, 5, 10):
        t, _ = charact.critical_degradation(mx, d)
        below, above = (charact.membership_finite(degrade(mx, t + s), d) for s in (-1e-6, 1e-6))
        err = t - math.cos(math.pi / (d + 1))
        ok = ok and below.is_member and not above.is_member and abs(err) <= 1e-6
        flips[d] = {"t_star": t, "err": err, "slack_below": below.slack,
                    "slack_above": above.slack}
    return ok, {"worst_err": max(abs(f["err"]) for f in flips.values()), "flips": flips}


@_check("effective-povm-oracle", "joint-space statistics match to 1e-12 on 100 random instances")
def check_effective_povm_oracle():
    rng = np.random.default_rng(2024)
    basis = [np.array([[1, 0], [0, 0]], complex),
             np.array([[0, 0], [0, 1]], complex),
             np.array([[0.5, 0.5], [0.5, 0.5]], complex),
             np.array([[0.5, -0.5j], [0.5j, 0.5]], complex)]
    worst = 0.0
    for trial in range(100):
        db = int(rng.integers(2, 5))
        if trial % 2 == 0:
            levels = np.arange(db, dtype=float)
        else:
            levels = np.sort(rng.choice(np.arange(0, 3 * db) * 0.5, size=db, replace=False)
                             + rng.random() * 0.1)
        chains = spectra.decompose_chains(levels, 1.0)
        n_out = int(rng.integers(2, 4))
        phys = random_physical_povm(rng, chains, n_out)
        batt = random_battery_state(rng, db, levels=levels)
        eff = effective_povm(phys, batt)
        joint = joint_operators(phys)
        sig = batt.density()
        for rho in basis:
            lhs = eff.probabilities(rho)
            big = np.kron(rho, sig)
            rhs = np.array([float(np.trace(big @ op).real) for op in joint])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst <= 1e-12, worst


@_check("two-outcome-equality", "dist_Q = dist_C to 1e-6 on 20 random two-outcome pairs")
def check_two_outcome_equality():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        a, b = random_two_outcome(rng), random_two_outcome(rng)
        dc = distances.classical_distance(a, b).value
        dq = distances.quantum_distance(a, b).value
        worst = max(worst, abs(dc - dq))
    return worst <= 1e-6, worst


@_check("continuous-example", "64-outcome discretization: dist_C = 0.25 +- 0.01, dist_Q >= 0.45")
def check_continuous_example():
    m0, m1 = sphere_povm_pair(64)
    dc = distances.classical_distance(m0, m1).value
    dq = distances.quantum_distance(m0, m1).value
    return abs(dc - 0.25) <= 0.01 and dq >= 0.45, {"dist_c": dc, "dist_q": dq}


@_check("distance-inequalities", "triangle inequality and dist_Q >= dist_C on 50 random triples")
def check_distance_inequalities():
    rng = np.random.default_rng(12)
    tri_viol = -np.inf
    order_viol = -np.inf
    for _ in range(50):
        a = random_rank_one_povm(rng, 2, 3)
        b = random_rank_one_povm(rng, 2, 3)
        c = random_rank_one_povm(rng, 2, 3)
        dab = distances.classical_distance(a, b).value
        dbc = distances.classical_distance(b, c).value
        dac = distances.classical_distance(a, c).value
        tri_viol = max(tri_viol, dac - dab - dbc)
        qab = distances.quantum_distance(a, b).value
        qbc = distances.quantum_distance(b, c).value
        qac = distances.quantum_distance(a, c).value
        tri_viol = max(tri_viol, qac - qab - qbc)
        order_viol = max(order_viol, dab - qab, dbc - qbc, dac - qac)
    ok = tri_viol <= 1e-9 and order_viol <= 1e-7
    return ok, {"triangle_violation": tri_viol, "order_violation": order_viol}


@_check("inner-outer-convergence", "positive, nonincreasing gaps bounded by E/(Delta(d-1)) * |V|")
def check_inner_outer_convergence():
    z = 5.0
    plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
    v = [0.5 * plus, 0.5 * minus]  # equal-prior discrimination of the x eigenstates
    vnorm = sum(operator_norm(x) for x in v)
    gaps = []
    for d in (8, 16, 32, 64):
        upper, lower, _, gap = charact.optimize_energy(v, z, 1.0, d)
        gaps.append((d, gap))
    positive = all(g > 0 for _, g in gaps)
    nonincreasing = all(gaps[i + 1][1] <= gaps[i][1] + 1e-9 for i in range(len(gaps) - 1))
    bounded = all(g <= z / (d - 1) * vnorm for d, g in gaps)
    return positive and nonincreasing and bounded, {"gaps": gaps}


@_check("non-universality", "counterexample found with independently verified certificates")
def check_non_universality():
    sigma = tau_mod.optimal_finite_state(3)
    res = charact.universal_state_check(sigma, 3, trials=60, seed=3)
    if res is None:
        return False, None
    sectors = charact._ladder_sectors(3)
    member_ok = charact.verify_member_certificate(res["povm"], res["member_certificate"], sectors)
    farkas_ok = charact.verify_nonmember_certificate(res["povm"], res["fixed_certificate"],
                                                     sectors, q_fixed=res["q"])
    return member_ok and farkas_ok, {
        "trial": res["trial"], "fixed_margin": res["fixed_margin"],
        "member_verified": member_ok, "farkas_verified": farkas_ok}


@_check("non-resonance-triviality", "exactly the energy-diagonal POVMs accepted on 30 candidates")
def check_non_resonance_triviality():
    rng = np.random.default_rng(21)
    target = [0.0, 1.0, 2.0]
    battery = [0.0, math.sqrt(2.0), math.sqrt(5.0)]
    mistakes = 0
    for trial in range(30):
        diagonal = trial % 2 == 0
        if diagonal:
            cand = random_diag_povm(rng, 3, 3)
        else:
            cand = random_rank_one_povm(rng, 3, 3)
        v = charact.membership_multilevel(cand, target, battery)
        if v.is_member != diagonal:
            mistakes += 1
    return mistakes == 0, {"mistakes": mistakes}


@_check("near-resonance-continuity",
        "tau rises monotonically to |c0 c1| over three decades of eps")
def check_near_resonance_continuity():
    c = 1.0 / math.sqrt(2.0)
    clock = EnergyDensity.gaussian(50.0, 4e-4)  # width 0.02 against gap 1
    eps_grid = [2e-3, 2e-4, 2e-5]
    taus = [tau_mod.tau_near_resonant(c, c, e, clock, 1.0) for e in eps_grid]
    target = 0.5  # |c0 c1|
    monotone = all(taus[i] <= taus[i + 1] + 1e-9 for i in range(len(taus) - 1))
    converged = abs(taus[-1] - target) <= 1e-5
    below = all(t <= target + 1e-9 for t in taus)
    return monotone and converged and below, {"eps": eps_grid, "tau": taus}


CHECK_NAMES = list(_CHECKS)


def run_check(name: str) -> CheckResult:
    try:
        fn = _CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return fn()
