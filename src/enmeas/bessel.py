"""First zeros of real-order Bessel J, the quality function phi, power states.

The best tau reachable at mean battery energy z*Delta is

    phi(z) = min_{lambda > 0} (z + mu(lambda)) / (2 lambda),

where mu(lambda) solves the transcendental equation  j_{mu-1,1} = 2 lambda
(j_{nu,1} = first positive zero of J_nu).  The minimand is stationary
where the ground state's mean energy lambda dmu/dlambda - mu equals z, and
that energy strictly increases in mu, so the minimizer is the one root of
this energy condition, which Brent's root finder on a bracket pins; the
same search on j_{mu-1,1} = 2 lambda gives mu(lambda) and E(lambda).
Large orders take the series j_{nu,1} = nu + C1 nu^(1/3) + ..., so phi is
defined for every z > 0, and its search keeps 1 - phi to full relative
precision; smaller orders find the zero by a safeguarded Halley iteration
started from that series or from a unit-step bracket.  Orders within 1e-3
of -1, where small z puts the minimizer, take the zero from the power
series of J_{mu-1} in mu itself, so phi keeps its digits down to z = 1e-300.
The optimizing battery states ("power states") are the ground vector of the
associated tridiagonal operator H_lambda = diag(k) - lambda * (hop + hop'),
found on a window past its turning point by inverse iteration at its bottom
eigenvalue, which phi's minimizer fixes in advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq
from scipy.special import ai_zeros, jv

from .tau import BatteryState

# j_{nu,1} = nu + nu^(1/3) sum_i c_i nu^(-2i/3), i = 0..4, for large nu (DLMF
# 10.21.40), with the coefficients written through c_0 = C1 = |a_1| / 2^(1/3),
# a_1 the first zero of Ai
AIRY_C1 = -float(ai_zeros(1)[0][0]) / 2.0 ** (1.0 / 3.0)
_SERIES_C = (
    AIRY_C1,
    0.3 * AIRY_C1 ** 2,
    (5.0 - AIRY_C1 ** 3) / 350.0,
    -(479.0 * AIRY_C1 ** 4 + 20.0 * AIRY_C1) / 63000.0,
    (20231.0 * AIRY_C1 ** 5 - 27506.0 * AIRY_C1 ** 2) / 8085000.0,
)
# from this order on the first omitted term (~5e-4 nu^-3) is below 1e-12
_SERIES_MIN_ORDER = 1000.0
# below this mu the order mu - 1 loses mu's digits: _curve_point's power series
_SMALL_MU = 1e-3
# power states end where a population falls below this share of those before it
TAIL_TOL = 1e-14


class BesselRangeError(ValueError):
    """Argument outside the supported evaluation range."""


def _jv_checked(nu, x):
    """jv(nu, x) in one call: a float, or a list of floats for array
    arguments; BesselRangeError when a value is not finite."""
    val = jv(nu, x).tolist()
    if not all(map(math.isfinite, val if isinstance(val, list) else (val,))):
        raise BesselRangeError(f"J_{nu}({x}) did not evaluate to a finite value")
    return val


def _series_excess(nu: float) -> tuple[float, float]:
    """j_{nu,1} - nu and its derivative in nu from the large-order series,
    as t times a polynomial in s = nu^(-2/3), t = nu^(1/3)."""
    t = nu ** (1.0 / 3.0)
    s = 1.0 / (t * t)
    c0, c1, c2, c3, c4 = _SERIES_C
    excess = t * (c0 + s * (c1 + s * (c2 + s * (c3 + s * c4))))
    slope = s / 3.0 * (c0 - s * (c1 + s * (3.0 * c2 + s * (5.0 * c3 + s * 7.0 * c4))))
    return excess, slope


def _zero(nu: float) -> tuple[float, float]:
    """j_{nu,1}, the first positive zero of J_nu for any order nu > -1, and
    j_{nu,1} - nu, the latter free of cancellation at large orders.

    Orders from 1000 on take the large-order series, exact there to double
    precision.  Below that a safeguarded Halley iteration runs inside a
    bracket [lo, hi] with J_nu(lo) > 0 >= J_nu(hi).  Orders above 5 take the
    Airy-zone bracket [nu + 1.2 nu^(1/3), nu + 2.4 nu^(1/3) + 2 nu^(-1/3)]
    and start from the series.  Smaller orders expand rightward from a
    certified positive start (j_{nu,1} exceeds sqrt((nu+1)(nu+3)) for every
    nu > -1) in unit steps until the sign flips, which cannot skip a zero
    because consecutive zeros are separated by more than 3 in this regime,
    and takes at most nine steps since j_{5,1} < 9; they start from the
    midpoint.  Each step evaluates J_nu and J_{nu+1} in one call, takes
    J' = (nu/x) J_nu - J_{nu+1} from the recurrence and J'' from Bessel's
    equation, and moves the bracket end of J's sign to the iterate; a step
    that would leave the bracket bisects it instead.  Halley's step is
    cubically convergent, so once it is below 1e-6 relative the zero is
    exact to rounding.
    """
    if nu <= -1:
        raise ValueError("nu must exceed -1")
    if nu >= _SERIES_MIN_ORDER:
        r = _series_excess(nu)[0]
        return nu + r, r
    if nu > 5.0:
        t = nu ** (1.0 / 3.0)
        lo, hi = nu + 1.2 * t, nu + 2.4 * t + 2.0 / t
        f_lo, f_hi = _jv_checked(nu, np.array([lo, hi]))
        x = nu + _series_excess(nu)[0]
    else:
        lo = 0.95 * math.sqrt((nu + 1.0) * (nu + 3.0))
        if nu > 1.0:
            lo = max(lo, nu + nu ** (1.0 / 3.0))
        f_lo = _jv_checked(nu, lo)
        for _ in range(10):
            hi, f_hi = lo + 1.0, _jv_checked(nu, lo + 1.0)
            if f_hi <= 0.0:
                break
            lo, f_lo = hi, f_hi
        x = 0.5 * (lo + hi)
    if not f_lo > 0.0 >= f_hi:
        raise BesselRangeError(f"failed to bracket the first zero of J_{nu} in [{lo}, {hi}]")
    orders = np.array([nu, nu + 1.0])
    for _ in range(100):
        j0, j1 = _jv_checked(orders, x)
        if j0 > 0.0:
            lo = x
        elif j0 < 0.0:
            hi = x
        else:
            return x, x - nu
        d1 = nu / x * j0 - j1
        d2 = -d1 / x - (1.0 - (nu / x) ** 2) * j0
        newton = j0 / d1
        step = newton / (1.0 - 0.5 * newton * d2 / d1)
        x_new = x - step
        if abs(step) <= 1e-6 * x and lo <= x_new <= hi:
            return x_new, x_new - nu
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    raise BesselRangeError(f"no convergence to the first zero of J_{nu} in [{lo}, {hi}]")


def first_zero(nu: float) -> float:
    """First positive zero j_{nu,1} of J_nu, nu >= 0, to ~1e-12."""
    if not 0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    return _zero(nu)[0]


def _curve_point(mu: float) -> tuple[float, float, float]:
    """(E, j, r) at mu on the curve j = j_{mu-1,1} = 2 lambda: the ground
    state's mean energy E = lambda dmu/dlambda - mu = j/(dj/dmu) - mu, j,
    and r = j - (mu - 1).

    From mu = 1e-3 on, with nu = mu - 1 and r' = dr/dnu, E is
    (r - 1 - mu r') / (1 + r'), which keeps its digits when j and mu are
    both huge. Large orders differentiate the series; smaller ones
    differentiate J_nu(j) = 0 implicitly, dj/dnu = dJ_nu/dnu / J_{nu+1} at
    the zero (since dJ_nu/dx = -J_{nu+1} there), with dJ_nu/dnu the
    five-point difference in the order (relative error ~1e-10).

    Below mu = 1e-3 the order mu - 1 would round away mu's digits, so j is
    2 sqrt(y), y the first zero of F(y, mu) = mu 0F1(; mu; -y) = sum_k t_k,
    t_0 = mu, t_k = -t_{k-1} y / (k (mu + k - 1)), a zero of J_{mu-1}(2 sqrt(y))
    near y = mu, where Newton's method starts and the series has converged
    to rounding by its eighth term. Then dj/dmu = -F_mu / (sqrt(y) F_y).
    """
    if mu >= _SMALL_MU:
        nu, h = mu - 1.0, 1e-3
        j, r = _zero(nu)
        if nu >= _SERIES_MIN_ORDER:
            dr = _series_excess(nu)[1]
        else:
            jp, jm, jp2, jm2, j1 = _jv_checked(nu + np.array([h, -h, 2.0 * h, -2.0 * h, 1.0]), j)
            dr = (8.0 * (jp - jm) - (jp2 - jm2)) / (12.0 * h * j1) - 1.0
        return (r - 1.0 - mu * dr) / (1.0 + dr), j, r
    y = mu
    for _ in range(8):
        # f = F, s = y F_y = sum_k k t_k and f_mu = F_mu, where t_1 = -y and
        # dt_k/dmu = -h t_k, h = sum_{0<i<k} 1/(mu + i)
        f, s, f_mu, t, h = mu - y, -y, 1.0, -y, 0.0
        for k in range(2, 9):
            h += 1.0 / (mu + (k - 1))
            t *= -y / (k * (mu + (k - 1)))
            f, s, f_mu = f + t, s + k * t, f_mu - h * t
        step = f / (s / y)
        y -= step
        if abs(step) <= 1e-15 * y:
            break
    j = 2.0 * math.sqrt(y)
    return -2.0 * s / f_mu - mu, j, j - (mu - 1.0)


def _on_curve(k: int, value: float, lo: float, hi: float,
              xtol: float) -> tuple[float, tuple[float, float, float]]:
    """(mu, (E, j, r)) at the point of the curve where entry k of
    _curve_point, E (k = 0) or j (k = 1), equals value; both strictly
    increase in mu, so the point is unique. Brent's root finder runs in
    t = log mu on [lo, hi], an end first moved outward, by steps growing
    eightfold, while the root lies past it. Each point is computed once a
    call."""
    cache: dict[float, tuple[float, float, float]] = {}

    def point(t: float) -> tuple[float, float, float]:  # log mu -> (E, j, r)
        if t not in cache:
            cache[t] = _curve_point(math.exp(t))
        return cache[t]

    step = 1e-2
    while point(lo)[k] > value:
        lo, hi, step = lo - step, lo, 8.0 * step
    while point(hi)[k] < value:
        lo, hi, step = hi, hi + step, 8.0 * step
    t_star = brentq(lambda t: point(t)[k] - value, lo, hi, xtol=xtol)
    return math.exp(t_star), point(t_star)


def _lambda_point(lam: float) -> tuple[float, tuple[float, float, float]]:
    """_on_curve's point at j = 2 lambda, log mu to 1e-15. Since j ~ 2 sqrt(mu)
    for small mu and mu < j for every mu, the bracket starts at lambda^2 and
    2 lambda."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    return _on_curve(1, 2.0 * lam, *sorted((2.0 * math.log(lam), math.log(2.0 * lam))), 1e-15)


def mu_of_lambda(lam: float) -> float:
    """Solve j_{mu-1,1} = 2*lambda for mu > 0, for every lambda > 0.

    j_{nu,1} grows strictly with the order and sweeps (0, inf) as nu runs
    over (-1, inf), so the solution exists and is unique.
    """
    return _lambda_point(lam)[0]


def energy_of_lambda(lam: float) -> float:
    """Mean energy E(lambda) = lambda * dmu/dlambda - mu(lambda) of the
    bottom eigenvector of H_lambda, _curve_point's E at mu(lambda)."""
    return _lambda_point(lam)[1][0]


def _quality(z: float, mu: float, j: float, r: float) -> tuple[float, float]:
    """(phi, 1 - phi) of the minimand (z + mu)/j at mu, given _curve_point's
    j and r. From mu = 1e-3 on the deficit (r - z - 1)/j comes first and
    keeps its digits where phi rounds to 1; below it phi itself does."""
    if mu < _SMALL_MU:
        value = (z + mu) / j
        return value, 1.0 - value
    deficit = (r - z - 1.0) / j
    return 1.0 - deficit, deficit


@dataclass(frozen=True)
class PhiResult:
    z: float
    phi: float
    lambda_star: float
    mu_star: float
    energy_check: float  # lambda*dmu/dlambda - mu at the minimizer; z to the search's tolerance
    deficit: float  # 1 - phi, to full relative precision where phi rounds to 1


def phi(z: float) -> PhiResult:
    """Best tau at mean energy z (in units of the gap), with its minimizer.

    The search runs over mu, with 2 lambda = j_{mu-1,1} =: j, and the
    deficit is 1 - (z + mu)/j = (r - z - 1)/j, where r = j - (mu - 1) comes
    straight from the large-order series when the order is large.  The
    deficit then keeps full relative precision even where it falls to
    1e-12, so the optimum is as sharp at z = 1e6 as at z = 1.  Below
    mu = 1e-3 phi = (z + mu)/j itself keeps its digits (_quality).  The minimand
    is stationary exactly where the ground state's mean energy
    E(mu) = lambda dmu/dlambda - mu equals z, and E strictly increases in
    mu, so the minimizer is the one root of E(mu) = z.  Brent's root finder
    in log mu (tolerance 1e-8, _on_curve) finds it in [z, mu_asym], the
    small-z and large-z scales, an end moved outward when rounding in E
    puts the root just past it.  energy_check is E at that root.
    """
    return _phi(z)[0]


def _phi(z: float) -> tuple[PhiResult, float]:
    """phi(z) and r = j - (mu* - 1); the search keeps each zero it solves,
    so the minimizer's zero is solved once."""
    if not 0 < z < math.inf:
        raise ValueError(f"z must be positive and finite, got {z}")
    # E(mu) ~ mu for small mu and ~ (2/3) C1 mu^(1/3) - 1 for large mu, so
    # the root lies in [z, mu_asym] up to rounding in E
    mu_asym = 27.0 * (z + 1.0) ** 3 / (8.0 * AIRY_C1 ** 3)
    mu, (energy, j, r) = _on_curve(0, z, math.log(z), math.log(mu_asym), 1e-8)
    value, deficit = _quality(z, mu, j, r)
    return PhiResult(
        z=float(z),
        phi=float(value),
        lambda_star=float(0.5 * j),
        mu_star=float(mu),
        energy_check=float(energy),
        deficit=float(deficit),
    ), r


def truncated_hamiltonian(d: int, lam: float) -> np.ndarray:
    """d-dimensional truncation of H_lambda = diag(k) - lambda*(hop + hop')."""
    h = np.diag(np.arange(d, dtype=float))
    off = -lam * np.ones(d - 1)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


def power_state(ebar: float, delta: float) -> BatteryState:
    """Bounded-mean-energy battery state achieving tau = phi(ebar/delta).

    The amplitudes are the ground vector of the tridiagonal
    T = tridiag(-1, 2 + (k + 1 - r)/lambda*, -1), which is H_lambda*/lambda*
    shifted so that its bottom eigenvalue is 0; r = j - (mu* - 1), from
    phi's search, carries mu* - 2 lambda* = 1 - r with all its digits. The
    window runs 20 lambda*^(1/3) + 60 levels past the turning point r - 1, where the
    Airy-like tail has long fallen below tolerance, and the state is cut at
    the first level past the turning point whose population is below
    TAIL_TOL of the population up to it. The ground vector is two steps of
    inverse iteration at that eigenvalue 0 from the all-ones vector, each one
    LAPACK tridiagonal solve (gtsv). The next eigenvalue lies about
    1.75 lambda*^(-2/3) above 0 (the spacing of the first two Airy zeros)
    and the bottom one within rounding of 0, so each step shrinks every
    other component by their ratio, about 4e-11 at z = 1000. A failed solve
    raises BesselRangeError.
    """
    if not (0 < ebar < math.inf and 0 < delta < math.inf):
        raise ValueError(f"ebar and delta must be positive and finite: {ebar}, {delta}")
    res, r = _phi(ebar / delta)
    lam = res.lambda_star
    turn = max(r - 1.0, 0.0)
    k = np.arange(int(turn + 20.0 * lam ** (1.0 / 3.0) + 60.0), dtype=float)
    diag, off = 2.0 + (k + 1.0 - r) / lam, -np.ones(k.size - 1)
    vec = np.ones((k.size, 1))
    for _ in range(2):  # inverse iteration at the known eigenvalue 0
        *_, vec, info = dgtsv(off, diag, off, vec / np.linalg.norm(vec))
        if info:
            raise BesselRangeError(f"tridiagonal solve failed (info={info}) at z={ebar / delta}")
    amps = np.abs(vec[:, 0])
    pop = amps ** 2
    small = (pop < TAIL_TOL * np.cumsum(pop)) & (k > turn)
    cut = int(np.argmax(small)) + 1 if small.any() else k.size
    amps = amps[:cut] / np.linalg.norm(amps[:cut])
    return BatteryState.pure(amps.astype(complex), levels=k[:cut] * delta)
