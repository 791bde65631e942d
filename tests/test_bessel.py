import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import ai_zeros, jn_zeros, jv

from enmeas import bessel
from enmeas.bessel import (
    BesselRangeError,
    energy_of_lambda,
    first_zero,
    mu_of_lambda,
    phi,
    power_state,
    truncated_hamiltonian,
)
from enmeas.linalg import eig_hermitian
from enmeas.spectra import decompose_chains
from enmeas.tau import tau_coherent, tau_of_state


def series_j(nu, x, terms=80):
    """Ascending power series of J_nu, used only as a test oracle."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (x / 2.0) ** (nu + 2 * k) / (
            math.gamma(k + 1) * math.gamma(nu + k + 1)
        )
    return total


def bisect_series_zero(nu, lo, hi, iters=200):
    flo = series_j(nu, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = series_j(nu, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


class TestFirstZero:
    def test_j01_against_series_bisection(self):
        oracle = bisect_series_zero(0.0, 2.0, 3.0)
        assert first_zero(0.0) == pytest.approx(oracle, abs=1e-10)
        assert first_zero(0.0) == pytest.approx(2.404825557695773, abs=1e-10)

    def test_integer_orders_against_library_tables(self):
        for n in range(6):
            assert first_zero(float(n)) == pytest.approx(jn_zeros(n, 1)[0], abs=1e-10)

    def test_large_order_asymptotic(self):
        nu = 1000.0
        scaled = (first_zero(nu) - nu) / nu ** (1.0 / 3.0)
        assert 1.8 <= scaled <= 1.92

    def test_interlacing_in_order(self):
        grid = np.linspace(0.0, 50.0, 26)
        zeros = [first_zero(float(nu)) for nu in grid]
        assert all(b > a for a, b in zip(zeros, zeros[1:]))

    def test_large_order_series_brackets_a_sign_change(self):
        # the series branch never evaluates J, so J itself must change sign
        # across a 1e-12 relative neighbourhood of the returned zero
        for nu in (1e4, 1e6, 1e8):
            j = first_zero(nu)
            assert jv(nu, j * (1 - 1e-12)) > 0 > jv(nu, j * (1 + 1e-12))

    def test_series_continues_the_root_finder(self):
        # the two branches meet at order 1000 to within the root finder's accuracy
        from enmeas.bessel import _SERIES_MIN_ORDER

        below = first_zero(np.nextafter(_SERIES_MIN_ORDER, 0.0))
        assert first_zero(_SERIES_MIN_ORDER) == pytest.approx(below, abs=1e-11)

    def test_every_evaluation_lies_inside_the_bracket(self, monkeypatch):
        # each point where J_nu is evaluated lies strictly between the last
        # positive and the first non-positive value seen before it: a Halley
        # step that would leave the bracket bisects it instead (near order
        # -1 the steps from the midpoint overshoot towards 0)
        jv = bessel.jv
        for nu in (-1.0 + 1e-9, -1.0 + 1e-6, -0.5, 3.0, 5.001, 200.0, 999.0):
            seen = []

            def recording(order, x):
                val = jv(order, x)
                if np.size(order) == 2:  # a Halley step: J_nu and J_{nu+1} at x
                    seen.append((x, val[0]))
                else:
                    seen.extend(zip(np.atleast_1d(x), np.atleast_1d(val)))
                return val

            monkeypatch.setattr(bessel, "jv", recording)
            bessel._zero(nu)
            lo, hi = 0.0, math.inf
            for x, val in seen:
                assert lo < x < hi
                lo, hi = (x, hi) if val > 0 else (lo, x)

    @pytest.mark.parametrize("size", [2, 5])
    def test_non_finite_values_raise(self, monkeypatch, size):
        # every jv call is checked: a Halley step (two orders) and the
        # five-order difference of _curve_point's slope, whose nan used to
        # reach energy_check
        jv = bessel.jv
        monkeypatch.setattr(bessel, "jv", lambda nu, x: jv(nu, x) * (
            np.nan if np.size(nu) == size else 1.0))
        for nu in (0.5, 50.0):
            with pytest.raises(BesselRangeError):
                bessel._curve_point(nu + 1.0)


class TestMuOfLambda:
    def test_inversion_at_j01(self):
        lam = first_zero(0.0) / 2.0
        assert mu_of_lambda(lam) == pytest.approx(1.0, abs=1e-10)

    def test_large_lambda_asymptotic(self):
        lam = 500.0
        approx = 2 * lam - 2 ** (1.0 / 3.0) * 1.8557571 * lam ** (1.0 / 3.0)
        got = mu_of_lambda(lam)
        assert abs(got - approx) / got < 0.01

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        # mu >= 1 (so the public first_zero applies) needs lambda >= j_{0,1}/2
        for lam in rng.uniform(1.3, 50.0, size=8):
            mu = mu_of_lambda(float(lam))
            assert first_zero(mu - 1.0) == pytest.approx(2 * lam, abs=1e-9)

    def test_roundtrip_small_lambda(self):
        for lam in (0.05, 0.3, 1.0):
            mu = mu_of_lambda(lam)
            assert mu < 1.0 + 1e-12
            assert bessel._zero(mu - 1.0)[0] == pytest.approx(2 * lam, abs=1e-9)

    def test_increasing(self):
        # mu(lambda) = lambda^2 (1 - lambda^2/2 + ...) for small lambda
        lams = np.geomspace(1e-150, 200, 400)
        vals = [mu_of_lambda(float(l)) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(abs(mu / l ** 2 - 1.0) <= 1e-12 for mu, l in zip(vals, lams) if l <= 1e-9)


class TestCharacteristicEquation:
    def test_truncations_increase_to_limit(self):
        for lam in (0.3, 1.0, 3.0):
            mus = [-eig_hermitian(truncated_hamiltonian(d, lam)).eigenvalues[0]
                   for d in (5, 10, 20, 60, 160)]
            assert all(b >= a - 1e-13 for a, b in zip(mus, mus[1:]))
            assert mus[-1] == pytest.approx(mu_of_lambda(lam), abs=1e-8)


class TestPhi:
    def test_result_invariants(self):
        for z in (0.7, 3.0, 10.0, 1e3, 1e5):
            r = phi(z)
            assert 0.0 < r.phi < 1.0
            assert first_zero(r.mu_star - 1.0) == pytest.approx(
                2 * r.lambda_star, abs=1e-10)
            assert r.energy_check == pytest.approx(z, abs=1e-6 * max(z, 1.0))

    def test_beats_finite_spectrum_at_same_energy(self):
        for d in (3, 5, 9):
            z = (d - 1) / 2.0
            assert phi(z).phi >= math.cos(math.pi / (d + 1)) - 1e-9

    def test_small_z_monotone_to_zero(self):
        vals = [phi(z).phi for z in (0.01, 0.1, 1.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 0.15
        vals = [phi(float(z)).phi for z in np.geomspace(1e-300, 1e3, 400)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_z_regression(self):
        # phi used to raise BesselRangeError from z ~ 500 on
        zs = (500.0, 1e3, 1e4, 1e5, 1e6)
        vals = [phi(z).phi for z in zs]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        c = 2.338107410459767 / 2.0 ** (1.0 / 3.0)  # |a_1| / 2^(1/3)
        for z, v in zip(zs, vals):
            assert (1.0 - v) * (z + 1.0) ** 2 == pytest.approx(4 * c ** 3 / 27, abs=1e-4)

    def test_deficit_keeps_precision_at_huge_z(self):
        # 1 - phi falls below 1e-12 here, where rounding phi to a double
        # loses it: (1 - phi)(z+1)^2 reads 1.11 at z = 1e8
        c = -float(ai_zeros(1)[0][0]) / 2.0 ** (1.0 / 3.0)
        for z in (1e6, 1e7, 1e8):
            r = phi(z)
            assert r.deficit * (z + 1.0) ** 2 == pytest.approx(4 * c ** 3 / 27, abs=1e-6)
            assert r.phi == 1.0 - r.deficit

    def test_energy_check_and_search_cost_over_the_domain(self, monkeypatch):
        # the search solves energy_check = z, so this checks its tolerance
        # and cost (test_deficit_is_maximal_at_the_minimizer checks that the
        # root is the optimum); each _zero call below order 1000 is a Bessel zero
        calls = []
        zero = bessel._zero
        monkeypatch.setattr(bessel, "_zero", lambda nu: calls.append(nu) or zero(nu))
        for z in np.geomspace(1e-2, 1e6, 200):
            calls.clear()
            r = phi(float(z))
            assert abs(r.energy_check - z) <= 1e-7 * max(z, 1.0)
            assert len(calls) <= 50

    def test_deficit_is_maximal_at_the_minimizer(self):
        # the deficit 1 - (z + mu)/j at mu* beats mu* e^(+-1e-4) and e^(+-1e-2),
        # evaluated by phi's own routine at each mu, independently of the
        # energy condition
        def deficit(z, mu):
            _, j, r = bessel._curve_point(mu)
            return bessel._quality(z, mu, j, r)[1]

        for z in np.geomspace(1e-6, 1e10, 60):
            z = float(z)
            r = phi(z)
            assert r.deficit == deficit(z, r.mu_star)
            for step in (1e-4, -1e-4, 1e-2, -1e-2):
                assert r.deficit >= deficit(z, r.mu_star * math.exp(step))

    def test_small_z_matches_the_series(self):
        # phi(z) = sqrt(z) (1 - z/4 + z^2/96 + O(z^3)) (mpmath, 50 digits); the
        # order mu - 1 of the minimizer's zero lies within 1e-6 of -1 here
        for z in np.geomspace(1e-300, 1e-6, 301):
            z = float(z)
            r = phi(z)
            assert abs(r.phi / (math.sqrt(z) * (1.0 - z / 4.0 + z * z / 96.0)) - 1.0) <= 1e-12
            assert abs(r.energy_check / z - 1.0) <= 1e-8

    def test_jv_calls_per_zero_below_the_series_order(self, monkeypatch):
        # a safeguarded Halley step per jv call, started from the series or
        # the bracket midpoint, and one call for the energy at each search
        # point; a brentq zero took about 11 calls
        counts = {"jv": 0, "zeros": 0}
        jv, zero = bessel.jv, bessel._zero

        def counted_jv(*args):
            counts["jv"] += 1
            return jv(*args)

        def counted_zero(nu):
            counts["zeros"] += nu < bessel._SERIES_MIN_ORDER
            return zero(nu)

        monkeypatch.setattr(bessel, "jv", counted_jv)
        monkeypatch.setattr(bessel, "_zero", counted_zero)
        for z in np.geomspace(0.1, 12.0, 40):
            phi(float(z))
        assert counts["jv"] <= 8 * counts["zeros"]

    def test_matches_direct_eigenvalue_maximization(self):
        # independent route: max over lambda-states of tau at fixed energy via
        # the truncated operator at the minimizer
        z = 4.0
        r = phi(z)
        d = 120
        h = truncated_hamiltonian(d, r.lambda_star)
        vec = eig_hermitian(h).eigenvectors[:, 0]
        vec = np.abs(vec)
        tau = float(np.sum(vec[:-1] * vec[1:]))
        assert tau == pytest.approx(r.phi, abs=1e-7)


class TestPowerState:
    def test_tau_energy_and_positivity(self):
        st = power_state(10.0, 1.0)
        chains = decompose_chains(st.levels, 1.0)
        r = phi(10.0)
        assert tau_of_state(st, chains).tau == pytest.approx(r.phi, abs=1e-6)
        assert st.mean_energy() == pytest.approx(10.0, abs=1e-6 * 10.0)
        assert np.all(st.amplitudes.real > 0)

    def test_beats_coherent_state(self):
        st = power_state(10.0, 1.0)
        chains = decompose_chains(st.levels, 1.0)
        assert tau_of_state(st, chains).tau > tau_coherent(10.0)

    def test_overlap_with_diagonalized_ground_state(self):
        st = power_state(10.0, 1.0)
        r = phi(10.0)
        h = truncated_hamiltonian(st.dim, r.lambda_star)
        ground = eig_hermitian(h).eigenvectors[:, 0]
        assert abs(np.vdot(ground, st.amplitudes)) > 1 - 1e-8

    def test_matches_tridiagonal_eigensolver(self):
        # the window power_state solves, diagonalized by LAPACK's bisection
        # and inverse iteration; its ground vector, cut and renormalized
        # like the state, is the state
        for z in (0.1, 1.0, 10.0, 100.0, 1000.0):
            st = power_state(z, 1.0)
            r = phi(z)
            excess = bessel._zero(r.mu_star - 1.0)[1]
            turn = max(excess - 1.0, 0.0)
            k = np.arange(int(turn + 20.0 * r.lambda_star ** (1.0 / 3.0) + 60.0), dtype=float)
            _, vec = eigh_tridiagonal(2.0 + (k + 1.0 - excess) / r.lambda_star,
                                      -np.ones(k.size - 1), select="i", select_range=(0, 0))
            ref = np.abs(vec[:st.dim, 0])
            assert np.max(np.abs(ref / np.linalg.norm(ref) - st.amplitudes.real)) < 1e-10
            np.testing.assert_array_equal(st.levels, k[:st.dim])

    def test_failed_tridiagonal_solve_raises(self, monkeypatch):
        gtsv = bessel.dgtsv
        monkeypatch.setattr(bessel, "dgtsv", lambda *args: (*gtsv(*args)[:-1], 7))
        with pytest.raises(BesselRangeError):
            power_state(10.0, 1.0)

    def test_scales_with_delta(self):
        st = power_state(5.0, 0.5)  # z = 10 again, energies scaled by delta
        assert st.mean_energy() == pytest.approx(5.0, abs=1e-5)

    def test_window_retry_at_larger_energy(self):
        # z = 25 has a turning point far out on the ladder; the window past it
        # still meets the consistency tolerances
        st = power_state(25.0, 1.0)
        chains = decompose_chains(st.levels, 1.0)
        assert tau_of_state(st, chains).tau == pytest.approx(phi(25.0).phi, abs=1e-6)
        assert st.mean_energy() == pytest.approx(25.0, abs=1e-4)

    def test_no_raise_where_the_forward_recurrence_failed(self):
        # the phi-curve grid points 10^2.3, 10^2.8, 10^2.9 and a log grid on
        # [10, 1000], where a forward recurrence broke down on scattered z
        zs = [10 ** 2.3, 10 ** 2.8, 10 ** 2.9] + list(np.geomspace(10.0, 1000.0, 101))
        for z in zs:
            st = power_state(float(z), 1.0)
            amps = np.abs(st.amplitudes)
            assert float(np.sum(amps[:-1] * amps[1:])) == pytest.approx(phi(z).phi, abs=1e-6)
            assert st.mean_energy() == pytest.approx(z, abs=1e-6 * z)


class TestEnergyOfLambda:
    def test_small_lambda_limit(self):
        assert energy_of_lambda(0.05) == pytest.approx(0.0, abs=5e-3)

    def test_increasing(self):
        # E = mu (1 + O(mu)) for small lambda
        lams = np.geomspace(1e-150, 1e3, 400)
        vals = [energy_of_lambda(float(l)) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(abs(e / mu_of_lambda(float(l)) - 1.0) <= 1e-12
                   for e, l in zip(vals, lams) if l <= 1e-9)

    def test_matches_z_at_minimizer(self):
        r = phi(6.0)
        assert energy_of_lambda(r.lambda_star) == pytest.approx(6.0, abs=1e-5)

    def test_matches_difference_quotient(self):
        # lambda = 1e3 reaches orders ~2e3, on the series branch
        for lam in (0.4, 3.0, 40.0, 1e3):
            h = 1e-5 * lam
            dmu = (mu_of_lambda(lam + h) - mu_of_lambda(lam - h)) / (2.0 * h)
            expect = lam * dmu - mu_of_lambda(lam)
            assert energy_of_lambda(lam) == pytest.approx(expect, rel=1e-6)


def test_epsilon_of_bounded_energy_optimum():
    from enmeas.tau import epsilon_from_tau

    r = phi(10.0)
    assert epsilon_from_tau(r.phi) == pytest.approx(0.5 * (1 - r.phi), abs=1e-15)


def test_first_zero_matches_arbitrary_precision():
    mp = pytest.importorskip("mpmath")

    mp.mp.dps = 30
    for nu in (0.0, 0.5, 1.3, 7.7, 42.0, 301.5):
        ref = float(mp.besseljzero(nu, 1))
        assert first_zero(nu) == pytest.approx(ref, abs=1e-12)
    for lam in (2.0, 10.0, 123.0):
        mu = mu_of_lambda(lam)
        assert float(mp.besseljzero(mu - 1.0, 1)) == pytest.approx(2 * lam, abs=1e-10)
    # besseljzero rejects negative orders; refine the zero of besselj instead.
    # 4.999 and 5.001 sit on both sides of the start switch (bracket midpoint
    # against the series), 999.9 just below the series branch
    for nu in (-0.9, -0.5, 4.999, 5.001, 999.9):
        got = bessel._zero(nu)[0]
        ref = mp.findroot(lambda x: mp.besselj(nu, x), mp.mpf(got))
        assert got == pytest.approx(float(ref), abs=1e-12)


def test_large_order_series_matches_arbitrary_precision():
    # besseljzero is too slow at these orders; refine the zero of besselj instead
    mp = pytest.importorskip("mpmath")

    mp.mp.dps = 30
    for nu in (1000.0, 2500.0):
        ref = mp.findroot(lambda x: mp.besselj(nu, x), mp.mpf(first_zero(nu)))
        assert first_zero(nu) == pytest.approx(float(ref), abs=1e-12)


def test_small_order_curve_point_matches_arbitrary_precision():
    # below mu = 1e-3, against the zero of besselj with the order mu - 1
    # formed in 30 digits, which keeps 18 of mu's digits at mu = 1e-12;
    # E = j/(dj/dmu) - mu with dj/dmu by mpmath's differentiation
    mp = pytest.importorskip("mpmath")

    mp.mp.dps = 30

    def zero(mu):
        return mp.findroot(lambda x: mp.besselj(mu - 1, x), 2 * mp.sqrt(mu))

    for mu in (1e-12, 1e-6, 9.99e-4):
        energy, j, r = bessel._curve_point(mu)
        ref = zero(mp.mpf(mu))
        assert abs(j / ref - 1) <= 1e-15
        ref_energy = ref / mp.diff(zero, mp.mpf(mu)) - mu
        assert abs(energy / ref_energy - 1) <= 1e-13
        assert r == j - (mu - 1.0)


def test_mu_and_energy_of_lambda_match_arbitrary_precision():
    # mu(lambda) in 40 digits: for lambda < 1 the root in mu of
    # mu 0F1(; mu; -lambda^2) (a zero of J_{mu-1}(2 lambda) that keeps mu's
    # digits near order -1), above it the root in mu of J_{mu-1}(2 lambda);
    # E = j/(dj/dmu) - mu with dj/dmu by mpmath's differentiation. The
    # five-point slope of E from mu = 1e-3 on keeps ~1e-10 up to lambda ~ 60,
    # and loses a digit more where jv's rounding grows with the order
    mp = pytest.importorskip("mpmath")

    mp.mp.dps = 40
    for lam, e_tol in ((1e-9, 1e-13), (1e-7, 1e-13), (1e-5, 1e-13), (1e-3, 1e-13),
                       (1e-2, 1e-13), (0.1, 1e-10), (1.0, 1e-10), (30.0, 1e-10),
                       (300.0, 1e-9)):
        two_lam, mu = 2 * mp.mpf(lam), mu_of_lambda(lam)
        if lam < 1.0:
            ref = mp.findroot(lambda m: m * mp.hyp0f1(m, -(two_lam / 2) ** 2), mp.mpf(lam) ** 2)
        else:
            ref = mp.findroot(lambda m: mp.besselj(m - 1, two_lam), mu)
        assert abs(mu / ref - 1) <= 1e-13

        def zero(m):
            return mp.findroot(lambda x: mp.besselj(m - 1, x), two_lam)

        ref_energy = two_lam / mp.diff(zero, ref) - ref
        assert abs(energy_of_lambda(lam) / ref_energy - 1) <= e_tol
