import math
import tracemalloc

import numpy as np
import pytest

from enmeas.linalg import eig_hermitian
from enmeas.spectra import decompose_chains
from enmeas.tau import (
    BatteryState,
    EnergyDensity,
    epsilon_from_tau,
    optimal_finite_state,
    tau_coherent,
    tau_continuous,
    tau_finite,
    tau_near_resonant,
    tau_of_state,
)


def ladder(d):
    return decompose_chains(np.arange(d, dtype=float), 1.0)


def coupling(d):
    a = np.zeros((d, d))
    a += np.diag(0.5 * np.ones(d - 1), 1) + np.diag(0.5 * np.ones(d - 1), -1)
    return a


class TestTauOfState:
    def test_uniform_ladder(self):
        for d in (2, 3, 6):
            st = BatteryState.pure(np.ones(d) / math.sqrt(d))
            assert tau_of_state(st, ladder(d)).tau == pytest.approx((d - 1) / d, abs=1e-12)

    def test_energy_eigenstate_has_no_coherence(self):
        v = np.zeros(4)
        v[2] = 1.0
        assert tau_of_state(BatteryState.pure(v), ladder(4)).tau == 0.0

    def test_optimal_state_reaches_tau_finite(self):
        for d in (2, 3, 8):
            st = optimal_finite_state(d)
            got = tau_of_state(st, ladder(d)).tau
            assert got == pytest.approx(math.cos(math.pi / (d + 1)), abs=1e-12)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            amps /= np.linalg.norm(amps)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
            t1 = tau_of_state(BatteryState.pure(amps), ladder(d)).tau
            t2 = tau_of_state(BatteryState.pure(amps * phases), ladder(d)).tau
            assert t1 == pytest.approx(t2, abs=1e-12)

    def test_bounded_by_tau_finite(self):
        rng = np.random.default_rng(1)
        for d in range(2, 9):
            bound = tau_finite(d)
            chains = ladder(d)
            for _ in range(1000):
                amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                amps /= np.linalg.norm(amps)
                assert tau_of_state(BatteryState.pure(amps), chains).tau <= bound + 1e-12

    def test_mixed_state_direct_evaluation(self):
        rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        assert tau_of_state(BatteryState.mixed(rho), ladder(2)).tau == pytest.approx(0.2)

    def test_mixed_state_over_three_chains(self):
        rng = np.random.default_rng(5)
        levels = rng.permutation(np.concatenate(
            [np.arange(4.0), 0.3 + np.arange(3.0), 0.6 + np.arange(2.0)]))
        chains = decompose_chains(levels, 1.0)
        assert [c.length for c in chains.chains] == [4, 3, 2]
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        expect = 0.0
        for chain in chains.chains:
            for lo, hi in zip(chain.level_ids[:-1], chain.level_ids[1:]):
                expect += abs(rho[hi, lo])
        assert 0.0 < expect < 1.0
        assert tau_of_state(BatteryState.mixed(rho), chains).tau == pytest.approx(expect, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tau_of_state(BatteryState.pure([1.0, 0.0]), ladder(3))

    def test_pure_state_matches_density_matrix(self):
        # two interleaved chains over shuffled level indices
        rng = np.random.default_rng(6)
        levels = rng.permutation(np.concatenate((np.arange(25.0), np.arange(25.0) + 0.5)))
        chains = decompose_chains(levels, 1.0)
        amps = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        st = BatteryState.pure(amps / np.linalg.norm(amps))
        dense = tau_of_state(BatteryState.mixed(st.density()), chains).tau
        assert abs(tau_of_state(st, chains).tau - dense) <= 1e-14

    def test_pure_state_needs_no_density_matrix(self):
        d = 20_000  # a dense density matrix would take 6.4 GB
        amps = np.sqrt(np.random.default_rng(7).dirichlet(np.ones(d)))
        st, chains = BatteryState.pure(amps), ladder(d)
        tracemalloc.start()
        try:
            tau = tau_of_state(st, chains).tau
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < tau <= 1.0
        assert peak < 50e6


class TestOptimalFiniteState:
    def test_d1(self):
        st = optimal_finite_state(1)
        assert st.amplitudes.shape == (1,)
        assert tau_of_state(st, ladder(1)).tau == 0.0

    def test_d2_amplitudes(self):
        st = optimal_finite_state(2)
        assert np.allclose(np.abs(st.amplitudes), [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert tau_of_state(st, ladder(2)).tau == pytest.approx(0.5, abs=1e-12)

    def test_d10_populations_and_energy(self):
        st = optimal_finite_state(10)
        k = np.arange(10)
        expect = 2.0 / 11 * np.sin((k + 1) * np.pi / 11) ** 2
        assert np.allclose(st.populations(), expect, atol=1e-12)
        assert st.mean_energy() == pytest.approx(4.5, abs=1e-10)


class TestTauFinite:
    def test_d1_is_zero(self):
        assert tau_finite(1) == pytest.approx(0.0, abs=1e-15)

    def test_d3(self):
        assert tau_finite(3) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_matches_eigensolver_at_200(self):
        top = eig_hermitian(coupling(200)).eigenvalues[-1]
        assert abs(tau_finite(200) - top) < 1e-10

    def test_strictly_increasing(self):
        vals = [tau_finite(d) for d in range(1, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestTauCoherent:
    def test_vacuum(self):
        assert tau_coherent(0.0) == 0.0

    def test_truncation_oracle(self):
        for a2 in (0.1, 1.0):  # on both sides of the switch at 1/4
            k = np.arange(60)
            log_p = -a2 + k * np.log(a2) - np.array(
                [math.lgamma(kk + 1) for kk in k]
            )
            amps = np.exp(0.5 * log_p)
            amps /= np.linalg.norm(amps)
            st = BatteryState.pure(amps)
            oracle = tau_of_state(st, ladder(60)).tau
            assert tau_coherent(a2) == pytest.approx(oracle, abs=1e-10)

    def test_large_alpha_window(self):
        got = (1.0 - tau_coherent(100.0)) * 800.0
        assert 0.9 <= got <= 1.1

    def test_increasing_in_alpha(self):
        vals = [tau_coherent(a) for a in np.linspace(0.1, 30, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @staticmethod
    def direct_sum(a2):
        """sum_k sqrt(p_k p_{k+1}) term by term from lgamma, as an oracle."""
        la = math.log(a2)
        ks = range(max(0, int(a2 - 20 * math.sqrt(a2))), int(a2 + 20 * math.sqrt(a2)) + 40)
        return math.fsum(
            math.exp(-a2 + (k + 0.5) * la - 0.5 * (math.lgamma(k + 1) + math.lgamma(k + 2)))
            for k in ks)

    def test_large_alpha_against_direct_sum(self):
        # the first term of the old recurrence underflowed from |alpha|^2 ~ 712 on
        for a2 in (740.0, 1e3, 1e4, 1e5):
            assert tau_coherent(a2) == pytest.approx(self.direct_sum(a2), abs=1e-10)

    def test_large_alpha_against_arbitrary_precision(self):
        # (1 - tau) * 8 |alpha|^2 from a 40-digit mpmath sum
        ref = {740.0: 1.0005922895601, 1e3: 1.00043808728689,
               1e4: 1.00004375586072, 1e5: 1.0000043750586}
        for a2, want in ref.items():
            assert (1.0 - tau_coherent(a2)) * 8.0 * a2 == pytest.approx(want, abs=1e-9)

    def test_increasing_across_underflow_edge(self):
        vals = [tau_coherent(float(a)) for a in range(700, 761)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_coherent(-1.0)
        with pytest.raises(ValueError):
            tau_coherent(1e11)


class TestTauContinuous:
    def test_gaussian_closed_form(self):
        for var, delta in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
            f = EnergyDensity.gaussian(0.0, var)
            expect = math.exp(-(delta ** 2) / (8 * var))
            assert tau_continuous(f, delta) == pytest.approx(expect, abs=1e-6)

    def test_delta_zero_is_normalization(self):
        f = EnergyDensity.gaussian(3.0, 0.8)
        assert tau_continuous(f, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_disjoint_supports(self):
        f = EnergyDensity(f=lambda e: np.ones_like(np.asarray(e, dtype=float)),
                          support=(0.0, 1.0))
        assert tau_continuous(f, 5.0) == 0.0

    def test_unnormalized_rejected(self):
        f = EnergyDensity(f=lambda e: 2.0 * np.ones_like(np.asarray(e, dtype=float)),
                          support=(0.0, 1.0))
        with pytest.raises(ValueError, match="integrates"):
            tau_continuous(f, 0.5)

    def test_narrow_gaussian_limit_matches_discrete(self):
        # point masses at 0 and 1 with weights 1/2 each: tau -> 1/2
        var = 1e-4
        def f(e):
            e = np.asarray(e, dtype=float)
            n = 1.0 / math.sqrt(2 * math.pi * var)
            return 0.5 * n * (np.exp(-e ** 2 / (2 * var))
                              + np.exp(-(e - 1.0) ** 2 / (2 * var)))
        dens = EnergyDensity(f=f, support=(-0.05, 1.05))
        st = BatteryState.pure(np.array([1.0, 1.0]) / math.sqrt(2))
        discrete = tau_of_state(st, ladder(2)).tau
        assert tau_continuous(dens, 1.0) == pytest.approx(discrete, abs=1e-4)


class TestTauNearResonant:
    def test_exact_resonance_limit(self):
        c0 = 0.6
        c1 = 0.8
        clock = EnergyDensity.gaussian(10.0, 1e-4)
        got = tau_near_resonant(c0, c1, 0.0, clock, 1.0)
        assert got == pytest.approx(abs(c0 * c1), abs=1e-7)

    def test_concentrated_clock_near_c0c1(self):
        c = 1 / math.sqrt(2)
        clock = EnergyDensity.gaussian(50.0, 4e-4)  # width 0.02, eps << width << gap
        got = tau_near_resonant(c, c, 2e-4, clock, 1.0)
        assert got == pytest.approx(0.5, abs=1e-4)

    def test_maxwell_density_lower_bound(self):
        # sigma(E) ~ e^{-m E / s} sqrt(E): bound tau >= |c0 c1| e^{-3 m eps/(2 s)}
        # normalized in closed form: the integral of e^{-a E} sqrt(E) over E > 0
        # is Gamma(3/2) a^{-3/2}; the tail past E = 60 is below 1e-25
        m_over_s = 1.0
        norm = 2.0 * m_over_s ** 1.5 / math.sqrt(math.pi)
        def f(e):
            e = np.asarray(e, dtype=float)
            return norm * np.exp(-m_over_s * e) * np.sqrt(np.maximum(e, 0.0))
        dens = EnergyDensity(f=f, support=(0.0, 60.0))
        c0 = c1 = 1 / math.sqrt(2)
        eps = 1e-3
        delta = 100.0  # gap >> clock spread so the cross terms vanish
        got = tau_near_resonant(c0, c1, eps, dens, delta)
        bound = abs(c0 * c1) * math.exp(-1.5 * m_over_s * eps)
        assert got >= bound - 1e-6

    @pytest.mark.parametrize("c0, eps, mean, variance, delta", [
        (0.6, 0.1, 0.0, 1.0, 0.5),  # wide clock: delta below its width, pieces overlap
        (0.6, 13.0, 0.0, 0.25, 1.0),  # two disjoint overlaps
        (0.6, -0.3, 0.0, 1.0, 0.5),  # negative detuning
        (0.8, -1e-3, 50.0, 4e-4, 1.0),
        (0.6, 0.0, 10.0, 1e-4, 1.0),  # exact resonance
        (0.6, 3.0, 0.0, 0.01, 5.0),  # no overlap
        (1 / math.sqrt(2), 2e-5, 50.0, 1e-6, 1e4),  # narrow clock, large gap
    ])
    def test_matches_a_trapezoid_sum(self, c0, eps, mean, variance, delta):
        c1 = math.sqrt(1.0 - c0 ** 2)
        clock = EnergyDensity.gaussian(mean, variance)
        got = tau_near_resonant(c0, c1, eps, clock, delta)
        # sqrt(g1 g2) vanishes where g1 does: outside the clock's support
        # and its copy shifted by delta + eps
        p0, p1 = c0 ** 2, c1 ** 2
        lo, hi = clock.support
        first, second = sorted([(lo, hi), (lo + delta + eps, hi + delta + eps)])
        spans = [first, second] if second[0] > first[1] else [(first[0], max(first[1], second[1]))]
        ref = 0.0
        for a, b in spans:
            e = np.linspace(a, b, 200_000 // len(spans))
            g1 = p0 * clock(e) + p1 * clock(e - delta - eps)
            g2 = p0 * clock(e + delta) + p1 * clock(e - eps)
            y = np.sqrt(g1 * g2)
            ref += float(np.sum(np.diff(e) * (y[1:] + y[:-1])) / 2.0)
        assert got == pytest.approx(ref, abs=1e-8)
        if ref == 0.0:
            assert got == 0.0

    def test_unnormalized_amplitudes_rejected(self):
        clock = EnergyDensity.gaussian(10.0, 1e-4)
        with pytest.raises(ValueError):
            tau_near_resonant(1.0, 1.0, 0.0, clock, 1.0)


def test_epsilon_from_tau():
    assert epsilon_from_tau(1.0) == 0.0
    assert epsilon_from_tau(math.cos(math.pi / 3)) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        epsilon_from_tau(1.5)


def test_battery_state_validation():
    with pytest.raises(ValueError):
        BatteryState.pure([1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        BatteryState.mixed(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        BatteryState.mixed(np.array([[1.1, 0.0], [0.0, -0.1]]))  # not PSD


def test_battery_state_json_roundtrip():
    st = optimal_finite_state(4)
    back = BatteryState.from_json(st.to_json())
    assert np.allclose(back.amplitudes, st.amplitudes)
    assert np.allclose(back.levels, st.levels)
    rho = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    st2 = BatteryState.mixed(rho, levels=[0.0, 1.0])
    back2 = BatteryState.from_json(st2.to_json())
    assert np.allclose(back2.rho, rho)
