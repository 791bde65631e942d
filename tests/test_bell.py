import math

import numpy as np
import pytest

from enmeas.bell import (
    BellScenario,
    build_dephased_state,
    chsh_mixture_bound,
    chsh_operator,
    chsh_value,
    dephase_local_number,
    entangled_component,
    optimize_chsh_seesaw,
    reference_observables,
    reference_scenario,
    shared_pure_state,
)

SX = np.array([[0, 1], [1, 0]], complex)
SZ = np.array([[1, 0], [0, -1]], complex)


class TestDephasedState:
    def test_trace_one_and_psd(self):
        rho = build_dephased_state()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-14

    def test_entangled_weight(self):
        rho = build_dephased_state()
        psi = entangled_component()
        assert (psi.conj() @ rho @ psi).real == pytest.approx(0.25, abs=1e-13)

    def test_invariant_under_dephasing(self):
        rho = build_dephased_state()
        assert np.allclose(dephase_local_number(rho), rho, atol=1e-14)


class TestChshValue:
    def test_reference_value(self):
        val = chsh_value(reference_scenario())
        assert abs(val - (1 + 0.75 * math.sqrt(2))) <= 1e-12

    def test_observables_dichotomic(self):
        a, b = reference_observables()
        for o in a + b:
            w = np.linalg.eigvalsh(o)
            assert np.max(np.abs(np.abs(w) - 1)) < 1e-12

    def test_product_states_respect_classical_bound(self):
        rng = np.random.default_rng(0)
        a, b = reference_observables()
        for _ in range(20):
            va = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            va /= np.linalg.norm(va)
            vb /= np.linalg.norm(vb)
            rho = np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
            val = chsh_value(BellScenario(state=rho, alice=a, bob=b))
            assert abs(val) <= 2 + 1e-9

    def test_singlet_tsirelson_settings(self):
        psi = np.array([0, 1, -1, 0], complex) / math.sqrt(2)
        rho = np.outer(psi, psi.conj())
        a = [SZ, SX]
        b = [-(SZ + SX) / math.sqrt(2), (SX - SZ) / math.sqrt(2)]
        val = chsh_value(BellScenario(state=rho, alice=a, bob=b))
        assert val == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_linearity_over_mixture_terms(self):
        # decompose the dephased state into its sector components and check
        # the CHSH value is reproduced term by term
        rho = build_dephased_state()
        sc = reference_scenario()
        op = chsh_operator(sc.alice, sc.bob)
        w, u = np.linalg.eigh(rho)
        total = sum(
            wi * (u[:, i].conj() @ op @ u[:, i]).real for i, wi in enumerate(w)
        )
        assert total == pytest.approx(chsh_value(sc), abs=1e-12)

    def test_non_dichotomic_rejected(self):
        rho = build_dephased_state()
        a, b = reference_observables()
        bad = a[0] * 0.5
        with pytest.raises(ValueError, match="dichotomic"):
            BellScenario(state=rho, alice=[bad, a[1]], bob=b)

    def test_invalid_state_rejected(self):
        a, b = reference_observables()
        with pytest.raises(ValueError, match="unit trace"):
            BellScenario(state=2.0 * build_dephased_state(), alice=a, bob=b)


def test_mixture_bound():
    assert chsh_mixture_bound() == pytest.approx(
        6 / 8 * 2 + 2 / 8 * 2 * math.sqrt(2), abs=1e-15)
    assert chsh_mixture_bound() == pytest.approx(2.2071067811865475, abs=1e-12)
    assert chsh_mixture_bound() < 2 * math.sqrt(2)


def test_mixture_bound_is_derived_from_the_state(monkeypatch):
    import enmeas.bell as bell

    rho = build_dephased_state()
    # without dephasing the rest keeps coherences: not a separable remainder
    psi = shared_pure_state()
    monkeypatch.setattr(bell, "build_dephased_state", lambda: np.outer(psi, psi.conj()))
    with pytest.raises(ValueError, match="not a nonnegative diagonal"):
        chsh_mixture_bound()
    # diluting with a diagonal product state moves the entangled weight 1/4
    product = np.zeros((16, 16), complex)
    product[0, 0] = 1.0
    monkeypatch.setattr(bell, "build_dephased_state", lambda: 0.6 * rho + 0.4 * product)
    w = 0.6 * 0.25
    assert chsh_mixture_bound() == pytest.approx(2 * (1 - w) + 2 * math.sqrt(2) * w, abs=1e-14)
    assert chsh_mixture_bound() < 6 / 8 * 2 + 2 / 8 * 2 * math.sqrt(2) - 0.05


class TestSeesaw:
    def test_dephased_shared_state_no_ancilla(self):
        rho = np.zeros((4, 4), complex)
        rho[1, 1] = 0.5
        rho[2, 2] = 0.5
        val, _ = optimize_chsh_seesaw(rho, (2, 2), restarts=20, seed=1)
        assert val <= 2 + 1e-6

    def test_reference_state_beats_classical(self):
        sc = reference_scenario()
        val, _ = optimize_chsh_seesaw(
            sc.state, (4, 4), restarts=4, seed=2,
            seeds_ab=[(sc.alice, sc.bob)])
        assert val >= 1 + 0.75 * math.sqrt(2) - 1e-9
        assert val <= chsh_mixture_bound() + 1e-6

    def test_singlet_reaches_tsirelson(self):
        psi = np.array([0, 1, -1, 0], complex) / math.sqrt(2)
        rho = np.outer(psi, psi.conj())
        val, _ = optimize_chsh_seesaw(rho, (2, 2), restarts=10, seed=3)
        assert val == pytest.approx(2 * math.sqrt(2), abs=1e-6)

    def test_iterates_nondecreasing(self):
        sc = reference_scenario()
        vals = []
        for iters in (1, 2, 3, 5, 10):
            v, _ = optimize_chsh_seesaw(sc.state, (4, 4), restarts=1, seed=4,
                                        iters=iters,
                                        seeds_ab=[(sc.alice, sc.bob)])
            vals.append(v)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_no_start_rejected(self, restarts):
        # given seeds_ab, restarts < 1 adds no random start but runs the seeds
        sc = reference_scenario()
        with pytest.raises(ValueError, match="restarts"):
            optimize_chsh_seesaw(sc.state, (4, 4), restarts=restarts)
        val, _ = optimize_chsh_seesaw(sc.state, (4, 4), restarts=restarts,
                                      seeds_ab=[(sc.alice, sc.bob)])
        assert val >= 1 + 0.75 * math.sqrt(2) - 1e-9

    @pytest.mark.parametrize("iters", [0, -2, math.nan])
    def test_no_iteration_rejected(self, iters):
        # with no iteration no start has a value: an error, not (-inf, None)
        sc = reference_scenario()
        with pytest.raises(ValueError, match=f"iters must be >= 1, got {iters}"):
            optimize_chsh_seesaw(sc.state, (4, 4), restarts=2, iters=iters,
                                 seeds_ab=[(sc.alice, sc.bob)])


def test_shared_pure_state_normalized():
    psi = shared_pure_state()
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)


def test_coherent_ancillas_push_chsh_toward_tsirelson():
    # richer coherent ancillas raise the reachable CHSH value toward 2*sqrt(2):
    # both parties' observables lose off-diagonal weight by tau(|alpha|^2)
    from enmeas.tau import tau_coherent

    psi = np.array([0, 1, -1, 0], complex) / math.sqrt(2)
    rho = np.outer(psi, psi.conj())

    def degraded(obs, tau):
        out = obs.astype(complex).copy()
        out[0, 1] *= tau
        out[1, 0] *= tau
        return out

    a = [SZ, SX]
    b = [-(SZ + SX) / math.sqrt(2), (SX - SZ) / math.sqrt(2)]
    vals = []
    for alpha_sq in (1.0, 4.0, 16.0, 64.0):
        tau = tau_coherent(alpha_sq)
        da = [degraded(o, tau) for o in a]
        db = [degraded(o, tau) for o in b]
        op = chsh_operator(da, db)
        vals.append(float(np.trace(rho @ op).real))
    assert all(y > x for x, y in zip(vals, vals[1:]))
    assert vals[0] > 2.0  # already nonclassical at |alpha|^2 = 1
    assert vals[-1] == pytest.approx(2 * math.sqrt(2), abs=0.02)
