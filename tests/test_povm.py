import math

import numpy as np
import pytest

from enmeas.povm import (
    KrausSet,
    PhysicalPovm,
    Povm,
    batteryless_decomposition,
    check_energy_conserving,
    constant_blocks,
    degrade,
    effective_povm,
    joint_operators,
    measurement_channel,
    phase_aligned_blocks,
    projective_qubit,
    random_rank_one_povm,
    validate,
)
from enmeas.spectra import chain_sectors, decompose_chains
from enmeas.tau import BatteryState, tau_of_state


def ladder(d):
    return decompose_chains(np.arange(d, dtype=float), 1.0)


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestValidate:
    def test_coin_flip_valid(self):
        p = Povm(elements=[np.eye(2) / 2, np.eye(2) / 2])
        assert validate(p).ok

    def test_completeness_violation_reported(self):
        p = Povm(elements=[0.45 * np.eye(2), 0.45 * np.eye(2)])
        diag = validate(p)
        assert not diag.ok
        assert diag.completeness_residual == pytest.approx(0.1, abs=1e-12)
        assert any("completeness" in m for m in diag.messages)

    def test_psd_violation_reported(self):
        p = Povm(elements=[np.diag([1.0, 1e-6 + 1.0]) / 1.0 - np.diag([0.0, 2e-6]),
                           np.zeros((2, 2))])
        # first element has eigenvalue 1 - 1e-6... construct explicitly instead
        e0 = np.diag([1.0, -1e-6])
        e1 = np.eye(2) - e0
        diag = validate(Povm(elements=[e0, e1], tol=1e-9))
        assert not diag.ok
        assert any("not PSD" in m for m in diag.messages)
        assert diag.min_eigenvalues[0] == pytest.approx(-1e-6, abs=1e-12)


class TestEffectivePovm:
    def test_uniform_battery_rescales_off_diagonals(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            chains = ladder(d)
            m = random_rank_one_povm(rng, 2, 3)
            phys = constant_blocks(m, chains)
            batt = BatteryState.pure(np.ones(d) / math.sqrt(d))
            eff = effective_povm(phys, batt)
            for ex, mx in zip(eff.elements, m.elements):
                expect = mx.copy()
                expect[0, 1] *= 1 - 1 / d
                expect[1, 0] *= 1 - 1 / d
                assert np.allclose(ex, expect, atol=1e-12)

    def test_eigenstate_battery_dephases(self):
        chains = ladder(4)
        m = projective_qubit("x")
        phys = constant_blocks(m, chains)
        v = np.zeros(4)
        v[1] = 1.0
        eff = effective_povm(phys, BatteryState.pure(v))
        for ex in eff.elements:
            assert abs(ex[0, 1]) < 1e-14

    def test_joint_statistics_identity(self):
        rng = np.random.default_rng(1)
        from enmeas.reproduce import random_physical_povm

        chains = ladder(3)
        phys = random_physical_povm(rng, chains, 3)
        batt = BatteryState.mixed(random_density(rng, 3))
        eff = effective_povm(phys, batt)
        ops = joint_operators(phys)
        for _ in range(20):
            rho = random_density(rng, 2)
            big = np.kron(rho, batt.density())
            lhs = eff.probabilities(rho)
            rhs = [float(np.trace(big @ op).real) for op in ops]
            assert np.allclose(lhs[: len(rhs)], rhs, atol=1e-12)

    def test_validates_output(self):
        rng = np.random.default_rng(2)
        from enmeas.reproduce import random_physical_povm

        chains = decompose_chains([0.0, 0.4, 1.0, 1.4, 2.4], 1.0)
        phys = random_physical_povm(rng, chains, 2)
        batt = BatteryState.mixed(random_density(rng, 5))
        eff = effective_povm(phys, batt)
        assert validate(eff).ok


class TestDegrade:
    def test_identity_map(self):
        m = projective_qubit("x")
        out = degrade(m, 1.0)
        for a, b in zip(out.elements, m.elements):
            assert np.allclose(a, b, atol=1e-15)

    def test_full_dephasing(self):
        m = projective_qubit("x")
        out = degrade(m, 0.0)
        for e in out.elements:
            assert abs(e[0, 1]) == 0.0

    def test_sigma_x_at_cos_pi_4(self):
        out = degrade(projective_qubit("x"), math.cos(math.pi / 4))
        assert out.elements[0][0, 1] == pytest.approx(math.cos(math.pi / 4) / 2)
        assert out.elements[1][0, 1] == pytest.approx(-math.cos(math.pi / 4) / 2)
        assert validate(out).ok

    def test_reproduced_by_phase_aligned_blocks(self):
        rng = np.random.default_rng(3)
        for d in (2, 4):
            chains = ladder(d)
            for _ in range(5):
                m = random_rank_one_povm(rng, 2, 3)
                amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                amps /= np.linalg.norm(amps)
                batt = BatteryState.pure(amps)
                tau = tau_of_state(batt, chains).tau
                phys = phase_aligned_blocks(m, batt, chains)
                eff = effective_povm(phys, batt)
                ref = degrade(m, tau)
                for a, b in zip(eff.elements, ref.elements):
                    assert np.allclose(a, b, atol=1e-12)

    def test_phase_aligned_blocks_copy_exactly_on_real_coherences(self):
        # with every adjacent coherence real and nonnegative (one of them 0)
        # no sector is rotated: the blocks are the constant copy, bit for bit
        rng = np.random.default_rng(4)
        chains = decompose_chains([0.0, 1.0, 2.0, 3.0, 4.5, 5.5, 7.2], 1.0)
        amps = rng.uniform(0.1, 1.0, 7)
        amps[2] = 0.0
        batt = BatteryState.pure(amps / np.linalg.norm(amps))
        for m in (random_rank_one_povm(rng, 2, 3), projective_qubit("y")):
            const = constant_blocks(m, chains)
            aligned = phase_aligned_blocks(m, batt, chains)
            assert aligned.layout == const.layout
            for bc, ba in zip(const.blocks, aligned.blocks):
                assert len(bc) == len(ba) and all(map(np.array_equal, bc, ba))


class TestBatterylessDecomposition:
    def test_energy_projectors(self):
        m = projective_qubit("z")
        table = batteryless_decomposition(m, [0.0, 1.0])
        assert np.allclose(table, np.eye(2), atol=1e-12)

    def test_coin_flip(self):
        m = Povm(elements=[np.eye(2) / 2, np.eye(2) / 2])
        table = batteryless_decomposition(m, [0.0, 1.0])
        assert np.allclose(table, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_noncommuting_rejected_with_norm(self):
        # [|+><+|, diag(0,1)] has spectral norm 1/2 (the observable sigma_x
        # itself has norm 1); the error must quote the offending magnitude
        with pytest.raises(ValueError, match="commute") as exc:
            batteryless_decomposition(projective_qubit("x"), [0.0, 1.0])
        assert "5.000e-01" in str(exc.value)


class TestEnergyConservation:
    def test_diagonal_unitary_conserves(self):
        levels = [0.0, 1.0, 2.5]
        u = np.diag(np.exp(-1j * np.array(levels)))
        ok, diag = check_energy_conserving(KrausSet(operators=[u]), levels)
        assert ok
        assert diag["completeness_residual"] < 1e-12

    def test_dilated_measurement_conserves(self):
        m = projective_qubit("z")
        ch = measurement_channel(m)
        h = np.kron(np.diag([0.0, 1.0]), np.eye(m.n_outcomes))
        ok, _ = check_energy_conserving(ch, np.diag(h).real)
        assert ok

    def test_random_unitary_on_resonant_pair_fails(self):
        rng = np.random.default_rng(4)
        levels = [0.0, 1.0, 1.0 + 1e-9, 2.0]  # qubit x qubit joint spectrum
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        ok, diag = check_energy_conserving(KrausSet(operators=[q]), levels)
        assert not ok
        assert max(diag["commutator_norms"]) > 1e-3


class TestMeasurementChannel:
    def test_projective_qubit_shape(self):
        ch = measurement_channel(projective_qubit("z"))
        assert len(ch.operators) == 2
        assert ch.dim == 4

    def test_trine_completeness(self):
        vs = [np.array([math.cos(k * 2 * math.pi / 3), math.sin(k * 2 * math.pi / 3)])
              for k in range(3)]
        trine = Povm(elements=[(2.0 / 3.0) * np.outer(v, v) for v in vs])
        assert validate(trine).ok
        ch = measurement_channel(trine)
        assert len(ch.operators) == 3
        assert ch.completeness_residual() < 1e-12

    def test_statistics_match(self):
        # with the pointer started in |0>, its populations after the channel
        # are the outcome probabilities
        rng = np.random.default_rng(5)
        m = random_rank_one_povm(rng, 2, 3)
        ch = measurement_channel(m)
        start = np.zeros((3, 3))
        start[0, 0] = 1.0
        for _ in range(10):
            rho = random_density(rng, 2)
            out = ch.apply(np.kron(rho, start)).reshape(2, 3, 2, 3)
            pointer = np.einsum("aiaj->ij", out)  # the system traced out
            assert np.allclose(np.diag(pointer).real, m.probabilities(rho), atol=1e-12)


def test_povm_json_roundtrip():
    m = projective_qubit("y")
    back = Povm.from_json(m.to_json())
    for a, b in zip(back.elements, m.elements):
        assert np.allclose(a, b, atol=1e-12)
    assert back.labels == ["+", "-"]


def test_subnormalized_blocks_get_null_outcome():
    chains = ladder(3)
    m = projective_qubit("z")
    phys = constant_blocks(m, chains)
    # shrink all blocks: deficit must come back as a dedicated outcome
    for bl in phys.blocks:
        bl[:] = [0.8 * b for b in bl]
    batt = BatteryState.pure(np.ones(3) / math.sqrt(3))
    eff = effective_povm(phys, batt)
    assert "null" in eff.labels
    assert validate(eff).ok


def test_physical_povm_checks_its_blocks():
    # one block per sector of the layout, each of its sector's rank
    chains = ladder(3)
    blocks = constant_blocks(projective_qubit("z"), chains).blocks
    assert [len(rows) for rows, _ in chain_sectors(chains)] == [1, 2, 2, 1]
    for bad in ([bl[:-1] for bl in blocks], [bl + [np.eye(1)] for bl in blocks],
                blocks[:1] + [[]]):
        with pytest.raises(ValueError, match="one block per sector"):
            PhysicalPovm(chains=chains, blocks=bad)
    for s, shape in ((0, (2, 2)), (1, (1, 1)), (3, (2, 2))):
        bad = [list(bl) for bl in blocks]
        bad[1][s] = np.eye(shape[0])
        with pytest.raises(ValueError, match=f"sector {s} expects rank"):
            PhysicalPovm(chains=chains, blocks=bad)
