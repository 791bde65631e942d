import math

import numpy as np
import pytest

from enmeas.povm import (
    PhysicalPovm,
    Povm,
    batteryless_decomposition,
    constant_blocks,
    degrade,
    effective_povm,
    joint_operators,
    phase_aligned_blocks,
    projective_qubit,
    random_rank_one_povm,
    validate,
)
from enmeas.spectra import decompose_chains
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
        diag = validate(Povm(elements=[e0, e1]))
        assert not diag.ok
        assert any("not PSD" in m for m in diag.messages)
        assert diag.min_eigenvalues[0] == pytest.approx(-1e-6, abs=1e-12)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_tolerance_off_its_domain_rejected(self, tol):
        # at tol = nan every comparison is false, so no invariant could fail
        p = Povm(elements=[0.45 * np.eye(2), 0.45 * np.eye(2)])
        with pytest.raises(ValueError, match="tol must be finite"):
            validate(p, tol=tol)


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

    def test_the_placements_are_the_entrywise_sums_bit_for_bit(self):
        # the reference: every block entry added on its own, as scalars
        from enmeas.reproduce import random_battery_state, random_physical_povm

        rng = np.random.default_rng(3)
        for levels in ([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.0, 1.5, 3.0], [0.2, 1.2, 1.7]):
            db = len(levels)
            phys = random_physical_povm(rng, decompose_chains(levels, 1.0), 3)
            batt = random_battery_state(rng, db, levels=np.array(levels))
            rho = batt.density()
            eff = effective_povm(phys, batt).elements
            ops = joint_operators(phys)
            for x, bl in enumerate(phys.blocks):
                out = np.zeros((2, 2), dtype=complex)
                full = np.zeros((2 * db, 2 * db), dtype=complex)
                for (rows, feeds), sub in zip(phys.layout, bl):
                    for i, (a, (fa,)) in enumerate(zip(rows, feeds)):
                        for j, (b, (fb,)) in enumerate(zip(rows, feeds)):
                            out[a, b] += rho[fb, fa] * sub[i, j]
                            full[a * db + fa, b * db + fb] += sub[i, j]
                assert np.array_equal(eff[x], Povm(elements=[out]).elements[0])
                assert np.array_equal(ops[x], full)

    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_joint_operators_of_constant_blocks_in_closed_form(self, d):
        # sector k holds |0>|k> and |1>|k-1>, so a constant block M_x embeds as
        # its diagonal on every level and its coherences on the raising shift S
        s = np.eye(d, k=-1)  # S|k> = |k+1>
        h = np.kron(np.diag([0.0, 1.0]), np.eye(d)) + np.kron(np.eye(2), np.diag(np.arange(d)))
        rng = np.random.default_rng(d)
        for m in (projective_qubit("x"), random_rank_one_povm(rng, 2, 3)):
            ops = joint_operators(constant_blocks(m, ladder(d)))
            assert len(ops) == m.n_outcomes
            for op, mx in zip(ops, m.elements):
                expect = (np.kron(np.diag(np.diag(mx)), np.eye(d))
                          + mx[0, 1] * np.kron([[0, 1], [0, 0]], s)
                          + mx[1, 0] * np.kron([[0, 0], [1, 0]], s.T))
                assert np.max(np.abs(op - expect)) <= 1e-15
                assert np.max(np.abs(op @ h - h @ op)) <= 1e-15

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


# the origin of energy is arbitrary: [M, H] is the same for every shift c of
# the levels, and so is each verdict
SHIFTS = (0.0, 1e6, -1e9)


class TestBatterylessDecomposition:
    def test_energy_projectors(self):
        m = projective_qubit("z")
        for c in SHIFTS:
            table = batteryless_decomposition(m, [c, c + 1.0])
            assert np.allclose(table, np.eye(2), atol=1e-12)

    def test_coin_flip(self):
        m = Povm(elements=[np.eye(2) / 2, np.eye(2) / 2])
        for c in SHIFTS:
            table = batteryless_decomposition(m, [c, c + 1.0])
            assert np.allclose(table, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_noncommuting_rejected_with_norm(self):
        # [|+><+|, diag(0,1)] has spectral norm 1/2 (the observable sigma_x
        # itself has norm 1); the error must quote the offending magnitude
        for c in SHIFTS:
            with pytest.raises(ValueError, match="commute") as exc:
                batteryless_decomposition(projective_qubit("x"), [c, c + 1.0])
            assert "5.000e-01" in str(exc.value)

    @pytest.mark.parametrize("c", SHIFTS)
    def test_small_coherence_rejected(self, c):
        # ||[M, H]|| = 1e-4: a bound growing with max|E| let it pass at c = 1e6
        for sign in (1.0, -1.0):
            e = np.array([[0.5, sign * 1e-4], [sign * 1e-4, 0.5]])
            with pytest.raises(ValueError, match="commute"):
                batteryless_decomposition(Povm(elements=[e, np.eye(2) - e]), [c, c + 1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_levels_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            batteryless_decomposition(projective_qubit("z"), [0.0, bad])

    @pytest.mark.parametrize("m", [projective_qubit("z"),
                                   Povm(elements=[np.eye(2) / 2, np.eye(2) / 2])],
                             ids=["z", "coin"])
    def test_dilation_conserves_energy_and_reads_the_table(self, m):
        # A_x = sqrt(M_x) (x) V^x with the pointer shift V|k> = |k+1 mod n>:
        # it commutes with H (x) I, and on each energy level the pointer,
        # started in |0>, reads that level's column of the table
        n = m.n_outcomes
        levels = [0.0, 1.0]
        v = np.roll(np.eye(n), 1, axis=0)
        ops = []
        for x, mx in enumerate(m.elements):
            w, u = np.linalg.eigh(mx)
            root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
            ops.append(np.kron(root, np.linalg.matrix_power(v, x)))
        h = np.kron(np.diag(levels), np.eye(n))
        for a in ops:
            assert np.allclose(a @ h - h @ a, 0.0, atol=1e-12)
        table = batteryless_decomposition(m, levels)
        start = np.zeros((n, n))
        start[0, 0] = 1.0
        for level in range(2):
            rho = np.zeros((2, 2))
            rho[level, level] = 1.0
            out = sum(a @ np.kron(rho, start) @ a.conj().T for a in ops)
            pointer = np.einsum("aiaj->ij", out.reshape(2, n, 2, n))  # system traced out
            assert np.allclose(np.diag(pointer).real, table[:, level], atol=1e-12)


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
    assert [len(rows) for rows, _ in chains.sectors] == [1, 2, 2, 1]
    for bad in ([bl[:-1] for bl in blocks], [bl + [np.eye(1)] for bl in blocks],
                blocks[:1] + [[]]):
        with pytest.raises(ValueError, match="one block per sector"):
            PhysicalPovm(chains=chains, blocks=bad)
    for s, shape in ((0, (2, 2)), (1, (1, 1)), (3, (2, 2))):
        bad = [list(bl) for bl in blocks]
        bad[1][s] = np.eye(shape[0])
        with pytest.raises(ValueError, match=f"sector {s} expects rank"):
            PhysicalPovm(chains=chains, blocks=bad)
