import math

import numpy as np
import pytest

import oracles


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_flip_point_is_the_top_coupling_eigenvalue(d):
    coupling = np.diag(np.full(d - 1, 0.5), 1) + np.diag(np.full(d - 1, 0.5), -1)
    assert oracles.flip_point(d) == pytest.approx(np.linalg.eigvalsh(coupling)[-1], abs=1e-14)


@pytest.mark.parametrize("z", [0.05, 0.2, 0.45])
def test_two_level_truncation_is_the_closed_form(z):
    # the best two-level state at energy z has tau = |c0 c1| = sqrt(z (1 - z))
    val, lam = oracles.tau_truncated(z, 2)
    assert math.isfinite(lam)
    assert val == pytest.approx(math.sqrt(z * (1.0 - z)), rel=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_truncation_without_a_binding_cap_is_the_finite_optimum(d):
    assert oracles.tau_truncated(10.0 * d, d) == (oracles.flip_point(d), math.inf)


def test_airy_limit_constant():
    c = 2.338107410459767 / 2.0 ** (1.0 / 3.0)
    assert oracles.airy_limit() == pytest.approx(4.0 * c ** 3 / 27.0, rel=1e-14)
    assert oracles.airy_limit() == pytest.approx(0.946803, abs=1e-6)


def test_phi_oracle_increases_and_reaches_the_airy_limit():
    zs = [0.1, 1.0, 10.0, 100.0, 1000.0]
    vals = [oracles.phi_oracle(z) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert abs((1.0 - vals[-1]) * 1001.0 ** 2 - oracles.airy_limit()) < 1e-4


def test_phi_oracle_matches_enmeas():
    from enmeas import bessel
    for z in (0.3, 3.0, 30.0):
        o, p = oracles.phi_oracle(z), bessel.phi(z).phi
        assert abs((1.0 - p) - (1.0 - o)) <= 1e-9 * (1.0 - o)


def test_two_outcome_norm():
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    assert oracles.two_outcome_distance(zero, plus) == pytest.approx(math.sqrt(0.5), abs=1e-15)


def _witness():
    # real two-outcome pair: the optimal state is real, so X_x = +-rho works
    diff = np.diag([1.0, 0.0]) - 0.5 * np.ones((2, 2))
    w, u = np.linalg.eigh(diff)
    k = int(np.argmax(np.abs(w)))
    rho = np.outer(u[:, k], u[:, k]).astype(complex)
    s = np.sign(w[k])
    return [diff, -diff], rho, [s * rho, -s * rho], float(abs(w[k]))


def test_quantum_witness_accepts_a_feasible_witness():
    diffs, rho, xs, value = _witness()
    assert oracles.quantum_witness_errors(diffs, rho, xs, value) == []
    assert oracles.classical_witness_errors(diffs, rho, value) == []


def test_quantum_witness_rejects_each_perturbation():
    diffs, rho, xs, value = _witness()
    assert oracles.quantum_witness_errors(diffs, rho, xs, value + 1e-6)
    assert oracles.quantum_witness_errors(diffs, rho, [1.01 * x for x in xs], value)
    assert oracles.quantum_witness_errors(diffs, 1.001 * rho, xs, value)
    assert oracles.quantum_witness_errors(diffs, rho - 1e-6 * np.eye(2), xs, value)
    assert oracles.classical_witness_errors(diffs, rho, value - 1e-6)
