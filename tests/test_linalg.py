import numpy as np
import pytest

from enmeas.linalg import (
    HermiticityError,
    as_hermitian,
    eig_hermitian,
    hermitian_from_json,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    psd_sqrt,
    trace_norm,
)


def coupling(d):
    a = np.zeros((d, d))
    a += np.diag(0.5 * np.ones(d - 1), 1) + np.diag(0.5 * np.ones(d - 1), -1)
    return a


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def test_eig_identity():
    s = eig_hermitian(np.eye(3))
    assert np.allclose(s.eigenvalues, [1, 1, 1])


def test_eig_coupling_top_eigenvalue():
    s = eig_hermitian(coupling(3))
    assert abs(s.eigenvalues[-1] - np.cos(np.pi / 4)) < 1e-12
    assert abs(s.eigenvalues[-1] - np.sqrt(2) / 2) < 1e-12


def test_eig_2x2_quadratic_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = random_hermitian(rng, 2)
        # roots of l^2 - tr l + det = 0
        tr = np.trace(h).real
        det = np.linalg.det(h).real
        disc = np.sqrt(tr * tr - 4 * det)
        expect = sorted([(tr - disc) / 2, (tr + disc) / 2])
        got = eig_hermitian(h).eigenvalues
        assert np.allclose(got, expect, atol=1e-12)


def test_eig_rejects_non_hermitian_with_index():
    m = np.eye(3, dtype=complex)
    m[0, 2] = 1e-3
    with pytest.raises(HermiticityError) as exc:
        eig_hermitian(m)
    assert exc.value.index in ((0, 2), (2, 0))


def test_eig_roundtrip_up_to_64():
    rng = np.random.default_rng(1)
    for d in (2, 5, 16, 64):
        h = random_hermitian(rng, d)
        s = eig_hermitian(h)
        v = s.eigenvectors
        err = operator_norm((v * s.eigenvalues) @ v.conj().T - h)
        assert err <= 1e-10 * operator_norm(h)
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10


def test_coupling_spectrum_closed_form():
    for d in range(2, 201, 1):
        w = np.linalg.eigvalsh(coupling(d))
        m = np.arange(d, 0, -1)
        expect = np.cos(m * np.pi / (d + 1))
        assert np.max(np.abs(w - expect)) < 1e-10


def test_is_psd():
    assert is_psd(np.eye(2), 1e-9)
    assert not is_psd(np.diag([1.0, -0.1]), 1e-9)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert is_psd(np.outer(v, v.conj()), 1e-9)


def test_norms_sigma_z():
    sz = np.diag([1.0, -1.0])
    assert operator_norm(sz) == pytest.approx(1.0)
    assert trace_norm(sz) == pytest.approx(2.0)


def test_norm_projector_difference():
    z0 = np.diag([1.0, 0.0]).astype(complex)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert operator_norm(z0 - plus) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_trace_norm_positive_part_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = random_hermitian(rng, 5)
        w = np.linalg.eigvalsh(t)
        tr_plus = np.sum(w[w > 0])
        assert trace_norm(t) == pytest.approx(2 * tr_plus - np.trace(t).real, abs=1e-10)


def test_symmetrize_on_ingestion():
    m = np.array([[1.0, 0.1 + 1e-13j], [0.1 - 0.5e-13j, 2.0]])
    out = as_hermitian(m, herm_tol=1e-12)
    assert np.allclose(out, out.conj().T)


def test_psd_sqrt():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = g @ g.conj().T
    r = psd_sqrt(p)
    assert np.allclose(r @ r, p, atol=1e-10)


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 3)
    data = matrix_to_json(h)
    assert np.allclose(matrix_from_json(data), h)
    assert np.allclose(hermitian_from_json(data), h)
