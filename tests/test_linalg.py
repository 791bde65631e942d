import re

import numpy as np
import pytest

from enmeas import sdp
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
from enmeas.povm import Povm


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


@pytest.mark.parametrize("norm", [operator_norm, trace_norm])
def test_norms_reject_a_non_hermitian_matrix(norm):
    # the Hermitian part of [[0, 1], [0, 0]] has norms 0.5 and 1, the matrix
    # itself operator norm 1: no answer is right, so none is given
    with pytest.raises(HermiticityError) as exc:
        norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert exc.value.index == (0, 1)


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
    out = as_hermitian(m)
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


# A fixed Hermitian matrix of largest entry 1 per size, and the entry given
# an asymmetry: the one rule allows 1e-9 max(1, max |entry|).
SCALE_CASES = [
    (np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -0.75]]), (0, 1)),
    (np.array([[0.5, 0.25j, -0.5], [-0.25j, -1.0, 0.75 + 0.5j], [-0.5, 0.75 - 0.5j, 0.25]]),
     (1, 2)),
]


def _asymmetric(a, entry, s, asym):
    m = s * a.astype(complex)
    m[entry] += asym * max(1.0, s)
    return m


def _one_block_equality(m):
    p = sdp.BlockSdp()
    p.add_equality({p.add_block(m.shape[0]): m}, 1.0)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("a, entry", SCALE_CASES, ids=["2x2", "3x3"])
def test_one_hermitian_rule_at_every_scale(a, entry, s):
    ok = _asymmetric(a, entry, s, 0.5e-9)
    assert np.array_equal(as_hermitian(ok), 0.5 * (ok + ok.conj().T))
    Povm(elements=[ok])
    _one_block_equality(ok)
    sdp.matrix_rhs(ok)

    bad = _asymmetric(a, entry, s, 2e-9)
    for reject in (as_hermitian, lambda m: Povm(elements=[m])):
        with pytest.raises(HermiticityError) as exc:
            reject(bad)
        assert exc.value.index == entry
    for reject in (_one_block_equality, sdp.matrix_rhs):
        with pytest.raises(sdp.SdpError, match=re.escape(f"not Hermitian at entry {entry}")):
            reject(bad)
