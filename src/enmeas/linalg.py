"""Dense complex Hermitian linear algebra shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_HERM_TOL = 1e-12


class HermiticityError(ValueError):
    """A matrix exceeded the Hermiticity tolerance at a specific entry."""

    def __init__(self, index: tuple[int, int], deviation: float, tol: float):
        self.index = index
        self.deviation = deviation
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: |M[{index[0]},{index[1]}] - "
            f"conj(M[{index[1]},{index[0]}])| = {deviation:.3e} > tol {tol:.3e}"
        )


def as_hermitian(m, herm_tol: float = DEFAULT_HERM_TOL) -> np.ndarray:
    """Validate Hermiticity within ``herm_tol`` and return (M + M†)/2.

    Symmetrizing on ingestion absorbs the rounding that JSON round trips
    introduce; anything beyond the tolerance is a data error and raises
    :class:`HermiticityError` with the offending entry index.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    dev = np.abs(a - a.conj().T)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[i, j] > herm_tol:
        raise HermiticityError((int(i), int(j)), float(dev[i, j]), herm_tol)
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, H = V diag(w) V†

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(h, herm_tol: float = DEFAULT_HERM_TOL) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix (ascending eigenvalues)."""
    a = as_hermitian(h, herm_tol)
    w, v = np.linalg.eigh(a)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def eigvals_hermitian(h, herm_tol: float = DEFAULT_HERM_TOL) -> np.ndarray:
    a = as_hermitian(h, herm_tol)
    return np.linalg.eigvalsh(a)


def operator_sign(m) -> np.ndarray:
    """sgn(M) of a matrix Hermitian to 1e-8, with +1 on its zero eigenvalues."""
    w, u = np.linalg.eigh(as_hermitian(m, herm_tol=1e-8))
    return (u * np.where(w >= 0.0, 1.0, -1.0)) @ u.conj().T


def is_psd(m, tol: float = 1e-9) -> bool:
    """True iff the smallest eigenvalue of the Hermitian matrix is >= -tol."""
    a = as_hermitian(m)
    return float(np.linalg.eigvalsh(a)[0]) >= -tol


def operator_norm(m) -> float:
    """Largest |eigenvalue| of a Hermitian matrix."""
    w = eigvals_hermitian(m, herm_tol=np.inf)
    return float(np.max(np.abs(w)))


def trace_norm(m) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix."""
    w = eigvals_hermitian(m, herm_tol=np.inf)
    return float(np.sum(np.abs(w)))


def psd_sqrt(m, tol: float = 1e-9) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (negatives clipped at -tol)."""
    s = eig_hermitian(m, herm_tol=1e-9)
    w = s.eigenvalues
    if w[0] < -tol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    v = s.eigenvectors
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def commutator_norm(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = a @ b - b @ a
    # [A, B] need not be Hermitian; use the largest singular value
    return float(np.linalg.norm(c, 2))


# ---------------------------------------------------------------------------
# JSON wire format: complex matrices as row-major arrays of [re, im] pairs.
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("expected a nested array of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def hermitian_from_json(data) -> np.ndarray:
    """Deserialize and symmetrize a Hermitian matrix (Hermitian to 1e-9)."""
    return as_hermitian(matrix_from_json(data), 1e-9)
