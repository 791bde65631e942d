"""Dense complex Hermitian linear algebra shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def as_hermitian(m) -> np.ndarray:
    """Validate Hermiticity and return (M + M†)/2, by the package's one rule:
    every |M_ij - conj(M_ji)| is at most 1e-9 max(1, max |M_ij|).

    Symmetrizing absorbs rounding, such as a JSON round trip's; a larger
    deviation is a data error: HermiticityError with the entry's index.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    top = np.max(np.abs(a))
    if not top < np.inf:  # a nan or inf entry
        raise ValueError("matrix contains NaN or Inf entries")
    tol = 1e-9 * max(1.0, top)
    dev = np.abs(a - a.conj().T)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[i, j] > tol:
        raise HermiticityError((int(i), int(j)), float(dev[i, j]), tol)
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, H = V diag(w) V†


def eig_hermitian(h) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix (ascending eigenvalues)."""
    w, v = np.linalg.eigh(as_hermitian(h))
    return Spectrum(eigenvalues=w, eigenvectors=v)


def operator_sign(m) -> np.ndarray:
    """sgn(M) of a Hermitian matrix, with +1 on its zero eigenvalues."""
    w, u = np.linalg.eigh(as_hermitian(m))
    return (u * np.where(w >= 0.0, 1.0, -1.0)) @ u.conj().T


def operator_norm(m) -> float:
    """Largest |eigenvalue| of a Hermitian matrix."""
    w = np.linalg.eigvalsh(as_hermitian(m))
    return float(np.max(np.abs(w)))


def place(dim: int, pieces) -> np.ndarray:
    """The dim x dim sum of the (index, block) pieces, each block placed on
    the rows and columns index."""
    out = np.zeros((dim, dim), dtype=complex)
    for index, block in pieces:
        out[np.ix_(index, index)] += block
    return out


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
    """Deserialize and symmetrize a Hermitian matrix (as_hermitian's rule)."""
    return as_hermitian(matrix_from_json(data))
