"""Self-contained solver for small block-diagonal semidefinite programs.

Problems are stated in a standard primal form over a product of complex
Hermitian PSD cones (1x1 blocks double as nonnegative scalars):

    maximize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i     (i = 1..m)
                X_b PSD for every block b

with <A, X> = Re tr(A X). Inequalities get slack scalars at compile time.
The solver is a primal-dual interior-point method on the homogeneous
self-dual embedding of the program and its dual (Ye, Todd & Mizuno 1994),
with Nesterov-Todd scaling and Mehrotra's predictor-corrector. One run
ends at an optimum, a Farkas functional or an improving ray.

The compiled program holds every block as d^2 real coordinates over an
orthonormal basis, so an iterate is one flat real vector, <X, Z> is a dot
product, and A(X) and A*(y) are products with one sparse real m x N
matrix. A 2x2 block is PSD exactly when its coordinates lie in the
Lorentz cone L^4, and a 1x1 block is L^1: blocks of size 1 and 2 take the
NT scaling, the step length and Mehrotra's term in closed form, from the
spin-factor Jordan algebra, with no eigh; larger blocks take batched eigh
per size group. The Schur complement, the one dense m x m matrix, is
one sparse-times-dense product Q Q^T of the scaled constraints Q with a
dense copy of their transpose, so it is symmetric to the last bit.

A program compiles once: compile() keeps its result until the program
changes, and with_rhs() gives a program of the same shape with other
right-hand sides (and objective) that shares the compiled structure, so a
family of programs that differ only in their data is assembled once.
An infeasible program keeps the embedding's own Farkas ray, scaled to
max |y_i| = 1: y with A*(y) PSD and b.y < 0, checkable directly on the raw
problem data.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps

from .linalg import matrix_to_json

DEFAULT_TOL = 1e-8  # relative primal and dual residuals and duality gap
DEFAULT_MAX_ITER = 200
CERT_TOL = 1e-7  # dual and Farkas cone slack; x's cone and rows, and a bracket, to 10x


class SdpError(RuntimeError):
    """Ill-posed problem data or solver breakdown."""


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Coefficient matrices extracting the real coordinates of a Hermitian X.

    For E in the returned list, <E, X> = Re tr(E X) runs over X_ii, then
    Re X_ij and Im X_ij for i < j; dim^2 matrices in total, so pairing a
    matrix equality against all of them encodes it exactly.
    """
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 0.5
            e[j, i] = 0.5
            out.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 0.5j
            e[j, i] = -0.5j
            out.append(e)
    return out


@lru_cache(maxsize=None)
def _basis_stack(dim: int) -> np.ndarray:
    stack = np.stack(hermitian_basis(dim))
    stack.setflags(write=False)  # shared between all callers
    return stack


def _hermitian(a, dim: int, what: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim == 0:
        m = m * np.eye(1)
    if m.shape != (dim, dim):
        raise SdpError(f"{what} must be {dim}x{dim}, got {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise SdpError(f"{what} is not Hermitian")
    return 0.5 * (m + m.conj().T)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # shared between programs of one shape
    return a


def matrix_rhs(rhs) -> np.ndarray:
    """The D^2 right-hand sides of a matrix equation ... = rhs for a
    Hermitian D x D rhs: its pairings with hermitian_basis(D)."""
    r = np.atleast_2d(rhs)
    return _coords(_hermitian(r, r.shape[0], "right-hand side")[None])[0]


@dataclass
class BlockSdp:
    """Builder for a block-diagonal SDP (see module docstring for the form).

    Coefficient matrices are read-only once added. compile() keeps its
    result until the program changes: the add_* methods, set_objective and
    any attribute assignment drop it (a list changed in place is not seen).
    """

    block_dims: list[int] = field(default_factory=list)
    block_names: list[str] = field(default_factory=list)
    equalities: list[tuple[dict, float]] = field(default_factory=list)
    inequalities: list[tuple[dict, float]] = field(default_factory=list)
    objective: dict = field(default_factory=dict)

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name != "_compiled":
            object.__setattr__(self, "_compiled", None)

    def add_block(self, dim: int, name: str | None = None) -> int:
        if dim < 1:
            raise SdpError("block dimension must be >= 1")
        self.block_dims.append(int(dim))
        self.block_names.append(name or f"X{len(self.block_dims) - 1}")
        self._compiled = None
        return len(self.block_dims) - 1

    def add_scalar(self, name: str | None = None) -> int:
        return self.add_block(1, name or f"s{len(self.block_dims)}")

    def _dim(self, b) -> int:
        """The size of block b, which must exist."""
        if not 0 <= b < len(self.block_dims):
            raise SdpError(f"no block {b} among {len(self.block_dims)}")
        return self.block_dims[b]

    def _coeffs(self, coeffs: dict) -> dict:
        return {int(b): _frozen(_hermitian(a, self._dim(int(b)), f"coefficient for block {b}"))
                for b, a in coeffs.items()}

    def add_equality(self, coeffs: dict, rhs: float) -> int:
        """sum_b <coeffs[b], X_b> = rhs; returns the constraint index."""
        self.equalities.append((self._coeffs(coeffs), float(rhs)))
        self._compiled = None
        return len(self.equalities) - 1

    def add_matrix_equality(self, terms, rhs) -> None:
        """A Hermitian D x D equation sum(terms) = rhs, as D^2 real rows.

        A term is (block, rows, scale), adding scale * P X_block P^T where P
        puts the block on the listed rows of the D x D matrix (rows=None:
        all D rows; the rows must be distinct and in range), or (scalar, F),
        adding x * F for a 1x1 block x and a fixed Hermitian F. Row i pairs
        the equation with the i-th matrix of hermitian_basis(D) (matrix_rhs
        gives the right-hand sides); a term whose coefficient vanishes on a
        row is left out of that row, and terms on the same block add up.
        """
        values = matrix_rhs(rhs)
        size = np.atleast_2d(rhs).shape[0]
        basis = _basis_stack(size)
        cols = []
        for term in terms:
            b = int(term[0])
            dim = self._dim(b)
            if len(term) == 3:
                _, rows, scale = term
                if rows is not None and (len(set(rows)) != len(rows)
                                         or not all(0 <= i < size for i in rows)):
                    raise SdpError(f"block {b} placed on rows {list(rows)} of a {size}x{size} "
                                   f"equation: they must be distinct and in range")
                sub = basis if rows is None else basis[:, rows][:, :, rows]
                if sub.shape[1] != dim:
                    raise SdpError(f"block {b} is {dim}x{dim}, placed on {sub.shape[1]} rows")
                coeffs = _frozen(scale * sub)
                cols.append((b, coeffs, np.any(coeffs != 0, axis=(1, 2))))
            else:
                if dim != 1:
                    raise SdpError(f"block {b} times a fixed matrix must be 1x1")
                vals = _coords(_hermitian(term[1], size, f"matrix of block {b}")[None])[0]
                cols.append((b, _frozen(vals[:, None, None].astype(complex)), vals != 0))
        for i, rhs_i in enumerate(values):
            row = {}
            for b, coeffs, keep in cols:
                if keep[i]:  # terms on one block add up
                    row[b] = _frozen(row[b] + coeffs[i]) if b in row else coeffs[i]
            self.equalities.append((row, float(rhs_i)))
        self._compiled = None

    def add_inequality(self, coeffs: dict, rhs: float) -> None:
        """sum_b <coeffs[b], X_b> <= rhs (compiled via a slack scalar)."""
        self.inequalities.append((self._coeffs(coeffs), float(rhs)))
        self._compiled = None

    def set_objective(self, coeffs: dict) -> None:
        """Maximize sum_b <coeffs[b], X_b>."""
        self.objective = self._coeffs(coeffs)

    def with_rhs(self, rhs, objective: dict | None = None) -> BlockSdp:
        """This program with the right-hand sides rhs (the equalities', then
        the inequalities') and, if given, the objective set_objective would
        set. The copy shares the coefficient dicts and carries its compiled
        form, which shares this program's compiled structure, so it costs
        no assembly and no compile."""
        comp = self._compiled or self.compile()  # a compiled template is only read
        values = np.array(rhs, dtype=float)
        if values.shape != comp.b.shape:
            raise SdpError(f"{values.size} right-hand sides for {comp.b.size} rows")
        n = len(self.equalities)
        vals = values.tolist()
        out = BlockSdp(list(self.block_dims), list(self.block_names),
                       [(cs, v) for (cs, _), v in zip(self.equalities, vals[:n])],
                       [(cs, v) for (cs, _), v in zip(self.inequalities, vals[n:])],
                       self.objective if objective is None else self._coeffs(objective))
        out._compiled = comp = copy.copy(comp)  # shares every array but b and c
        comp.b = _frozen(values)
        if objective is not None:
            comp.c = comp._objective_vector(out.objective)
        return out

    def primal_check(self, x) -> tuple[float, float]:
        """The compiled program's primal_check of x (one Hermitian matrix
        per block), with each inequality's slack scalar at rhs - lhs, so
        that a violated inequality shows as a negative eigenvalue."""
        if len(x) != len(self.block_dims):
            raise SdpError(f"{len(x)} blocks given for {len(self.block_dims)}")
        xs = [_hermitian(xb, d, f"block {b}")
              for b, (xb, d) in enumerate(zip(x, self.block_dims))]
        comp = self.compile()
        slack = comp.b - comp.apply_a(comp.vector(xs + [np.zeros((1, 1))] * len(self.inequalities)))
        x_slack = [np.eye(1) * v for v in slack[len(self.equalities):]]
        return comp.primal_check(comp.vector(xs + x_slack))

    # -- compiled view -----------------------------------------------------

    def compile(self) -> _Compiled:
        """The compiled program, with a slack scalar closing each inequality."""
        if self._compiled is None:
            n, one = len(self.block_dims), np.eye(1, dtype=complex)
            rows = self.equalities + [({**cs, n + k: one}, rhs)
                                      for k, (cs, rhs) in enumerate(self.inequalities)]
            self._compiled = _Compiled(self.block_dims + [1] * len(self.inequalities), rows,
                                       self.objective)
        return self._compiled

    def to_json(self) -> dict:
        return {
            "block_dims": self.block_dims,
            "block_names": self.block_names,
            "equalities": [
                {"coeffs": {str(b): matrix_to_json(a) for b, a in cs.items()}, "rhs": rhs}
                for cs, rhs in self.equalities
            ],
            "inequalities": [
                {"coeffs": {str(b): matrix_to_json(a) for b, a in cs.items()}, "rhs": rhs}
                for cs, rhs in self.inequalities
            ],
            "objective": {str(b): matrix_to_json(a) for b, a in self.objective.items()},
        }


# ---------------------------------------------------------------------------
# Real coordinates of Hermitian blocks
# ---------------------------------------------------------------------------

def _coords(x: np.ndarray) -> np.ndarray:
    """<E_k, X> over hermitian_basis(d) for a stack of Hermitian d x d
    matrices, (n, d^2): X_ii, then Re X_ij and Im X_ij for i < j."""
    n, d = x.shape[:2]
    return (x.reshape(n, d * d) @ _basis_stack(d).reshape(d * d, d * d).conj().T).real


@lru_cache(maxsize=None)
def _onb(d: int) -> np.ndarray:
    """The solver's orthonormal basis B_k of Hermitian d x d matrices, as a
    (d^2, d^2) array of flattened matrices: hermitian_basis(d) with its
    off-diagonal matrices scaled by sqrt 2, except that for d = 2 the
    diagonal pair is (I, sigma_z)/sqrt 2. A 2x2 block then has coordinates
    ((x11 + x22)/sqrt 2, (x11 - x22)/sqrt 2, sqrt 2 Re x12, sqrt 2 Im x12),
    a Lorentz cone vector."""
    basis = _basis_stack(d) * np.where(np.arange(d * d) < d, 1.0, np.sqrt(2.0))[:, None, None]
    if d == 2:
        basis = np.concatenate([basis[:1] + basis[1:2], basis[:1] - basis[1:2]]
                               + [np.sqrt(2.0) * basis[2:]]) / np.sqrt(2.0)
    flat = basis.reshape(d * d, d * d)
    flat.setflags(write=False)  # shared between all callers
    return flat


def _vec(x: np.ndarray) -> np.ndarray:
    """Solver coordinates <B_k, X> of a stack of Hermitian matrices, (n, d^2);
    <X, Z> = vec(X) . vec(Z)."""
    n, d = x.shape[:2]
    return (x.reshape(n, d * d) @ _onb(d).conj().T).real


def _mat(v: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrices sum_k v_k B_k for the rows v of a (n, d^2) array."""
    return (v @ _onb(d)).reshape(-1, d, d)


def _indptr(rows, m):
    """CSR row pointers of sorted entries in the given rows."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))


def _congruence(r: np.ndarray) -> np.ndarray:
    """Per block of a stack, the real d^2 x d^2 matrix M with
    vec(R^H A R) = vec(A) M; M M^T is the map A -> W A W for W = R R^H."""
    n, d = r.shape[:2]
    basis = _onb(d)
    # (R^H B_k R)_ab = sum_ij conj(R_ia) R_jb (B_k)_ij
    kron = np.einsum("nia,njb->nijab", r.conj(), r).reshape(n, d * d, d * d)
    return (basis @ kron @ basis.conj().T).real


def _ct(x):
    return x.conj().swapaxes(-1, -2)


def _sym(m):
    return 0.5 * (m + _ct(m))


class _Compiled:
    """A program in the solver's layout.

    Every block is a vector of d^2 real coordinates over the orthonormal
    basis of _onb, so that <X, Z> is a dot product. Blocks of one size d
    form a group; an iterate is one flat vector, group after group (sizes
    ascending) and block after block, and split() views a group as (n, d^2).
    x[g][k] of a split vector is block members[g][k]. The constraint matrix
    a is m x N sparse real, so A(X) = a @ x and A*(y) = at @ y. It stores
    each (row, block) coefficient as a whole d^2 segment, zeros included, so
    that the scaled constraints of schur() share its pattern. b is the
    right-hand side and c the objective vector. Every array is read-only,
    because BlockSdp.with_rhs shares all but b and c between the programs
    of one shape.
    """

    def __init__(self, dims, rows, objective):
        self.dims = dims
        m = len(rows)
        self.b = _frozen(np.array([rhs for _, rhs in rows], dtype=float))
        self.sizes = sorted(set(dims))
        group = {d: g for g, d in enumerate(self.sizes)}
        self.members = [[] for _ in self.sizes]
        self.where = []  # (group, position) of every block
        for bi, d in enumerate(dims):
            self.where.append((group[d], len(self.members[group[d]])))
            self.members[group[d]].append(bi)
        counts = [len(mem) * d * d for mem, d in zip(self.members, self.sizes)]
        self.starts = np.concatenate(([0], np.cumsum(counts))).astype(int)
        n = int(self.starts[-1])

        # the (row, block) coefficients of each group: rows, block positions, matrices
        found = [([], [], []) for _ in self.sizes]
        for i, (cs, _) in enumerate(rows):
            for bi, coeff in cs.items():
                g, k = self.where[bi]
                found[g][0].append(i)
                found[g][1].append(k)
                found[g][2].append(coeff)
        self.entries = []  # per group: block positions and coefficient coordinates
        seg_rows, seg_cols = [], []
        for (ids, pos, mats), d, start in zip(found, self.sizes, self.starts):
            pos = np.array(pos, dtype=int)
            self.entries.append((pos, _vec(np.array(mats, dtype=complex).reshape(-1, d, d))))
            seg_rows.append(np.repeat(np.array(ids, dtype=int), d * d))
            seg_cols.append((start + pos[:, None] * d * d + np.arange(d * d)).ravel())
        rows_, cols = np.concatenate(seg_rows), np.concatenate(seg_cols)
        self._order = np.lexsort((cols, rows_))  # segment values -> CSR order
        order_t = np.lexsort((rows_[self._order], cols[self._order]))
        self.a = sps.csr_matrix((self._segments(coef for _, coef in self.entries),
                                 cols[self._order], _indptr(rows_, m)), shape=(m, n))
        self.at = sps.csr_matrix((self.a.data[order_t], rows_[self._order][order_t],
                                  _indptr(cols, n)), shape=(n, m))
        # where each CSR entry (i, k) of a sits in the flat N x m transpose
        self._t_index = self.a.indices.astype(int) * m + rows_[self._order]
        for arr in (self.starts, self._order, self._t_index, *(v for e in self.entries for v in e),
                    *(getattr(mat, k) for mat in (self.a, self.at)
                      for k in ("data", "indices", "indptr"))):
            _frozen(arr)
        self.c = self._objective_vector(objective)

    def _objective_vector(self, objective) -> np.ndarray:
        return _frozen(self.vector([objective.get(bi, np.zeros((d, d)))
                                    for bi, d in enumerate(self.dims)]))

    def split(self, v) -> list[np.ndarray]:
        """Views of a flat vector as one (n, d^2) array per group."""
        return [v[s:e].reshape(-1, d * d)
                for s, e, d in zip(self.starts, self.starts[1:], self.sizes)]

    def vector(self, blocks) -> np.ndarray:
        """The flat vector of one Hermitian matrix per block."""
        return np.concatenate([
            _vec(np.array([blocks[bi] for bi in mem], dtype=complex).reshape(len(mem), d, d)).ravel()
            for mem, d in zip(self.members, self.sizes)])

    def blocks(self, v) -> list[np.ndarray]:
        """One matrix per block from a flat vector; copies, so that a block
        kept by a caller does not keep its whole group alive."""
        mats = [_mat(vg, d) for vg, d in zip(self.split(v), self.sizes)]
        return [mats[g][k].copy() for g, k in self.where]

    def eye(self) -> np.ndarray:
        return self.vector([np.eye(d) for d in self.dims])

    def apply_a(self, x) -> np.ndarray:
        """A(X): row i is sum_b <A_ib, X_b>."""
        return self.a @ x

    def apply_at(self, y) -> np.ndarray:
        """A*(y) = sum_i y_i A_i."""
        return self.at @ np.asarray(y, dtype=float)

    def _segments(self, per_group) -> np.ndarray:
        """CSR data in a's pattern from each group's (entries, d^2) values."""
        return np.concatenate([v.ravel() for v in per_group])[self._order]

    def schur(self, maps) -> np.ndarray:
        """A P A^T for the block-diagonal map P = M M^T, given per group the
        (n, d^2, d^2) stack of the blocks' M (the NT scaling's R).

        Q holds the rows vec(A_ib) M_b in the pattern of a, and the Schur
        complement is one sparse-times-dense product of Q with a dense copy
        of Q^T. Entry (i, j) sums q_ik q_jk over row i's pattern in column
        order, and the products outside row j's pattern are exact zeros, so
        both triangles sum the same nonzero products in the same order: the
        result is exactly symmetric.
        """
        q = sps.csr_matrix((self._segments(np.einsum("ek,ekc->ec", coef, mg[pos])
                                           for (pos, coef), mg in zip(self.entries, maps)),
                            self.a.indices, self.a.indptr), shape=self.a.shape)
        qt = np.zeros(self.at.shape)
        qt.flat[self._t_index] = q.data
        return q @ qt

    def _min_eig(self, v) -> float:
        return min(float(np.linalg.eigvalsh(_mat(vg, d))[:, 0].min())
                   for vg, d in zip(self.split(v), self.sizes))

    def primal_check(self, v) -> tuple[float, float]:
        """Min eigenvalue over the blocks of the flat vector v (the compiled
        slack scalars included) and the largest |A(X) - b|."""
        return self._min_eig(v), float(np.max(np.abs(self.apply_a(v) - self.b)))

    def dual_check(self, y, farkas: bool = False) -> tuple[float, float]:
        """Min eigenvalue of A*(y) - C over the blocks, and b.y.

        A dual y is feasible when the eigenvalue is >= 0; then b.y bounds
        the primal optimum from above. A Farkas check drops C: A*(y) PSD
        with b.y < 0 proves the primal infeasible.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != self.b.shape:
            raise SdpError(f"dual vector has {y.size} entries for {self.b.size} rows")
        aty = self.apply_at(y)
        return self._min_eig(aty if farkas else aty - self.c), float(np.dot(self.b, y))


@dataclass
class SdpSolution:
    """A solve's iterate. A caller accepts it by its bounds lower, upper and
    bracket(), checked (not verified) on first read, not by its status.
    primal is the flat iterate x / tau that the solver split into x; a copy
    made by dataclasses.replace (which may carry other blocks) has none, and
    lower then rebuilds it from x."""

    status: str  # optimal | infeasible | stalled | diverged | max_iter
    x: list[np.ndarray]
    y: np.ndarray
    z: list[np.ndarray]
    objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    program: _Compiled | None = field(default=None, repr=False)  # the program solved
    primal: InitVar[np.ndarray | None] = None

    def __post_init__(self, primal):
        self._primal = primal

    @cached_property
    def lower(self) -> float:
        """min(objective, dual_objective) if x is PSD and holds its rows to
        10 CERT_TOL, else -inf."""
        if not self.x:
            return -np.inf
        v = self.program.vector(self.x) if self._primal is None else self._primal
        min_eig, worst = self.program.primal_check(v)
        ok = min_eig >= -10 * CERT_TOL and worst <= 10 * CERT_TOL
        return min(self.objective, self.dual_objective) if ok else -np.inf

    @cached_property
    def dual_min_eig(self) -> float:
        """The least eigenvalue of A*(y) - C over the blocks."""
        return self.program.dual_check(self.y)[0]

    @cached_property
    def upper(self) -> float:
        """max(objective, dual_objective) if A*(y) - C >= -CERT_TOL (weak duality), else +inf."""
        ok = self.dual_min_eig >= -CERT_TOL
        return float(np.fmax(self.objective, self.dual_objective)) if ok else np.inf

    def bracket(self) -> tuple[float, float]:
        """(lower, upper); SdpError when they lie more than 10 CERT_TOL apart."""
        if not self.upper - self.lower <= 10 * CERT_TOL:
            raise SdpError(f"open bracket: status {self.status}, ({self.lower}, {self.upper})")
        return self.lower, self.upper

    def block(self, idx: int) -> np.ndarray:
        return self.x[idx]

    def scalar(self, idx: int) -> float:
        return float(self.x[idx][0, 0].real)

    def to_json(self) -> dict:
        """The solution as JSON data; a number that is not finite is null."""
        finite = lambda v: float(v) if np.isfinite(v) else None
        return {
            "status": self.status,
            "objective": finite(self.objective),
            "dual_objective": finite(self.dual_objective),
            "gap": finite(self.gap),
            "primal_residual": finite(self.primal_residual),
            "dual_residual": finite(self.dual_residual),
            "iterations": self.iterations,
            "x": [matrix_to_json(m) for m in self.x],
            "y": [float(v) for v in self.y],
        }


# ---------------------------------------------------------------------------
# Core iteration: NT scaling, step length and Mehrotra's term per size group
# ---------------------------------------------------------------------------

def _lorentz(v):
    """v^T J v = v0^2 - |v'|^2 of each row, J = diag(1, -1, ..., -1): 2 det X
    for a 2x2 block, X^2 for a 1x1 one. Floored at 1e-17 v0^2, so that
    rounding cannot put an interior point on the boundary."""
    v0 = v[:, 0]
    return np.maximum(v0 * v0 - np.einsum("ij,ij->i", v[:, 1:], v[:, 1:]), 1e-17 * v0 * v0)


def _apply(m, v):
    """Row n of the result is m[n] @ v[n]."""
    return np.matmul(m, v[:, :, None])[:, :, 0]


class _Spin:
    """A group of 1x1 or 2x2 blocks as spin-factor (Lorentz) cones.

    A 2x2 block's coordinates v are PSD exactly when v0 >= |v'| for the
    tail v' = (v1, v2, v3): the cone L^4. A 1x1 block is L^1, the same cone
    with an empty tail. There (XY + YX)/2 is u o v = (u.v, u0 v' + v0 u')/sqrt d,
    the identity is e = (sqrt d, 0) and v^T J v stands for the determinant,
    so the NT scaling, the step length and Mehrotra's term have closed forms
    (Alizadeh & Goldfarb, Math. Program. 95, 2003, sections 4-5). With
    P(u) = 2 u u^T - J and beta = sqrt(det x / det z), the scaling is
    R = sqrt(beta) P(u~) and R^2 = beta P(v), for the NT point v of the
    normalized pair and its square root u~; R z = R^-1 x is lam.
    """

    def __init__(self, x, z, d):
        n, self.sd = len(x), np.sqrt(d)
        j = np.where(np.arange(d * d) == 0, 1.0, -1.0)
        self.v = np.concatenate((x, z))  # x over z, for one step-length pass
        self.q = _lorentz(self.v)
        xb, zb = np.split(self.v / np.sqrt(self.q)[:, None], 2)
        v = (xb + j * zb) / np.sqrt(2.0 + 2.0 * np.einsum("ij,ij->i", xb, zb))[:, None]
        u = v + (j > 0)  # v + e, then normalized: the square root of v
        u /= np.sqrt(2.0 * u[:, :1])
        beta = np.sqrt(self.q[:n] / self.q[n:])[:, None, None]
        pu = 2.0 * u[:, :, None] * u[:, None, :] - np.diag(j)
        self.r = np.sqrt(beta) * pu
        self.rinv = np.outer(j, j) * pu / np.sqrt(beta)  # P(u)^-1 = J P(u) J
        self.w2 = beta * (2.0 * v[:, :, None] * v[:, None, :] - np.diag(j))
        self.lam = _apply(self.r, z)
        self.zinv = z * (d * j) / self.q[n:, None]  # d J z / det z

    def _jordan(self, u, v):
        out = u[:, :1] * v + v[:, :1] * u
        out[:, 0] = np.einsum("ij,ij->i", u, v)
        return out / self.sd

    def solve(self, lam, w):
        """s with lam o s = w (the arrow matrix of lam inverted)."""
        s = np.empty_like(w)
        s[:, 0] = self.sd * (lam[:, 0] * w[:, 0] - np.einsum("ij,ij->i", lam[:, 1:], w[:, 1:]))
        s[:, 0] /= _lorentz(lam)
        s[:, 1:] = (self.sd * w[:, 1:] - s[:, :1] * lam[:, 1:]) / lam[:, :1]
        return s

    def center(self, sm, dx, dz):
        """sm z^-1 - x plus Mehrotra's term -R (lam \\ (dx~ o dz~)) for
        dx~ = R^-1 dx and dz~ = R dz."""
        t = self.solve(self.lam, self._jordan(_apply(self.rinv, dx), _apply(self.r, dz)))
        return sm * self.zinv - self.v[:len(t)] - _apply(self.r, t)

    def max_step(self, dx, dz) -> float:
        """Largest alpha with x + alpha dx and z + alpha dz in the cones:
        -1/mu for the least root mu of det(dv - mu v), the least eigenvalue
        of V^-1/2 dV V^-1/2, if it is negative. The discriminant is written
        as a sum of squares."""
        v, q, dv = self.v, self.q, np.concatenate((dx, dz))
        v0, t, d0, dt = v[:, 0], v[:, 1:], dv[:, 0], dv[:, 1:]
        p = v0 * d0 - np.einsum("ij,ij->i", t, dt)
        w = v0[:, None] * dt - d0[:, None] * t
        disc = np.sqrt(q * np.einsum("ij,ij->i", w, w) + np.einsum("ij,ij->i", t, w) ** 2)
        mu = float(np.min((p - disc / v0) / q))
        if not np.isfinite(mu):
            return 0.0
        return -1.0 / mu if mu < 0 else np.inf


def _floor(w):
    """Eigenvalues raised to at least 1e-17 of the largest."""
    return np.maximum(w, np.maximum(w[:, -1:], 1e-128) * 1e-17)


class _Eigh:
    """A group of d x d blocks, d >= 3, through eigh: the NT scaling R with
    W = R R^H and W Z W = X, lam = R^H Z R = R^-1 X R^-H (diagonal), and the
    maps of R and of W . W on the coordinates."""

    def __init__(self, x, z, d):
        self.d = d
        self.x, self.z = _mat(x, d), _mat(z, d)
        wx, ux = np.linalg.eigh(self.x)
        wx = _floor(wx)[:, None, :]
        xh = (ux * np.sqrt(wx)) @ _ct(ux)
        wm, um = np.linalg.eigh(_sym(xh @ self.z @ xh))
        self.rm = xh @ (um / np.sqrt(np.sqrt(_floor(wm)))[:, None, :])
        self.lam = np.sqrt(_floor(wm))
        wz, uz = np.linalg.eigh(self.z)
        wz = _floor(wz)[:, None, :]
        self.zinv = (uz / wz) @ _ct(uz)
        self.xmh, self.zmh = (ux / np.sqrt(wx)) @ _ct(ux), (uz / np.sqrt(wz)) @ _ct(uz)
        self.r = _congruence(self.rm)
        self.w2 = self.r @ self.r.swapaxes(1, 2)

    def center(self, sm, dx, dz):
        """sm Z^-1 - X plus Mehrotra's term."""
        return _vec(sm * self.zinv - self.x
                    + _second_order(self.rm, self.lam, self.z, _mat(dx, self.d), _mat(dz, self.d)))

    def max_step(self, dx, dz) -> float:
        """Largest alpha with X + alpha dX and Z + alpha dZ PSD."""
        g = _sym(np.concatenate([mh @ _mat(dv, self.d) @ mh
                                 for mh, dv in ((self.xmh, dx), (self.zmh, dz))]))
        if not np.all(np.isfinite(g)):
            return 0.0
        lmin = float(np.linalg.eigvalsh(g)[:, 0].min())
        return -1.0 / lmin if lmin < 0 else np.inf


def _second_order(r, lam, z, dx, dz):
    """Mehrotra's term of one group in the NT-scaled space, where
    R^H Z R = R^-1 X R^-H = lam: -R (dX~ dZ~ + dZ~ dX~)_ij / (lam_i + lam_j) R^H
    for dX~ = R^-1 dX R^-H = lam^-1 R^H Z dX Z R lam^-1 and dZ~ = R^H dZ R."""
    rz = _ct(r) @ z
    p = (rz @ dx @ _ct(rz)) / (lam[:, :, None] * lam[:, None, :]) @ (_ct(r) @ dz @ r)
    return -(r @ ((p + _ct(p)) / (lam[:, :, None] + lam[:, None, :])) @ _ct(r))


def _factor_schur(s):
    """A solve with s: its Cholesky factor, shifted on the diagonal when
    rounding leaves s indefinite, and one step of iterative refinement,
    which keeps the Newton residual small when s becomes ill-conditioned
    near the optimum."""
    m = s.shape[0]
    base = 1e-14 * (np.trace(s) / m + 1.0)
    solve = lambda r: np.linalg.lstsq(s, r, rcond=None)[0]
    potrs = sla.get_lapack_funcs("potrs", (s,))  # cho_solve without its per-call checks
    for jitter in (0.0, base, 1e3 * base, 1e6 * base):
        try:
            shifted = s if jitter == 0.0 else s.copy()
            shifted.flat[::m + 1] += jitter
            cf, _ = sla.cho_factor(shifted, lower=True, overwrite_a=bool(jitter))
            solve = lambda r: potrs(cf, r, lower=1)[0]
            break
        except (np.linalg.LinAlgError, sla.LinAlgError):
            pass
    return lambda r: (u := solve(r)) + solve(r - s @ u)


def _ipm(comp: _Compiled, tol: float, max_iter: int) -> SdpSolution:
    """Homogeneous self-dual embedding of the program and its dual.

    X, Z PSD and tau, kappa >= 0 with A(X) = tau b, A*(y) - Z = tau C and
    kappa = <C, X> - b.y; then <X, Z> + tau kappa = 0, so a solution has
    tau > 0 and gives the optimum (X, y, Z) / tau, or kappa > 0 and gives a
    Farkas functional (b.y < 0, A*(y) = Z PSD) or an improving ray
    (<C, X> > 0, A(X) = 0); a Farkas functional is returned as y scaled to
    max |y_i| = 1, with no primal or dual point (see solve). Each step is
    one Cholesky factor of the Schur complement, solved for the tau column
    and for the Mehrotra predictor and corrector, and (X, tau) and
    (y, Z, kappa) share one step length.
    X and Z are flat coordinate vectors (see _Compiled); groups of 1x1 and
    2x2 blocks scale as spin-factor cones (_Spin), larger ones by eigh.
    """
    b, c, e = comp.b, comp.c, comp.eye()
    nu = sum(comp.dims) + 1
    x, z = e.copy(), e.copy()
    y = np.zeros(b.size)
    tau = kappa = 1.0
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))
    status = "max_iter"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, max_iter + 1):
            ax, aty = comp.apply_a(x), comp.apply_at(y)
            rp = tau * b - ax
            rd = tau * c + z - aty
            cx, by, xz = float(c @ x), float(b @ y), float(x @ z)
            rg = kappa - cx + by
            mu = (xz + tau * kappa) / nu
            norm_rp = float(np.linalg.norm(rp))
            rel_p = norm_rp / (tau * norm_b)
            rel_d = float(np.linalg.norm(rd)) / (tau * norm_c)
            rel_gap = xz / (tau * (tau + abs(cx) + abs(by)))
            if not (np.isfinite(rel_p) and np.isfinite(rel_d) and np.isfinite(mu)):
                status = "diverged"
                break
            if rel_p <= tol and rel_d <= tol and rel_gap <= tol:
                status = "optimal"
                break
            if by < 0 and np.linalg.norm(aty - z) <= -tol * by:
                status = "infeasible"
                break
            if cx > 0 and np.linalg.norm(ax) <= tol * cx:
                raise SdpError(f"problem is unbounded: improving ray with slope "
                               f"{cx / float(e @ x):.3e}")
            # past this, steps only shrink mu against rounding-level residuals
            if mu <= 1e-13 * (tau + kappa) ** 2:
                status = "stalled"
                break
            if it == max_iter:
                break

            cones = [(_Spin if d <= 2 else _Eigh)(xg, zg, d)
                     for xg, zg, d in zip(comp.split(x), comp.split(z), comp.sizes)]

            def scaled(v):
                """W V W for every block: P(W) v."""
                return np.concatenate([_apply(k.w2, vg).ravel()
                                       for k, vg in zip(cones, comp.split(v))])

            s = solve_fn = None  # the last Schur matrix and factor go before the next
            s = comp.schur([k.r for k in cones])
            solve_fn = _factor_schur(s)
            # the tau column: dX = W V W moves A(X) by b for V = C - A*(dy_tau),
            # and den is the pivot of the tau row after eliminating dy
            dy_tau = solve_fn(comp.apply_a(scaled(c)) - b)
            v = c - comp.apply_at(dy_tau)
            wvw = scaled(v)
            den = float(c @ wvw) - float(b @ dy_tau) + kappa / tau
            wrw = scaled(rd)

            def newton(h, rp_, rg_, rtk):
                """dX, dy, A*(dy) - dtau C and dtau for the Newton equations
                A(dX) - dtau b = rp_, dX + W dZ W = h with the dual
                residual folded into h, <C, dX> - b.dy - dkappa = rg_ and
                kappa dtau + tau dkappa = rtk; h = None stands for 0."""
                dy = solve_fn(-rp_ if h is None else comp.apply_a(h) - rp_)
                aty_ = comp.apply_at(dy)
                dx = -scaled(aty_)
                if h is not None:
                    dx += h
                dtau = (rg_ + float(b @ dy) + rtk / tau - float(c @ dx)) / den
                return dx + dtau * wvw, dy + dtau * dy_tau, aty_ - dtau * v, dtau

            def residual(dx, dy, dtau, rtk):
                e_p = rp - comp.apply_a(dx) + dtau * b
                e_g = rg - float(c @ dx) + float(b @ dy) + (rtk - kappa * dtau) / tau
                err = max(float(np.linalg.norm(e_p)) / (1.0 + norm_rp), abs(e_g) / (1.0 + abs(rg)))
                return e_p, e_g, err

            def direction(h, rtk):
                """The Newton direction for dX + W dZ W = h and kappa dtau +
                tau dkappa = rtk. It is refined against the equations that
                carry b and C, for as long as that lowers their residual;
                the correction keeps the other equations exact."""
                dx, dy, dzc, dtau = newton(h + wrw, rp, rg, rtk)
                e_p, e_g, err = residual(dx, dy, dtau, rtk)
                for _ in range(2):
                    if err <= 1e-13:
                        break
                    ddx, ddy, ddzc, ddtau = newton(None, e_p, e_g, 0.0)
                    cand = dx + ddx, dy + ddy, dtau + ddtau
                    e_p, e_g, new_err = residual(*cand, rtk)
                    if new_err >= err:
                        break
                    (dx, dy, dtau), err = cand, new_err
                    dzc = dzc + ddzc
                return dx, dy, dzc - rd, dtau, (rtk - kappa * dtau) / tau

            def step(dx, dz, dtau, dkappa):
                limit = min([k.max_step(dxg, dzg)
                             for k, dxg, dzg in zip(cones, comp.split(dx), comp.split(dz))]
                            + [-v / dv for v, dv in ((tau, dtau), (kappa, dkappa)) if dv < 0])
                return min(1.0, 0.98 * limit)

            # the affine predictor chooses the centering weight, the
            # corrector adds its second-order term
            dx, dy, dz, dtau, dkappa = direction(-x, -tau * kappa)
            a = step(dx, dz, dtau, dkappa)
            mu_aff = (float((x + a * dx) @ (z + a * dz))
                      + (tau + a * dtau) * (kappa + a * dkappa)) / nu
            sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3
            h = np.concatenate([k.center(sigma * mu, dxg, dzg).ravel()
                                for k, dxg, dzg in zip(cones, comp.split(dx), comp.split(dz))])
            dx, dy, dz, dtau, dkappa = direction(h, sigma * mu - tau * kappa - dtau * dkappa)
            a = step(dx, dz, dtau, dkappa)
            if a < 1e-12:
                status = "stalled"
                break
            x = x + a * dx
            z = z + a * dz
            y = y + a * dy
            tau, kappa = tau + a * dtau, kappa + a * dkappa

    if status == "infeasible":
        y = y / np.max(np.abs(y))
        return SdpSolution(status, [], y, [], np.nan, float(b @ y), np.nan, np.nan, np.nan,
                           it, comp)
    x = x / tau
    return SdpSolution(status, comp.blocks(x), y / tau, comp.blocks(z / tau), cx / tau,
                       by / tau, xz / tau ** 2, rel_p, rel_d, it, comp, x)


# ---------------------------------------------------------------------------
# Public solve
# ---------------------------------------------------------------------------

def verify_infeasibility_certificate(problem: BlockSdp, y) -> bool:
    """Re-check a Farkas functional y, A*(y) PSD and b.y < 0, directly on
    the problem data, both to CERT_TOL. A malformed y fails the check."""
    try:
        min_eig, b_dot_y = problem.compile().dual_check(y, farkas=True)
    except (KeyError, ValueError, TypeError, SdpError):
        return False
    return min_eig >= -CERT_TOL and b_dot_y < -CERT_TOL


def solve(problem: BlockSdp, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve a BlockSdp through its homogeneous self-dual embedding.

    Deterministic for identical inputs. The status is 'optimal' (relative
    residuals and gap all at most tol), 'infeasible' or the reason the
    iteration stopped early ('stalled', 'diverged' or 'max_iter'), whose
    last iterate is returned; an improving ray raises SdpError. One
    interior-point run answers every case. An infeasible program's y is the
    embedding's Farkas functional, scaled to max |y_i| = 1 (check it with
    verify_infeasibility_certificate), and dual_objective is its b.y; it
    has no primal or dual point, so x and z are empty and the objective,
    gap and residuals are nan (the embedding's iterate divided by a
    vanishing tau would mean nothing).
    """
    comp = problem.compile()
    if comp.b.size == 0:
        raise SdpError("problem has no constraints")
    return _ipm(comp, tol, max_iter)
