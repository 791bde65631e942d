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

The compiled program holds every block as real coordinates over an
orthonormal basis, so an iterate is one flat real vector, <X, Z> is a dot
product, and A(X) and A*(y) are products with one dense real m x N
matrix. A 2x2 block is PSD exactly when its coordinates lie in the
Lorentz cone L^4, and a 1x1 block (v) is stored as (v, 0, 0, 0), exactly,
the same cone with a tail that stays 0: every block of size 1 or 2 is in
one spin group, which takes the NT scaling, the step length and
Mehrotra's term in closed form, from the spin-factor Jordan algebra, with
no eigh. Larger blocks take batched eigh per size group. The m x m Schur
complement is Q Q^T for the scaled constraints Q, one syrk product (or a
sum of them), so it is symmetric to the last bit; LAPACK potrf and potrs
factor and solve it.

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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla

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
    entries = [(i, i, 1.0, 1.0) for i in range(dim)] + [
        (i, j, *pair) for i in range(dim) for j in range(i + 1, dim)
        for pair in ((0.5, 0.5), (0.5j, -0.5j))]
    out = [np.zeros((dim, dim), dtype=complex) for _ in entries]
    for e, (i, j, upper, lower) in zip(out, entries):
        e[i, j], e[j, i] = upper, lower
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
    top = np.max(np.abs(m))
    if not top < np.inf:  # a nan or inf entry
        raise SdpError(f"{what} has an entry that is not finite")
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, top):
        raise SdpError(f"{what} is not Hermitian")
    return 0.5 * (m + m.conj().T)


def _finite(value, what: str) -> float:
    if not abs(v := float(value)) < np.inf:
        raise SdpError(f"{what} is {v}, not finite")
    return v


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
        self.equalities.append((self._coeffs(coeffs), _finite(rhs, "right-hand side")))
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
                coeffs = _frozen(_finite(scale, f"scale of block {b}") * sub)
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
        self.inequalities.append((self._coeffs(coeffs), _finite(rhs, "right-hand side")))
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
        if not np.isfinite(values).all():
            raise SdpError("a right-hand side is not finite")
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

    def primal_check(self, x) -> bool:
        """Whether x (one Hermitian matrix per block) passes the compiled
        program's primal_check, the primal rule, with each inequality's
        slack scalar at rhs - lhs, so that a violated inequality shows as a
        negative eigenvalue."""
        if len(x) != len(self.block_dims):
            raise SdpError(f"{len(x)} blocks given for {len(self.block_dims)}")
        xs = [_hermitian(xb, d, f"block {b}")
              for b, (xb, d) in enumerate(zip(x, self.block_dims))]
        comp = self.compile()
        slack = comp.b - comp.a @ comp.vector(xs + [np.zeros((1, 1))] * len(self.inequalities))
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
        coeffs = lambda cs: {str(b): matrix_to_json(a) for b, a in cs.items()}
        return {
            "block_dims": self.block_dims,
            "block_names": self.block_names,
            "equalities": [{"coeffs": coeffs(cs), "rhs": rhs} for cs, rhs in self.equalities],
            "inequalities": [{"coeffs": coeffs(cs), "rhs": rhs} for cs, rhs in self.inequalities],
            "objective": coeffs(self.objective),
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


_SCHUR_ENTRIES = 2 ** 14  # the largest piece of Q^T that _Compiled.schur builds at once


class _Compiled:
    """A program in the solver's layout.

    Every block is a vector of real coordinates over the orthonormal basis
    of _onb, so that <X, Z> is a dot product. The blocks of size 1 and 2
    form one spin group of width 4: a 2x2 block has its four coordinates,
    and a 1x1 block (v) is stored as (v, 0, 0, 0), exactly, so that its
    tail stays 0 through a solve. The blocks of one size d >= 3 form a group
    of width d^2. sizes[g] is the d of group g's width d^2 (2 for the spin
    group, which comes first), and spin_dims holds the sizes of the spin
    group's blocks as an (n, 1) column. An iterate is one flat vector, group
    after group and block after block, and split() views a group as
    (n, width); x[g][k] of a split vector is block members[g][k].

    The constraint matrix a is dense, real and m x N, so A(X) = a @ x and
    A*(y) = y @ a. It is the transpose of a C-ordered N x m array, whose
    rows of one group schur() reads as an (n, width, m) stack. b is the
    right-hand side, c the objective vector and e the identity. Every array
    is read-only, because BlockSdp.with_rhs shares all but b and c between
    the programs of one shape.
    """

    def __init__(self, dims, rows, objective):
        self.dims = dims
        self.b = _frozen(np.array([rhs for _, rhs in rows], dtype=float))
        self.sizes = sorted({max(d, 2) for d in dims})
        group = {d: g for g, d in enumerate(self.sizes)}
        self.members = [[] for _ in self.sizes]
        self.where = []  # (group, position) of every block
        self._by_size = {}  # the blocks of each size
        for bi, d in enumerate(dims):
            g = group[max(d, 2)]
            self.where.append((g, len(self.members[g])))
            self.members[g].append(bi)
            self._by_size.setdefault(d, []).append(bi)
        counts = [len(mem) * d * d for mem, d in zip(self.members, self.sizes)]
        self.starts = _frozen(np.concatenate(([0], np.cumsum(counts))).astype(int))
        self.spin_dims = _frozen(np.array([[float(dims[bi])] for bi in self.members[0]])
                                 if self.sizes[:1] == [2] else np.empty((0, 1)))
        self._first = _frozen(np.array([self.starts[g] + k * self.sizes[g] ** 2
                                        for g, k in self.where], dtype=int))

        found = {}  # per block size: rows, blocks and coefficient matrices
        for i, (cs, _) in enumerate(rows):
            for bi, coeff in cs.items():
                ids, bis, mats = found.setdefault(dims[bi], ([], [], []))
                ids.append(i)
                bis.append(bi)
                mats.append(coeff)
        at = np.zeros((int(self.starts[-1]), len(rows)))
        for d, (ids, bis, mats) in found.items():
            at[self._columns(d, bis), np.array(ids)[:, None]] = _vec(
                np.array(mats, dtype=complex).reshape(-1, d, d))
        self.a = _frozen(_frozen(at).T)
        self._stacks = [_frozen(at[s:e].reshape(len(mem), d * d, len(rows))) for s, e, d, mem
                        in zip(self.starts, self.starts[1:], self.sizes, self.members)]
        self.e = _frozen(self.vector([np.eye(d) for d in dims]))
        self.c = self._objective_vector(objective)

    def _columns(self, d, blocks) -> np.ndarray:
        """The flat positions of the coordinates of the listed d x d blocks,
        (n, d^2): a 1x1 block's is the head of its width-4 row."""
        return self._first[blocks][:, None] + np.arange(d * d)

    def _objective_vector(self, objective) -> np.ndarray:
        return _frozen(self.vector([objective.get(bi, np.zeros((d, d)))
                                    for bi, d in enumerate(self.dims)]))

    def split(self, v) -> list[np.ndarray]:
        """Views of a flat vector as one (n, width) array per group."""
        return [v[s:e].reshape(-1, d * d)
                for s, e, d in zip(self.starts, self.starts[1:], self.sizes)]

    def vector(self, blocks) -> np.ndarray:
        """The flat vector of one Hermitian matrix per block; a 1x1 block
        (v) is (v, 0, 0, 0)."""
        out = np.zeros(int(self.starts[-1]))
        for d, bis in self._by_size.items():
            out[self._columns(d, bis)] = _vec(
                np.array([blocks[bi] for bi in bis], dtype=complex).reshape(len(bis), d, d))
        return out

    def blocks(self, v) -> list[np.ndarray]:
        """One matrix per block from a flat vector, a 1x1 block as 1x1;
        copies, so that a block kept by a caller does not keep the others
        alive."""
        out = [None] * len(self.dims)
        for d, bis in self._by_size.items():
            for bi, m in zip(bis, _mat(v[self._columns(d, bis)], d)):
                out[bi] = m.copy()
        return out

    def schur(self, maps) -> np.ndarray:
        """A P A^T for the block-diagonal map P = M M^T, given per group the
        (n, width, width) stack of the blocks' M (the NT scaling's R).

        The scaled constraints Q hold the rows vec(A_ib) M_b; Q^T stacks
        M_b^T times block b's (width, m) slice of a^T. The Schur complement
        is Q Q^T, the product of Q^T's transpose with itself, which numpy
        computes with syrk, so it is exactly symmetric, and so is a sum of
        such products. Q^T is built and multiplied in pieces of at most
        _SCHUR_ENTRIES entries (a small program's group is one piece), so
        that a large program holds no second copy of a.
        """
        m = len(self.b)
        s = np.zeros((m, m))
        for mg, ag in zip(maps, self._stacks):
            step = max(1, _SCHUR_ENTRIES // ag[0].size)
            for k in range(0, len(ag), step):
                qt = np.matmul(mg[k:k + step].swapaxes(1, 2), ag[k:k + step]).reshape(-1, m)
                s += qt.T @ qt
        return s

    def _min_eig(self, v) -> float:
        """The least eigenvalue over the blocks of v: (v0 - |v'|) / sqrt d
        in closed form on the spin group, eigvalsh on the others."""
        return min(float(np.min((vg[:, 0] - np.linalg.norm(vg[:, 1:], axis=1))
                                / np.sqrt(self.spin_dims[:, 0])))
                   if d == 2 else float(np.linalg.eigvalsh(_mat(vg, d))[:, 0].min())
                   for vg, d in zip(self.split(v), self.sizes))

    def primal_check(self, v) -> bool:
        """The primal rule, which SdpSolution.lower and every member replay
        apply: every block of the flat vector v (the compiled slack scalars
        included) PSD and every row of A(X) = b held, both to 10 CERT_TOL."""
        return (self._min_eig(v) >= -10 * CERT_TOL
                and float(np.max(np.abs(self.a @ v - self.b))) <= 10 * CERT_TOL)

    def dual_check(self, y, farkas: bool = False) -> tuple[float, float]:
        """Min eigenvalue of A*(y) - C over the blocks, and b.y.

        A dual y is feasible when the eigenvalue is >= 0; then b.y bounds
        the primal optimum from above. A Farkas check drops C: A*(y) PSD
        with b.y < 0 proves the primal infeasible.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != self.b.shape:
            raise SdpError(f"dual vector has {y.size} entries for {self.b.size} rows")
        aty = y @ self.a
        return self._min_eig(aty if farkas else aty - self.c), float(np.dot(self.b, y))


def dual_holds(min_eig: float) -> bool:
    """The dual rule, which SdpSolution.upper and every dual replay apply to
    a dual_check: A*(y) - C, or A*(y) in the Farkas form, PSD to CERT_TOL."""
    return min_eig >= -CERT_TOL


@dataclass
class SdpSolution:
    """A solve's answer: the flat iterates x_flat = x / tau and z_flat = z / tau
    of program (empty for an infeasible program), from which x and z, one
    matrix per block, are read on first use. A caller accepts it by its
    bounds lower, upper and bracket(), checked (not verified) on first read
    by the primal rule (_Compiled.primal_check) and the dual rule
    (dual_holds), not by its status; a dataclasses.replace copy is checked
    anew."""

    status: str  # optimal | infeasible | stalled | diverged | max_iter
    x_flat: np.ndarray
    y: np.ndarray
    z_flat: np.ndarray
    objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    program: _Compiled = field(repr=False)  # the program solved

    @cached_property
    def x(self) -> list[np.ndarray]:
        return self.program.blocks(self.x_flat) if self.x_flat.size else []

    @cached_property
    def z(self) -> list[np.ndarray]:
        return self.program.blocks(self.z_flat) if self.z_flat.size else []

    @cached_property
    def lower(self) -> float:
        """min(objective, dual_objective) if x_flat passes the primal rule, else -inf."""
        ok = self.x_flat.size and self.program.primal_check(self.x_flat)
        return min(self.objective, self.dual_objective) if ok else -np.inf

    @cached_property
    def dual_min_eig(self) -> float:
        """The least eigenvalue of A*(y) - C over the blocks."""
        return self.program.dual_check(self.y)[0]

    @cached_property
    def upper(self) -> float:
        """max(objective, dual_objective) if y passes dual_holds (weak duality), else +inf."""
        ok = dual_holds(self.dual_min_eig)
        return float(np.fmax(self.objective, self.dual_objective)) if ok else np.inf

    def bracket(self) -> tuple[float, float]:
        """(lower, upper); SdpError when they lie more than 10 CERT_TOL apart."""
        if not self.upper - self.lower <= 10 * CERT_TOL:
            raise SdpError(f"open bracket: status {self.status}, ({self.lower}, {self.upper})")
        return self.lower, self.upper

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


_J = np.array([1.0, -1.0, -1.0, -1.0])  # the spin factor's J
_DIAG_J, _JJ = np.diag(_J), np.outer(_J, _J)
_E = np.array([1.0, 0.0, 0.0, 0.0])


class _Spin:
    """The spin group: 1x1 and 2x2 blocks as spin-factor (Lorentz) cones.

    A 2x2 block's coordinates v are PSD exactly when v0 >= |v'| for the
    tail v' = (v1, v2, v3): the cone L^4. A 1x1 block is L^1, stored as
    (v0, 0, 0, 0); each closed form below maps a zero tail to a zero tail,
    exactly, so it is the 1x1 block's own form. With d the block's size,
    (XY + YX)/2 is u o v = (u.v, u0 v' + v0 u')/sqrt d, the identity is
    e = (sqrt d, 0) and v^T J v stands for the determinant, so the NT
    scaling, the step length and Mehrotra's term have closed forms
    (Alizadeh & Goldfarb, Math. Program. 95, 2003, sections 4-5). With
    P(u) = 2 u u^T - J and beta = sqrt(det x / det z), the scaling is
    R = sqrt(beta) P(u~) and R^2 = beta P(v), for the NT point v of the
    normalized pair and its square root u~; R z = R^-1 x is lam. d is an
    (n, 1) column of block sizes.
    """

    def __init__(self, x, z, d):
        n, self.sd = len(x), np.sqrt(d)
        self.v = np.concatenate((x, z))  # x over z, for one step-length pass
        self.q = _lorentz(self.v)
        vb = self.v / np.sqrt(self.q)[:, None]
        xb, zb = vb[:n], vb[n:]
        v = (xb + _J * zb) / np.sqrt(2.0 + 2.0 * np.einsum("ij,ij->i", xb, zb))[:, None]
        u = v + _E  # v + e, then normalized: the square root of v
        u /= np.sqrt(2.0 * u[:, :1])
        beta = np.sqrt(self.q[:n] / self.q[n:])[:, None, None]
        pu = 2.0 * u[:, :, None] * u[:, None, :] - _DIAG_J
        self.r = np.sqrt(beta) * pu
        self.rinv = _JJ * pu / np.sqrt(beta)  # P(u)^-1 = J P(u) J
        self.w2 = beta * (2.0 * v[:, :, None] * v[:, None, :] - _DIAG_J)
        self.lam = _apply(self.r, z)
        self.zinv = z * (d * _J) / self.q[n:, None]  # d J z / det z

    def _jordan(self, u, v):
        out = u[:, :1] * v + v[:, :1] * u
        out[:, 0] = np.einsum("ij,ij->i", u, v)
        return out / self.sd

    def solve(self, lam, w):
        """s with lam o s = w (the arrow matrix of lam inverted)."""
        s = np.empty_like(w)
        s[:, 0] = self.sd[:, 0] * (lam[:, 0] * w[:, 0]
                                   - np.einsum("ij,ij->i", lam[:, 1:], w[:, 1:])) / _lorentz(lam)
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


_POTRF, _POTRS = sla.get_lapack_funcs(("potrf", "potrs"), dtype=float)


def _factor_schur(s):
    """A solve with s: its Cholesky factor (LAPACK potrf), shifted on the
    diagonal when rounding leaves s indefinite, and one step of iterative
    refinement, which keeps the Newton residual small when s becomes
    ill-conditioned near the optimum. A non-finite s raises SdpError:
    potrf can factor a nan without a word."""
    if not np.isfinite(s).all():
        raise SdpError("the Schur complement is not finite")
    m = s.shape[0]
    base = 1e-14 * (s.trace() / m + 1.0)
    solve = lambda r: np.linalg.lstsq(s, r, rcond=None)[0]
    for jitter in (0.0, base, 1e3 * base, 1e6 * base):
        shifted = s if jitter == 0.0 else s.copy()
        shifted.flat[::m + 1] += jitter
        cf, info = _POTRF(shifted, lower=1, clean=0, overwrite_a=bool(jitter))
        if info == 0:
            solve = lambda r: _POTRS(cf, r, lower=1)[0]
            break
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
    X and Z are flat coordinate vectors (see _Compiled); the spin group of
    1x1 and 2x2 blocks scales as spin-factor cones (_Spin), the groups of
    larger blocks by eigh (_Eigh).
    """
    b, c, e = comp.b, comp.c, comp.e
    nu = sum(comp.dims) + 1
    x, z = e.copy(), e.copy()
    y = np.zeros(b.size)
    tau = kappa = 1.0
    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.linalg.norm(c))
    status = "max_iter"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, max_iter + 1):
            ax, aty = comp.a @ x, y @ comp.a
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

            cones = [_Spin(xg, zg, comp.spin_dims) if d == 2 else _Eigh(xg, zg, d)
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
            dy_tau = solve_fn(comp.a @ scaled(c) - b)
            v = c - dy_tau @ comp.a
            wvw = scaled(v)
            den = float(c @ wvw) - float(b @ dy_tau) + kappa / tau
            wrw = scaled(rd)

            def newton(h, rp_, rg_, rtk):
                """dX, dy, A*(dy) - dtau C and dtau for the Newton equations
                A(dX) - dtau b = rp_, dX + W dZ W = h with the dual
                residual folded into h, <C, dX> - b.dy - dkappa = rg_ and
                kappa dtau + tau dkappa = rtk; h = None stands for 0."""
                dy = solve_fn(-rp_ if h is None else comp.a @ h - rp_)
                aty_ = dy @ comp.a
                dx = -scaled(aty_)
                if h is not None:
                    dx += h
                dtau = (rg_ + float(b @ dy) + rtk / tau - float(c @ dx)) / den
                return dx + dtau * wvw, dy + dtau * dy_tau, aty_ - dtau * v, dtau

            def residual(dx, dy, dtau, rtk):
                e_p = rp - comp.a @ dx + dtau * b
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
        return SdpSolution(status, np.empty(0), y, np.empty(0), np.nan, float(b @ y), np.nan,
                           np.nan, np.nan, it, comp)
    return SdpSolution(status, x / tau, y / tau, z / tau, cx / tau, by / tau, xz / tau ** 2,
                       rel_p, rel_d, it, comp)


# ---------------------------------------------------------------------------
# Public solve
# ---------------------------------------------------------------------------

def verify_infeasibility_certificate(problem: BlockSdp, y) -> bool:
    """Re-check a Farkas functional y directly on the problem data: A*(y)
    PSD by the Farkas form of dual_holds, the rule that upper applies, and
    b.y < -CERT_TOL. A malformed y fails the check."""
    try:
        min_eig, b_dot_y = problem.compile().dual_check(y, farkas=True)
    except (KeyError, ValueError, TypeError, SdpError):
        return False
    return dual_holds(min_eig) and b_dot_y < -CERT_TOL


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
    has no primal or dual point, so x_flat and z_flat (and x and z) are
    empty and the objective, gap and residuals are nan (the embedding's
    iterate divided by a vanishing tau would mean nothing). The solution
    is accepted by its checked bounds (SdpSolution), not by its status.
    """
    comp = problem.compile()
    if comp.b.size == 0:
        raise SdpError("problem has no constraints")
    return _ipm(comp, tol, max_iter)
