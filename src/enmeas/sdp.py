"""Self-contained solver for small block-diagonal semidefinite programs.

Problems are stated in a standard primal form over a product of complex
Hermitian PSD cones (1x1 blocks double as nonnegative scalars):

    maximize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i     (i = 1..m)
                X_b PSD for every block b

with <A, X> = Re tr(A X). Inequalities get slack scalars at compile time.
The solver is an infeasible-start primal-dual interior-point method with
Nesterov-Todd scaling and a Mehrotra-style adaptive centering parameter;
all blocks here are tiny, so dense factorizations are used throughout.
Primal infeasibility is certified through an always-feasible phase-1
program whose dual yields a Farkas functional y with A*(y) PSD and
b.y < 0, both checkable directly on the raw problem data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .linalg import matrix_to_json

DEFAULT_FEAS_TOL = 1e-8
DEFAULT_GAP_TOL = 1e-8
DEFAULT_MAX_ITER = 200


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


@dataclass
class BlockSdp:
    """Builder for a block-diagonal SDP (see module docstring for the form)."""

    block_dims: list[int] = field(default_factory=list)
    block_names: list[str] = field(default_factory=list)
    equalities: list[tuple[dict, float]] = field(default_factory=list)
    inequalities: list[tuple[dict, float]] = field(default_factory=list)
    objective: dict = field(default_factory=dict)

    def add_block(self, dim: int, name: str | None = None) -> int:
        if dim < 1:
            raise SdpError("block dimension must be >= 1")
        self.block_dims.append(int(dim))
        self.block_names.append(name or f"X{len(self.block_dims) - 1}")
        return len(self.block_dims) - 1

    def add_scalar(self, name: str | None = None) -> int:
        return self.add_block(1, name or f"s{len(self.block_dims)}")

    def _coeff(self, b: int, a) -> np.ndarray:
        return _hermitian(a, self.block_dims[b], f"coefficient for block {b}")

    def add_equality(self, coeffs: dict, rhs: float) -> int:
        """sum_b <coeffs[b], X_b> = rhs; returns the constraint index."""
        cs = {int(b): self._coeff(int(b), a) for b, a in coeffs.items()}
        self.equalities.append((cs, float(rhs)))
        return len(self.equalities) - 1

    def add_matrix_equality(self, terms, rhs) -> None:
        """A Hermitian D x D equation sum(terms) = rhs, as D^2 real rows.

        A term is (block, rows, scale), adding scale * P X_block P^T where P
        puts the block on the listed rows of the D x D matrix (rows=None:
        all D rows), or (scalar, F), adding x * F for a 1x1 block x and a
        fixed Hermitian F. Row i pairs the equation with the i-th matrix of
        hermitian_basis(D); a term whose coefficient vanishes on a row is
        left out of that row.
        """
        r = np.atleast_2d(rhs)
        r = _hermitian(r, r.shape[0], "right-hand side")
        basis = _basis_stack(r.shape[0])
        cols = []
        for term in terms:
            b = int(term[0])
            if len(term) == 3:
                _, rows, scale = term
                sub = basis if rows is None else basis[:, rows][:, :, rows]
                if sub.shape[1] != self.block_dims[b]:
                    raise SdpError(f"block {b} is {self.block_dims[b]}x{self.block_dims[b]}, "
                                   f"placed on {sub.shape[1]} rows")
                coeffs = scale * sub
                cols.append((b, coeffs, np.any(coeffs != 0, axis=(1, 2))))
            else:
                if self.block_dims[b] != 1:
                    raise SdpError(f"block {b} times a fixed matrix must be 1x1")
                vals = _coords(basis, _hermitian(term[1], r.shape[0], f"matrix of block {b}"))
                cols.append((b, vals[:, None, None].astype(complex), vals != 0))
        for i, rhs_i in enumerate(_coords(basis, r)):
            self.equalities.append(
                ({b: coeffs[i] for b, coeffs, keep in cols if keep[i]}, float(rhs_i)))

    def add_inequality(self, coeffs: dict, rhs: float) -> None:
        """sum_b <coeffs[b], X_b> <= rhs (compiled via a slack scalar)."""
        cs = {int(b): self._coeff(int(b), a) for b, a in coeffs.items()}
        self.inequalities.append((cs, float(rhs)))

    def set_objective(self, coeffs: dict) -> None:
        """Maximize sum_b <coeffs[b], X_b>."""
        self.objective = {int(b): self._coeff(int(b), a) for b, a in coeffs.items()}

    def primal_check(self, x) -> tuple[float, float]:
        """Min eigenvalue over the blocks of x (one Hermitian matrix each) and
        the worst row violation: the largest |lhs - rhs| of an equality or
        lhs - rhs of an inequality, and 0 when no row is violated."""
        if len(x) != len(self.block_dims):
            raise SdpError(f"{len(x)} blocks given for {len(self.block_dims)}")
        xs = [_hermitian(xb, d, f"block {b}")
              for b, (xb, d) in enumerate(zip(x, self.block_dims))]

        def excess(rows):
            return _apply_a([cs for cs, _ in rows], xs) - np.array([r for _, r in rows])

        worst = max(np.max(np.abs(excess(self.equalities)), initial=0.0),
                    np.max(excess(self.inequalities), initial=0.0))
        return min(float(np.linalg.eigvalsh(xb)[0]) for xb in xs), float(worst)

    # -- compiled view -----------------------------------------------------

    def compile(self):
        dims = list(self.block_dims)
        names = list(self.block_names)
        eqs = [(dict(cs), rhs) for cs, rhs in self.equalities]
        for cs, rhs in self.inequalities:
            dims.append(1)
            names.append(f"slack{len(dims) - 1}")
            cs = dict(cs)
            cs[len(dims) - 1] = np.eye(1, dtype=complex)
            eqs.append((cs, rhs))
        cobj = [np.zeros((d, d), dtype=complex) for d in dims]
        for b, a in self.objective.items():
            cobj[b] = a
        a_list = []
        b_vec = np.empty(len(eqs))
        for i, (cs, rhs) in enumerate(eqs):
            a_list.append(cs)
            b_vec[i] = rhs
        return _Compiled(dims=dims, names=names, a_list=a_list, b=b_vec, c=cobj)

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


def _coords(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """<E, m> = Re tr(E m) for every E of a stacked hermitian_basis."""
    return np.einsum("nij,ji->n", basis, m).real


@dataclass
class _Compiled:
    dims: list[int]
    names: list[str]
    a_list: list[dict]
    b: np.ndarray
    c: list[np.ndarray]

    def dual_check(self, y, farkas: bool = False) -> tuple[float, float]:
        """Min eigenvalue of A*(y) - C over the blocks, and b.y.

        A dual y is feasible when the eigenvalue is >= 0; then b.y bounds
        the primal optimum from above. A Farkas check drops C: A*(y) PSD
        with b.y < 0 proves the primal infeasible.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != self.b.shape:
            raise SdpError(f"dual vector has {y.size} entries for {self.b.size} rows")
        aty = _apply_at(self.a_list, self.dims, y)
        if not farkas:
            aty = [a - c for a, c in zip(aty, self.c)]
        return min(float(np.linalg.eigvalsh(a)[0]) for a in aty), float(np.dot(self.b, y))


@dataclass
class InfeasibilityCertificate:
    """Farkas witness: A*(y) is PSD while b.y is strictly negative."""

    y: np.ndarray
    min_eig: float  # most negative eigenvalue of A*(y) across blocks
    objective: float  # b . y

    def margin(self) -> float:
        return -self.objective - max(0.0, -self.min_eig)


@dataclass
class SdpSolution:
    status: str  # optimal | feasible | infeasible | max_iter
    x: list[np.ndarray]
    y: np.ndarray
    z: list[np.ndarray]
    objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    iterations: int
    certificate: InfeasibilityCertificate | None = None

    def block(self, idx: int) -> np.ndarray:
        return self.x[idx]

    def scalar(self, idx: int) -> float:
        return float(self.x[idx][0, 0].real)

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "objective": self.objective,
            "dual_objective": self.dual_objective,
            "gap": self.gap,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "iterations": self.iterations,
            "x": [matrix_to_json(m) for m in self.x],
            "y": [float(v) for v in self.y],
        }
        if self.certificate is not None:
            out["certificate"] = {
                "y": [float(v) for v in self.certificate.y],
                "min_eig": self.certificate.min_eig,
                "objective": self.certificate.objective,
            }
        return out


# ---------------------------------------------------------------------------
# Core iteration
# ---------------------------------------------------------------------------

def _apply_a(a_list, x):
    out = np.empty(len(a_list))
    for i, cs in enumerate(a_list):
        s = 0.0
        for b, a in cs.items():
            s += float(np.trace(a @ x[b]).real)
        out[i] = s
    return out


def _apply_at(a_list, dims, y):
    out = [np.zeros((d, d), dtype=complex) for d in dims]
    for i, cs in enumerate(a_list):
        yi = y[i]
        if yi == 0.0:
            continue
        for b, a in cs.items():
            out[b] += yi * a
    return out


def _inner(x, z) -> float:
    return float(sum(np.trace(xb @ zb).real for xb, zb in zip(x, z)))


def _sym(m):
    return 0.5 * (m + m.conj().T)


def _nt_scaling(xb, zb):
    """NT scaling point W with W Z W = X, plus Z^{-1}."""
    wx, ux = np.linalg.eigh(xb)
    wx = np.maximum(wx, max(float(wx[-1]), 1e-128) * 1e-17)
    xh = (ux * np.sqrt(wx)) @ ux.conj().T
    mid = _sym(xh @ zb @ xh)
    wm, um = np.linalg.eigh(mid)
    wm = np.maximum(wm, max(float(wm[-1]), 1e-128) * 1e-17)
    midmh = (um / np.sqrt(wm)) @ um.conj().T
    w = _sym(xh @ midmh @ xh)
    wz, uz = np.linalg.eigh(zb)
    wz = np.maximum(wz, max(float(wz[-1]), 1e-128) * 1e-17)
    zinv = (uz / wz) @ uz.conj().T
    return w, zinv


def _max_step(x, dx) -> float:
    """Largest alpha with X + alpha dX staying PSD (per block, then min)."""
    alpha = np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for xb, dxb in zip(x, dx):
            if not np.all(np.isfinite(dxb)):
                return 0.0
            if xb.shape[0] == 1:
                xv = xb[0, 0].real
                dv = dxb[0, 0].real
                if dv < 0:
                    alpha = min(alpha, -xv / dv)
                continue
            w, u = np.linalg.eigh(xb)
            w = np.maximum(w, max(float(w[-1]), 1e-128) * 1e-17)
            xmh = (u / np.sqrt(w)) @ u.conj().T
            g = _sym(xmh @ dxb @ xmh)
            if not np.all(np.isfinite(g)):
                return 0.0
            lmin = float(np.linalg.eigvalsh(g)[0])
            if lmin < 0:
                alpha = min(alpha, -1.0 / lmin)
    return alpha


def _schur(a_list, dims, w):
    m = len(a_list)
    s = np.zeros((m, m))
    # group constraints by block for vectorized accumulation
    by_block: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, cs in enumerate(a_list):
        for b, a in cs.items():
            by_block.setdefault(b, []).append((i, a))
    for b, entries in by_block.items():
        idx = np.array([i for i, _ in entries])
        mats = np.stack([a for _, a in entries])
        wb = w[b]
        waw = np.einsum("ab,ibc,cd->iad", wb, mats, wb, optimize=True)
        sb = np.real(np.einsum("iab,jba->ij", mats, waw, optimize=True))
        s[np.ix_(idx, idx)] += sb
    return 0.5 * (s + s.T)


def _factor_schur(s):
    m = s.shape[0]
    jitter = 0.0
    base = 1e-14 * (np.trace(s) / m + 1.0)
    for _ in range(4):
        try:
            cf = sla.cho_factor(s + jitter * np.eye(m), lower=True)
            return lambda r: sla.cho_solve(cf, r)
        except (np.linalg.LinAlgError, sla.LinAlgError):
            jitter = base if jitter == 0.0 else jitter * 1e3
    return lambda r: np.linalg.lstsq(s, r, rcond=None)[0]


def _solve_schur_refined(s, solve_fn, rhs):
    # one step of iterative refinement keeps the Newton residual small when
    # the scaled system becomes ill-conditioned near the optimum
    sol = solve_fn(rhs)
    resid = rhs - s @ sol
    sol = sol + solve_fn(resid)
    return sol


def _ipm(comp: _Compiled, feas_tol: float, gap_tol: float, max_iter: int):
    dims, a_list, b, c = comp.dims, comp.a_list, comp.b, comp.c
    m = len(a_list)
    ntot = sum(dims)
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0,
                max((float(np.max(np.abs(cb))) for cb in c if cb.size), default=1.0))
    eta = 10.0 * scale
    x = [eta * np.eye(d, dtype=complex) for d in dims]
    z = [eta * np.eye(d, dtype=complex) for d in dims]
    y = np.zeros(m)

    norm_b = 1.0 + float(np.linalg.norm(b))
    norm_c = 1.0 + float(np.sqrt(sum(np.linalg.norm(cb) ** 2 for cb in c)))

    best = (x, y, z, 0.0, 0.0, _inner(x, z), np.inf, np.inf)
    best_merit = np.inf
    stall = 0
    status = "max_iter"
    it = 0
    errstate = np.errstate(over="ignore", invalid="ignore", divide="ignore")
    errstate.__enter__()
    for it in range(1, max_iter + 1):
        ax = _apply_a(a_list, x)
        rp = b - ax
        aty = _apply_at(a_list, dims, y)
        rd = [c[bi] + z[bi] - aty[bi] for bi in range(len(dims))]
        gap = _inner(x, z)
        mu = gap / ntot
        pobj = float(sum(np.trace(c[bi] @ x[bi]).real for bi in range(len(dims))))
        dobj = float(np.dot(b, y))
        rel_p = float(np.linalg.norm(rp)) / norm_b
        rel_d = float(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rd))) / norm_c
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))

        finite = (np.isfinite(rel_p) and np.isfinite(rel_d) and np.isfinite(gap)
                  and all(np.all(np.isfinite(xb)) for xb in x)
                  and all(np.all(np.isfinite(zb)) for zb in z))
        if not finite:
            status = "diverged"
            break
        merit = max(rel_p, rel_d, rel_gap)
        if merit < 0.9 * best_merit:
            best_merit = merit
            best = (x, y, z, pobj, dobj, gap, rel_p, rel_d)
            stall = 0
        else:
            stall += 1
        if rel_p <= feas_tol and rel_d <= feas_tol and rel_gap <= gap_tol:
            best = (x, y, z, pobj, dobj, gap, rel_p, rel_d)
            status = "optimal"
            break
        if stall >= 12:
            status = "stalled"
            break
        if np.linalg.norm(y) > 1e14 * scale:
            status = "diverged"
            break

        w = []
        zinv = []
        for bi in range(len(dims)):
            wb, zib = _nt_scaling(x[bi], z[bi])
            w.append(wb)
            zinv.append(zib)

        s = _schur(a_list, dims, w)
        solve_fn = _factor_schur(s)
        wrdw = [_sym(w[bi] @ rd[bi] @ w[bi]) for bi in range(len(dims))]
        a_wrdw = _apply_a(a_list, wrdw)

        def direction(sigma_mu):
            rc = [sigma_mu * zinv[bi] - x[bi] for bi in range(len(dims))]
            rhs = _apply_a(a_list, rc) + a_wrdw - rp
            dy = _solve_schur_refined(s, solve_fn, rhs)
            atdy = _apply_at(a_list, dims, dy)
            dz = [atdy[bi] - rd[bi] for bi in range(len(dims))]
            dx = [_sym(rc[bi] - w[bi] @ dz[bi] @ w[bi]) for bi in range(len(dims))]
            # refine against the primal Newton equation A(dx) = rp; the
            # correction keeps the dual and complementarity equations exact
            for _ in range(2):
                r1 = rp - _apply_a(a_list, dx)
                if float(np.linalg.norm(r1)) <= 1e-13 * (1.0 + float(np.linalg.norm(rp))):
                    break
                ddy = _solve_schur_refined(s, solve_fn, -r1)
                atddy = _apply_at(a_list, dims, ddy)
                dy = dy + ddy
                dz = [dz[bi] + atddy[bi] for bi in range(len(dims))]
                dx = [_sym(dx[bi] - w[bi] @ atddy[bi] @ w[bi]) for bi in range(len(dims))]
            return dx, dy, dz

        # predictor chooses the centering weight
        dxa, dya, dza = direction(0.0)
        ap = min(1.0, 0.98 * _max_step(x, dxa))
        ad = min(1.0, 0.98 * _max_step(z, dza))
        xa = [x[bi] + ap * dxa[bi] for bi in range(len(dims))]
        za = [z[bi] + ad * dza[bi] for bi in range(len(dims))]
        gap_aff = max(_inner(xa, za), 0.0)
        sigma = min(1.0, max((gap_aff / gap) ** 3 if gap > 0 else 0.0, 1e-10))

        # keep complementarity from collapsing while feasibility lags
        if rel_p > 100.0 * feas_tol or rel_d > 100.0 * feas_tol:
            sigma = max(sigma, min(0.9, 10.0 * max(rel_p, rel_d) / max(rel_gap, 1e-16)))
            sigma = min(sigma, 0.99)

        dx, dy, dz = direction(sigma * mu)
        ap = min(1.0, 0.98 * _max_step(x, dx))
        ad = min(1.0, 0.98 * _max_step(z, dz))
        if ap < 1e-12 and ad < 1e-12:
            status = "stalled"
            break
        x = [_sym(x[bi] + ap * dx[bi]) for bi in range(len(dims))]
        z = [_sym(z[bi] + ad * dz[bi]) for bi in range(len(dims))]
        y = y + ad * dy

    errstate.__exit__(None, None, None)
    x, y, z, pobj, dobj, gap, rel_p, rel_d = best
    if status != "optimal":
        rel_gap_best = gap / (1.0 + abs(pobj) + abs(dobj))
        if rel_p <= feas_tol and rel_d <= feas_tol and rel_gap_best <= gap_tol:
            status = "optimal"
    return status, x, y, z, pobj, dobj, gap, rel_p, rel_d, it


# ---------------------------------------------------------------------------
# Public solve with phase-1 infeasibility certification
# ---------------------------------------------------------------------------

def _phase1(comp: _Compiled):
    """min sum of |residual| slacks; optimum > 0 certifies infeasibility."""
    p = BlockSdp()
    for d, name in zip(comp.dims, comp.names):
        p.add_block(d, name)
    m = len(comp.a_list)
    sp = [p.add_scalar(f"r+{i}") for i in range(m)]
    sm = [p.add_scalar(f"r-{i}") for i in range(m)]
    for i, (cs, rhs) in enumerate(zip(comp.a_list, comp.b)):
        cs = dict(cs)
        cs[sp[i]] = np.eye(1, dtype=complex)
        cs[sm[i]] = -np.eye(1, dtype=complex)
        p.add_equality(cs, rhs)
    obj = {}
    for i in range(m):
        obj[sp[i]] = -np.eye(1, dtype=complex)
        obj[sm[i]] = -np.eye(1, dtype=complex)
    p.set_objective(obj)
    return p


def verify_infeasibility_certificate(problem: BlockSdp, cert: InfeasibilityCertificate,
                                     tol: float = 1e-7) -> bool:
    """Re-check A*(y) PSD and b.y < 0 directly on the problem data."""
    try:
        min_eig, b_dot_y = problem.compile().dual_check(cert.y, farkas=True)
    except SdpError:
        return False
    return min_eig >= -tol and b_dot_y < -tol


def solve(problem: BlockSdp,
          feas_tol: float = DEFAULT_FEAS_TOL,
          gap_tol: float = DEFAULT_GAP_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve a BlockSdp; returns certificates on both success and failure.

    Deterministic for identical inputs. If the interior-point iteration
    cannot reach the requested tolerances, an always-feasible phase-1
    program decides between 'infeasible' (with a Farkas certificate) and
    'max_iter' (best iterate returned).
    """
    comp = problem.compile()
    if len(comp.a_list) == 0:
        raise SdpError("problem has no constraints")
    has_objective = any(np.max(np.abs(cb)) > 0 for cb in comp.c if cb.size)

    status, x, y, z, pobj, dobj, gap, rel_p, rel_d, it = _ipm(
        comp, feas_tol, gap_tol, max_iter)

    scale = 1.0 + float(np.max(np.abs(comp.b))) if comp.b.size else 1.0
    if status != "optimal" and rel_p <= 1e-4 and pobj > 10.0 * scale:
        # certify unboundedness: an improving ray is a feasible point of
        # max <C, X> s.t. A(X) = 0, total trace 1 with positive value
        ray = BlockSdp()
        for d, name in zip(comp.dims, comp.names):
            ray.add_block(d, name)
        for cs, _ in zip(comp.a_list, comp.b):
            ray.add_equality(dict(cs), 0.0)
        ray.add_equality({bi: np.eye(comp.dims[bi], dtype=complex)
                          for bi in range(len(comp.dims))}, 1.0)
        ray.set_objective({bi: comp.c[bi] for bi in range(len(comp.dims))
                           if np.max(np.abs(comp.c[bi])) > 0})
        rcomp = ray.compile()
        rstat, *_rest = _ipm(rcomp, 1e-9, 1e-9, max_iter)
        rval = _rest[3]
        if rstat == "optimal" and rval > 1e-6 * (1.0 + max(
                float(np.max(np.abs(cb))) for cb in comp.c if cb.size)):
            raise SdpError(
                f"problem is unbounded: improving ray with slope {rval:.3e}")

    if status == "optimal":
        return SdpSolution(
            status="optimal" if has_objective else "feasible",
            x=x, y=y, z=z, objective=pobj, dual_objective=dobj, gap=gap,
            primal_residual=rel_p, dual_residual=rel_d, iterations=it)

    # did not converge: decide feasibility through phase 1
    p1 = _phase1(comp)
    c1 = p1.compile()
    s1, x1, y1, z1, pobj1, dobj1, gap1, rp1, rd1, it1 = _ipm(
        c1, min(feas_tol, 1e-9), min(gap_tol, 1e-9), max_iter)
    resid_l1 = -pobj1  # phase-1 maximizes minus the total residual
    if s1 == "optimal" and resid_l1 > 10.0 * feas_tol * (1.0 + float(np.linalg.norm(comp.b))):
        min_eig, b_dot_y = comp.dual_check(y1, farkas=True)
        cert = InfeasibilityCertificate(y=y1.copy(), min_eig=min_eig, objective=b_dot_y)
        return SdpSolution(
            status="infeasible", x=x, y=y, z=z, objective=pobj,
            dual_objective=dobj, gap=gap, primal_residual=rel_p,
            dual_residual=rel_d, iterations=it + it1, certificate=cert)
    return SdpSolution(
        status="max_iter", x=x, y=y, z=z, objective=pobj,
        dual_objective=dobj, gap=gap, primal_residual=rel_p,
        dual_residual=rel_d, iterations=it + it1)
