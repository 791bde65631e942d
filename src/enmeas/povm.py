"""POVM algebra: validation, physical/effective maps, degradation, Kraus checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_hermitian,
    commutator_norm,
    hermitian_from_json,
    matrix_to_json,
    operator_norm,
    psd_sqrt,
)
from .spectra import ChainDecomposition, chain_sectors
from .tau import BatteryState


@dataclass
class Povm:
    """A finite POVM: PSD elements summing to the identity."""

    elements: list[np.ndarray]
    labels: list | None = None
    tol: float = 1e-9

    def __post_init__(self):
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        self.elements = [as_hermitian(m, herm_tol=max(self.tol, 1e-12)) for m in self.elements]
        dims = {m.shape[0] for m in self.elements}
        if len(dims) != 1:
            raise ValueError("POVM elements have mixed dimensions")
        if self.labels is None:
            self.labels = list(range(len(self.elements)))
        if len(self.labels) != len(self.elements):
            raise ValueError("labels/elements length mismatch")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def probabilities(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return np.array([float(np.trace(rho @ m).real) for m in self.elements])

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "elements": {str(l): matrix_to_json(m) for l, m in zip(self.labels, self.elements)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Povm":
        elems = data["elements"]
        labels = list(elems.keys())
        mats = [hermitian_from_json(elems[l]) for l in labels]
        return cls(elements=mats, labels=labels)


@dataclass(frozen=True)
class PovmDiagnostics:
    ok: bool
    completeness_residual: float  # operator norm of sum(M_x) - I
    min_eigenvalues: dict  # label -> smallest eigenvalue
    messages: tuple[str, ...]


def validate(p: Povm, tol: float | None = None) -> PovmDiagnostics:
    """List violated POVM invariants with their magnitudes."""
    tol = p.tol if tol is None else tol
    msgs = []
    mins = {}
    for label, m in zip(p.labels, p.elements):
        lo = float(np.linalg.eigvalsh(m)[0])
        mins[label] = lo
        if lo < -tol:
            msgs.append(f"element {label} not PSD: min eigenvalue {lo:.3e}")
    resid = operator_norm(sum(p.elements) - np.eye(p.dim))
    if resid > tol:
        msgs.append(f"completeness violated: ||sum M_x - I|| = {resid:.3e}")
    return PovmDiagnostics(
        ok=not msgs,
        completeness_residual=resid,
        min_eigenvalues=mins,
        messages=tuple(msgs),
    )


def projective_qubit(axis: str = "z") -> Povm:
    """Two-outcome projective qubit measurement along x, y or z."""
    if axis == "z":
        vs = [np.array([1, 0], complex), np.array([0, 1], complex)]
    elif axis == "x":
        s = 1 / np.sqrt(2)
        vs = [np.array([s, s], complex), np.array([s, -s], complex)]
    elif axis == "y":
        s = 1 / np.sqrt(2)
        vs = [np.array([s, 1j * s], complex), np.array([s, -1j * s], complex)]
    else:
        raise ValueError("axis must be one of x, y, z")
    return Povm(elements=[np.outer(v, v.conj()) for v in vs], labels=["+", "-"])


def random_rank_one_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> Povm:
    """Random POVM with rank-one elements via the frame construction."""
    if n_outcomes < dim:
        raise ValueError("need at least dim outcomes for a rank-one POVM")
    vs = rng.standard_normal((n_outcomes, dim)) + 1j * rng.standard_normal((n_outcomes, dim))
    g = sum(np.outer(v, v.conj()) for v in vs)
    w, u = np.linalg.eigh(g)
    ginv_half = (u / np.sqrt(w)) @ u.conj().T
    elems = [ginv_half @ np.outer(v, v.conj()) @ ginv_half for v in vs]
    return Povm(elements=elems)


# ---------------------------------------------------------------------------
# Physical (per-sector) POVMs on a qubit target coupled to a chained battery
# ---------------------------------------------------------------------------

@dataclass
class PhysicalPovm:
    """Per-sector POVM blocks of a measurement on target x battery:
    blocks[x][s] is the block of outcome x on sector s of layout, the
    (rows, feeds) sectors of spectra.chain_sectors(chains)."""

    chains: ChainDecomposition
    blocks: list[list[np.ndarray]]  # blocks[x][s], rank x rank Hermitian
    labels: list | None = None

    def __post_init__(self):
        self.layout = chain_sectors(self.chains)
        if self.labels is None:
            self.labels = list(range(len(self.blocks)))
        ranks = [len(rows) for rows, _ in self.layout]
        if any(len(bl) != len(ranks) for bl in self.blocks):
            raise ValueError(f"every outcome needs one block per sector, {len(ranks)} in all")
        self.blocks = [[as_hermitian(m, herm_tol=1e-9) for m in bl] for bl in self.blocks]
        for bl in self.blocks:
            for s, (m, r) in enumerate(zip(bl, ranks)):
                if m.shape != (r, r):
                    raise ValueError(f"sector {s} expects rank {r}, got {m.shape}")

    @property
    def n_outcomes(self) -> int:
        return len(self.blocks)

    def completeness_deficits(self) -> list[np.ndarray]:
        """Per sector: I - sum_x block (PSD when sub-normalized)."""
        return [np.eye(len(rows)) - sum(bl[s] for bl in self.blocks)
                for s, (rows, _) in enumerate(self.layout)]

    def completed(self) -> "PhysicalPovm":
        """Route any sub-normalization deficit to an extra null outcome."""
        deficits = self.completeness_deficits()
        worst = max(operator_norm(d) for d in deficits)
        if worst <= 1e-9:
            return self
        lows = min(float(np.linalg.eigvalsh(d)[0]) for d in deficits)
        if lows < -1e-9:
            raise ValueError(
                f"sector blocks exceed completeness: min deficit eigenvalue {lows:.3e}"
            )
        return PhysicalPovm(
            chains=self.chains,
            blocks=self.blocks + [deficits],
            labels=list(self.labels) + ["null"],
        )


def constant_blocks(m: Povm, chains: ChainDecomposition) -> PhysicalPovm:
    """Copy one qubit POVM into every sector (restricted at the chain ends)."""
    if m.dim != 2:
        raise ValueError("constant_blocks requires a qubit POVM")
    return _sector_blocks(m, chains, None)


def phase_aligned_blocks(m: Povm, battery: BatteryState, chains: ChainDecomposition) -> PhysicalPovm:
    """Sector blocks diag(1, e^{-i theta_s}) M_x diag(1, e^{i theta_s}).

    theta_s rotates the battery coherence <f_0| sigma |f_1> between the
    levels feeding the two rows of sector s onto the positive reals (zero
    phase when the coherence vanishes), which makes the induced effective
    POVM exactly the tau-degraded copy of ``m``.
    """
    if m.dim != 2:
        raise ValueError("phase_aligned_blocks requires a qubit POVM")
    return _sector_blocks(m, chains, battery.density())


def _sector_blocks(m: Povm, chains: ChainDecomposition, rho: np.ndarray | None) -> PhysicalPovm:
    """Each element of ``m`` restricted to every sector's rows; given a
    battery density rho, each rank-two block is phase-aligned to rho."""
    blocks = [[] for _ in m.elements]
    for rows, feeds in chain_sectors(chains):
        subs = [mx[np.ix_(rows, rows)] for mx in m.elements]
        if rho is not None and len(rows) == 2:
            ov = rho[feeds[0][0], feeds[1][0]]  # <f_0| sigma |f_1>
            theta = 0.0 if abs(ov) == 0 else float(np.angle(ov))
            u = np.diag([1.0, np.exp(1j * theta)])
            subs = [u.conj().T @ sub @ u for sub in subs]
        for bl, sub in zip(blocks, subs):
            bl.append(sub)
    return PhysicalPovm(chains=chains, blocks=blocks, labels=list(m.labels))


def effective_povm(phys: PhysicalPovm, battery: BatteryState) -> Povm:
    """Effective qubit POVM induced by battery-averaged sector blocks.

    (M~_x)_{ab} = sum_s <f_b| sigma_B |f_a> (M^s_x)_{ab}, f_a the battery
    level feeding row a of sector s; blocks may be sub-normalized, in which
    case the deficit becomes a null outcome.
    """
    if battery.dim != phys.chains.dim:
        raise ValueError("battery state and chain decomposition dimensions differ")
    phys = phys.completed()
    rho = battery.density()
    elems = []
    for bl in phys.blocks:
        out = np.zeros((2, 2), dtype=complex)
        for (rows, feeds), sub in zip(phys.layout, bl):
            for i, (a, (lvl_a,)) in enumerate(zip(rows, feeds)):
                for jj, (b, (lvl_b,)) in enumerate(zip(rows, feeds)):
                    out[a, b] += rho[lvl_b, lvl_a] * sub[i, jj]
        elems.append(out)
    return Povm(elements=elems, labels=list(phys.labels))


def joint_operators(phys: PhysicalPovm) -> list[np.ndarray]:
    """Embed the sector blocks as full operators on target (x) battery.

    Basis ordering: |a> (x) |level>, index 2 * level + a ... laid out as
    kron(target, battery) with target index major.
    """
    db = phys.chains.dim
    dim = 2 * db
    ops = []
    for bl in phys.blocks:
        full = np.zeros((dim, dim), dtype=complex)
        for (rows, feeds), sub in zip(phys.layout, bl):
            for i, (a, (lvl_a,)) in enumerate(zip(rows, feeds)):
                for jj, (b, (lvl_b,)) in enumerate(zip(rows, feeds)):
                    full[a * db + lvl_a, b * db + lvl_b] += sub[i, jj]
        ops.append(full)
    return ops


def degrade(m: Povm, tau: float, phase: float = 0.0) -> Povm:
    """Scale the off-diagonal of each element by tau, keeping the diagonal.

    This is the effective POVM a tau-quality battery produces when every
    sector runs a phase-aligned copy of ``m``. An optional basis phase
    conjugates the result by diag(1, e^{i phase}).
    """
    if m.dim != 2:
        raise ValueError("degrade is defined for qubit POVMs")
    if not (0.0 <= tau <= 1.0 + 1e-12):
        raise ValueError("tau must lie in [0, 1]")
    u = np.diag([1.0, np.exp(1j * phase)])
    elems = []
    for mx in m.elements:
        out = mx.copy()
        out[0, 1] *= tau
        out[1, 0] *= tau
        elems.append(u.conj().T @ out @ u)
    return Povm(elements=elems, labels=list(m.labels), tol=m.tol)


def _commutation_bound(levels: np.ndarray) -> float:
    """1e-9 max(1, max|E|): the largest ||[A, diag(levels)]|| of an A that conserves energy."""
    return 1e-9 * max(1.0, float(np.max(np.abs(levels))))


def batteryless_decomposition(m: Povm, target_levels) -> np.ndarray:
    """Outcome distributions p_x^(m) of a measurement needing no battery.

    Requires every element to commute with the (non-degenerate) energy
    operator; the returned table has rows indexed by outcome and columns by
    energy level, each column summing to one.
    """
    levels = np.asarray(target_levels, dtype=float)
    if levels.size != m.dim:
        raise ValueError("target_levels length must match the POVM dimension")
    h = np.diag(levels)
    for label, mx in zip(m.labels, m.elements):
        cn = commutator_norm(mx, h)
        if cn > _commutation_bound(levels):
            raise ValueError(
                f"element {label} does not commute with the energy operator: "
                f"||[M_x, H]|| = {cn:.3e}; only energy-diagonal POVMs are "
                "implementable without a battery"
            )
    table = np.array([np.real(np.diag(mx)) for mx in m.elements])
    if np.min(table) < -1e-9:
        raise ValueError("negative outcome probability in the decomposition")
    table = np.clip(table, 0.0, None)
    cols = table.sum(axis=0)
    if np.max(np.abs(cols - 1.0)) > 1e-8:
        raise ValueError("per-level outcome distributions do not sum to 1")
    return table / cols


@dataclass
class KrausSet:
    """Kraus operators of a channel; must satisfy sum A_i' A_i = I."""

    operators: list[np.ndarray]

    def __post_init__(self):
        self.operators = [np.asarray(a, dtype=complex) for a in self.operators]
        dims = {a.shape for a in self.operators}
        if len(dims) != 1 or self.operators[0].shape[0] != self.operators[0].shape[1]:
            raise ValueError("Kraus operators must be square matrices of equal size")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def completeness_residual(self) -> float:
        total = sum(a.conj().T @ a for a in self.operators)
        return operator_norm(total - np.eye(self.dim))

    def apply(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(a @ rho @ a.conj().T for a in self.operators)


def check_energy_conserving(kraus: KrausSet, h_levels):
    """Check [A_i, H] = 0 for all i and Kraus completeness, H = diag(levels).

    Returns (ok, diagnostics) where diagnostics records each commutator norm
    and the completeness residual.
    """
    levels = np.asarray(h_levels, dtype=float)
    if levels.size != kraus.dim:
        raise ValueError("h_levels length must match Kraus dimension")
    h = np.diag(levels)
    comms = [commutator_norm(a, h) for a in kraus.operators]
    resid = kraus.completeness_residual()
    ok = max(comms, default=0.0) <= _commutation_bound(levels) and resid <= 1e-9
    return ok, {"commutator_norms": comms, "completeness_residual": resid}


def measurement_channel(m: Povm) -> KrausSet:
    """Kraus dilation A_x = sqrt(M_x) (x) V^x with a cyclic pointer shift V.

    The pointer starts in |0>; reading it out in the computational basis
    reproduces p(x) = tr(rho M_x). When the POVM commutes with the system
    energy the channel conserves energy against H (x) I_pointer.
    """
    n = m.n_outcomes
    v = np.roll(np.eye(n), 1, axis=0)  # V|k> = |k+1 mod n>
    ops = []
    for x, mx in enumerate(m.elements):
        ops.append(np.kron(psd_sqrt(mx, tol=m.tol), np.linalg.matrix_power(v, x)))
    return KrausSet(operators=ops)

