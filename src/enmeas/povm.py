"""POVM algebra: validation, physical/effective maps, degradation, battery-less decompositions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_hermitian,
    commutator_norm,
    hermitian_from_json,
    matrix_to_json,
    operator_norm,
    place,
)
from .spectra import ChainDecomposition, energy_tol
from .tau import BatteryState


@dataclass
class Povm:
    """A finite POVM: PSD elements summing to the identity. The elements
    pass linalg.as_hermitian's one rule; validate checks the rest."""

    elements: list[np.ndarray]
    labels: list | None = None

    def __post_init__(self):
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        self.elements = [as_hermitian(m) for m in self.elements]
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


def validate(p: Povm, tol: float = 1e-9) -> PovmDiagnostics:
    """List violated POVM invariants with their magnitudes; tol bounds each
    element's negative eigenvalues and the completeness residual."""
    if not 0.0 <= tol < np.inf:  # nan fails too
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
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
    blocks[x][s] is the block of outcome x on sector s of layout,
    chains.sectors: the joint sectors of the qubit and the battery."""

    chains: ChainDecomposition
    blocks: list[list[np.ndarray]]  # blocks[x][s], rank x rank Hermitian
    labels: list | None = None

    def __post_init__(self):
        self.layout = self.chains.sectors
        if self.labels is None:
            self.labels = list(range(len(self.blocks)))
        ranks = [len(rows) for rows, _ in self.layout]
        if any(len(bl) != len(ranks) for bl in self.blocks):
            raise ValueError(f"every outcome needs one block per sector, {len(ranks)} in all")
        self.blocks = [[as_hermitian(m) for m in bl] for bl in self.blocks]
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
    for rows, feeds in chains.sectors:
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
    sectors = [(rows, [n for (n,) in feeds]) for rows, feeds in phys.layout]
    # rho[f, f]^T * M^s_x entrywise; einsum rounds each product as numpy's
    # scalar complex product does, where `*` on arrays fuses multiply-adds
    elems = [place(2, [(rows, np.einsum("ba,ab->ab", rho[np.ix_(f, f)], sub))
                       for (rows, f), sub in zip(sectors, bl)])
             for bl in phys.blocks]
    return Povm(elements=elems, labels=list(phys.labels))


def joint_operators(phys: PhysicalPovm) -> list[np.ndarray]:
    """Embed the sector blocks as full operators on target (x) battery.

    Basis ordering: |a> (x) |level> at index a * d_B + level, as in
    kron(target, battery).
    """
    db = phys.chains.dim
    index = [[a * db + n for a, (n,) in zip(rows, feeds)] for rows, feeds in phys.layout]
    return [place(2 * db, zip(index, bl)) for bl in phys.blocks]


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
    return Povm(elements=elems, labels=list(m.labels))


def batteryless_decomposition(m: Povm, target_levels) -> np.ndarray:
    """Outcome distributions p_x^(m) of a measurement needing no battery.

    Requires every element to commute with the (non-degenerate) energy
    operator: ||[M_x, H]|| within energy_tol of the levels, which must be
    finite, counts as zero. The returned table has rows indexed by outcome
    and columns by energy level, each column summing to one.
    """
    levels = np.asarray(target_levels, dtype=float)
    if levels.size != m.dim:
        raise ValueError("target_levels length must match the POVM dimension")
    tol = energy_tol(levels)
    h = np.diag(levels)
    for label, mx in zip(m.labels, m.elements):
        cn = commutator_norm(mx, h)
        if cn > tol:
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

