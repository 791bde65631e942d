"""Characterization of the measurement sets reachable with constrained batteries.

Membership of a target POVM in the reachable set is posed as slack
minimization: minimize t such that the per-sector decomposition reproduces
every element within t in operator norm. A slack optimum below tolerance
yields the explicit decomposition; above tolerance the dual of the slack
program is a Farkas functional that lower-bounds the distance of the POVM
from the set, so non-membership always carries a quantitative margin.
The largest t with degrade(M, t) reachable is one SDP (critical_degradation).
Every answer is accepted by its solution's checked bounds (sdp.SdpSolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import sdp
from .linalg import place
from .povm import Povm
from .spectra import joint_sectors
from .tau import BatteryState, battery_size


@dataclass
class MembershipVerdict:
    verdict: str  # member | non_member | undecided
    slack: float  # optimal reconstruction residual (inner program for energy)
    certificate: dict = field(default_factory=dict)
    gap_bound: float | None = None  # only for energy programs

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


# ---------------------------------------------------------------------------
# Program assembly on the joint energy sectors of target and battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SectorProgram:
    problem: sdp.BlockSdp
    blocks: tuple[tuple[int, ...], ...]  # blocks[s][x]
    sector_rows: tuple[tuple[int, ...], ...]  # target level of each sector row
    p_vars: tuple[int, ...] | None  # battery populations; None when they are fixed


def _target_dim(sector_rows) -> int:
    return 1 + max(map(max, sector_rows))


def _population_count(sectors) -> int:
    return 1 + max(n for _, feeds in sectors for pops in feeds for n in pops)


def _check_target(m: Povm, sectors) -> None:
    dim = _target_dim(rows for rows, _ in sectors)
    if m.dim != dim:
        raise ValueError(f"a {m.dim}-dimensional POVM on {dim} target levels")


@lru_cache(maxsize=16)  # a d = 64 shape holds about 2.3 MB
def _sector_shape(sectors, n_out: int, populations: str, target: str | None) -> _SectorProgram:
    """The rows of a sector program, with every right-hand side 0 but the
    populations' sum 1, and no objective unless it has the slack t.
    populations: "free", "capped" or "fixed"; target: None, "raw" or "slack"."""
    sector_rows = tuple(rows for rows, _ in sectors)
    dim = _target_dim(sector_rows)
    n_pop = _population_count(sectors)
    p = sdp.BlockSdp()
    blocks = tuple(tuple(p.add_block(len(rows), f"B[{s}][{x}]") for x in range(n_out))
                   for s, (rows, _) in enumerate(sectors))
    p_vars = None if populations == "fixed" else tuple(p.add_scalar(f"p{n}")
                                                        for n in range(n_pop))

    for s, (rows, feeds) in enumerate(sectors):
        terms = [(b, None, 1.0) for b in blocks[s]]
        if p_vars is not None:
            terms += [(p_vars[n], [i], -1.0) for i, pops in enumerate(feeds) for n in pops]
        p.add_matrix_equality(terms, np.zeros((len(rows), len(rows))))

    if p_vars is not None:
        p.add_equality({v: 1.0 for v in p_vars}, 1.0)
        if populations == "capped":
            p.add_inequality({v: float(n) for n, v in enumerate(p_vars) if n > 0}, 0.0)

    if target is not None:
        zero = np.zeros((dim, dim))
        if target == "slack":
            t = p.add_scalar("t")
            us = [p.add_block(dim, f"U{x}") for x in range(n_out)]
            vs = [p.add_block(dim, f"V{x}") for x in range(n_out)]
            p.set_objective({t: -1.0})
        for x in range(n_out):
            placed = [(blocks[s][x], rows, 1.0) for s, (rows, _) in enumerate(sectors)]
            if target == "slack":
                # -t I <= sum of blocks - M_x <= t I through U_x, V_x >= 0
                p.add_matrix_equality(placed + [(us[x], None, 1.0)]
                                      + [(t, [i], -1.0) for i in range(dim)], zero)
                p.add_matrix_equality(placed + [(vs[x], None, -1.0)]
                                      + [(t, [i], 1.0) for i in range(dim)], zero)
            else:
                p.add_matrix_equality(placed, zero)
    p.compile()  # compiled once, shared by every program of this shape
    return _SectorProgram(problem=p, blocks=blocks, sector_rows=sector_rows, p_vars=p_vars)


def _assemble_sectors(m: Povm | None, sectors, *,
                      energy_cap: float | None = None,
                      q_fixed: np.ndarray | None = None,
                      slack: bool = True,
                      objective: list[np.ndarray] | None = None,
                      n_out: int | None = None) -> _SectorProgram:
    """One PSD block per sector and outcome, tied to the target.

    A sector is spectra's (rows, feeds): the target level of each of its
    rows and the battery populations feeding that row, so that sum_x B^s_x
    is the diagonal of the fed populations. The target's elements are the
    sums of the blocks placed on their rows. Population n has energy n
    gaps, which is what the energy cap counts (it is used by the ladder
    only). The outcome count is the target's, else the objective's, else
    n_out; a program without a target has no slack form. The rows depend
    only on the shape, which _sector_shape assembles and compiles once; the
    target's elements, the cap and the fixed populations fill the
    right-hand sides, and the objective fills c. The POVM's dimension and
    the fixed populations are checked against the sectors first.
    """
    if m is not None:
        _check_target(m, sectors)
    if q_fixed is not None:
        q_fixed = np.asarray(q_fixed, dtype=float)
        if q_fixed.size != _population_count(sectors) or np.any(q_fixed < 0):
            raise ValueError("fixed populations must be nonnegative, one per battery population")
        if abs(q_fixed.sum() - 1.0) > 1e-9:
            raise ValueError("fixed populations must sum to 1")
    if objective is not None:
        objective = [np.asarray(vx, dtype=complex) for vx in objective]
    n_out = m.n_outcomes if m is not None else len(objective) if objective is not None else n_out
    populations = "fixed" if q_fixed is not None else "free" if energy_cap is None else "capped"
    shape = _sector_shape(sectors, n_out, populations,
                          None if m is None else "slack" if slack else "raw")
    # right-hand sides in row order: sector by sector, sum p = 1, the
    # target's elements (twice with the slack), the energy cap
    if q_fixed is None:
        rhs = [np.zeros(sum(len(rows) ** 2 for rows, _ in sectors)), [1.0]]
    else:
        rhs = [sdp.matrix_rhs(np.diag([sum(q_fixed[n] for n in pops) for pops in feeds]))
               for _, feeds in sectors]
    if m is not None:
        rhs += [r for r in map(sdp.matrix_rhs, m.elements) for _ in range(1 + slack)]
    if energy_cap is not None:
        rhs.append([float(energy_cap)])

    obj = None
    if objective is not None:
        obj = {}
        for x, vx in enumerate(objective):
            for s, (rows, _) in enumerate(sectors):
                sub = vx[np.ix_(rows, rows)]
                if np.max(np.abs(sub)) > 0:
                    obj[shape.blocks[s][x]] = sub
    return replace(shape, problem=shape.problem.with_rhs(np.concatenate(rhs), obj))


def _ladder_sectors(d: int, outer: bool = False) -> tuple:
    """The sectors of a qubit target on the d-level ladder battery: target
    levels [0, 1] against battery levels 0..d-1, which are also the
    sectors of the ladder's chains, the layout of its PhysicalPovm. The outer
    relaxation makes the top sector rank two: the tail population d feeds
    both rows, and level d-1 feeds row 1 as well."""
    d = battery_size(d)
    sectors = joint_sectors((0, 1), tuple(range(d)))
    if outer:
        sectors = sectors[:-1] + (((0, 1), ((d,), (d - 1, d))),)
    return sectors


def _reconstruct(prog: _SectorProgram, sol: sdp.SdpSolution) -> list[np.ndarray]:
    dim, xs = _target_dim(prog.sector_rows), sol.x
    return [place(dim, [(rows, xs[blk[x]]) for rows, blk in zip(prog.sector_rows, prog.blocks)])
            for x in range(len(prog.blocks[0]))]


def _decide(prog: _SectorProgram, gap_bound: float | None = None) -> MembershipVerdict:
    """Solve a slack program and decide; the slack is the dual bound max(0, -b.y).

    A member needs the solution's lower >= -10 CERT_TOL and a non-member
    a finite upper, and a failed check raises. A member's certificate is
    the checked primal point; a non-member's carries the dual check.
    """
    sol = sdp.solve(prog.problem)
    slack = max(0.0, -sol.dual_objective)
    if slack > sdp.CERT_TOL:
        if sol.upper < np.inf:
            return MembershipVerdict("non_member", slack, {
                "dual": sol.y.copy(), "dual_min_eig": sol.dual_min_eig,
                "dual_objective": sol.dual_objective, "margin": slack}, gap_bound)
    elif sol.lower >= -10 * sdp.CERT_TOL:
        return MembershipVerdict("member", slack, _member_certificate(prog, sol), gap_bound)
    raise sdp.SdpError(f"membership verdict failed its check: status {sol.status}")


def _member_certificate(prog: _SectorProgram, sol: sdp.SdpSolution) -> dict:
    """A solved program's primal point, as verify_member_certificate reads it;
    an outer program's p ends with the tail population p[d]."""
    cert = {
        "blocks": {s: [sol.x[b] for b in per_x] for s, per_x in enumerate(prog.blocks)},
        "reconstruction": _reconstruct(prog, sol),
    }
    if prog.p_vars is not None:
        cert["p"] = np.array([sol.scalar(v) for v in prog.p_vars])
    return cert


def verify_member_certificate(m: Povm, cert: dict, sectors, *, energy_cap: float | None = None,
                              q_fixed: np.ndarray | None = None) -> bool:
    """Replay the decomposition in the raw program of m on these sectors,
    with the energy cap or fixed populations of the program that gave it.

    The certificate's blocks and populations p take their places in it,
    and it must pass the primal rule of SdpSolution.lower
    (BlockSdp.primal_check). A missing or mis-shaped entry fails the check.
    """
    prog = _assemble_sectors(m, sectors, energy_cap=energy_cap, q_fixed=q_fixed, slack=False)
    x = [None] * len(prog.problem.block_dims)
    try:
        for per_x, given in zip(prog.blocks, cert["blocks"].values(), strict=True):
            for b, blk in zip(per_x, given, strict=True):
                x[b] = blk
        if prog.p_vars is not None:
            for v, w in zip(prog.p_vars, cert["p"], strict=True):
                x[v] = w
        return prog.problem.primal_check(x)
    except (KeyError, ValueError, TypeError, sdp.SdpError):
        return False


def verify_nonmember_certificate(m: Povm, cert: dict, sectors, *, energy_cap: float | None = None,
                                 q_fixed: np.ndarray | None = None) -> bool:
    """Replay the Farkas functional against the slack program of m on these
    sectors, with the energy cap or fixed populations of the program that gave it.

    The dual vector must pass sdp.dual_holds, the rule of
    SdpSolution.upper, on that program's dual (A*(y) - C PSD on every
    block), and its objective b.y must lie below -max(CERT_TOL, margin/2);
    weak duality then bounds every decomposition's residual away from zero.
    A missing or mis-shaped entry fails the check.
    """
    prog = _assemble_sectors(m, sectors, energy_cap=energy_cap, q_fixed=q_fixed)
    try:
        min_eig, b_dot_y = prog.problem.compile().dual_check(cert["dual"])
        bound = -max(sdp.CERT_TOL, 0.5 * cert["margin"])
    except (KeyError, ValueError, TypeError, sdp.SdpError):
        return False
    return sdp.dual_holds(min_eig) and b_dot_y < bound


# ---------------------------------------------------------------------------
# Public programs
# ---------------------------------------------------------------------------

def finite_membership_program(m: Povm, d: int) -> sdp.BlockSdp:
    """The assembled block SDP behind membership_finite (for inspection)."""
    return _assemble_sectors(m, _ladder_sectors(d)).problem


def membership_finite(m: Povm, d: int) -> MembershipVerdict:
    """Decide whether a qubit POVM is reachable with a d-level battery."""
    return _decide(_assemble_sectors(m, _ladder_sectors(d)))


def critical_degradation(m: Povm, d: int) -> tuple[float, dict]:
    """The largest t with degrade(m, t) reachable with d battery levels, and
    the member certificate of degrade(m, t): one SDP, the raw ladder program
    with each element's off-diagonal moved to a maximized scalar t <= 1.
    """
    sectors = _ladder_sectors(d)
    _check_target(m, sectors)
    prog = _assemble_sectors(None, sectors, n_out=m.n_outcomes)
    p = prog.problem  # a with_rhs copy: its lists are its own
    t = p.add_scalar("t")
    p.add_inequality({t: 1.0}, 1.0)
    for x, mx in enumerate(m.elements):
        diag = np.diag(np.diag(mx))
        placed = [(blk[x], rows, 1.0) for blk, rows in zip(prog.blocks, prog.sector_rows)]
        p.add_matrix_equality(placed + [(t, diag - mx)], diag)
    p.set_objective({t: 1.0})
    sol = sdp.solve(p)
    sol.bracket()
    # clipped: where no row holds t, it ends a rounding error above 1
    return min(max(sol.scalar(t), 0.0), 1.0), _member_certificate(prog, sol)


def optimize_finite(v: list[np.ndarray], d: int):
    """Maximize sum_x tr(M_x V_x) over POVMs reachable with d battery levels.

    Returns (value, optimal Povm, SdpSolution), the value in its bracket().
    """
    prog = _assemble_sectors(None, _ladder_sectors(d), objective=v)
    sol = sdp.solve(prog.problem)
    sol.bracket()
    return sol.objective, Povm(elements=_reconstruct(prog, sol)), sol


def _energy_budget(ebar: float, delta: float, d: int) -> float:
    """z = ebar / delta, for positive ebar and delta and a ladder of d >= 2 levels."""
    if not (0 < ebar < np.inf and 0 < delta < np.inf):
        raise ValueError(f"ebar and delta must be positive and finite: {ebar}, {delta}")
    if d < 2:
        raise ValueError("d must be >= 2")
    return ebar / delta


def membership_energy(m: Povm, ebar: float, delta: float, d: int) -> MembershipVerdict:
    """Membership test for mean battery energy <= ebar at gap delta.

    Inner truncation feasible -> member; outer relaxation infeasible ->
    non_member; otherwise undecided with the truncation gap bound
    ebar / (delta (d-1)), carrying both the failed inner margin and the
    feasible outer decomposition.
    """
    z = _energy_budget(ebar, delta, d)
    gap = z / (d - 1)
    inner = _decide(_assemble_sectors(m, _ladder_sectors(d), energy_cap=z), gap)
    if inner.is_member:
        return inner
    outer = _decide(_assemble_sectors(m, _ladder_sectors(d, outer=True), energy_cap=z), gap)
    if not outer.is_member:
        return outer
    return MembershipVerdict("undecided", inner.slack, {"inner_margin": inner.certificate,
                                                        "outer_point": outer.certificate}, gap)


def optimize_energy(v: list[np.ndarray], ebar: float, delta: float, d: int):
    """Bracket max sum_x tr(M_x V_x) over the bounded-energy set.

    Returns (upper, lower, inner-feasible Povm, gap): the outer relaxation's
    upper bound, the inner truncation's lower bound and attaining POVM; the
    gap shrinks as O(ebar / (delta d)). A bound that fails its check raises.
    """
    z = _energy_budget(ebar, delta, d)
    v = list(v)  # both programs read it
    outer = _assemble_sectors(None, _ladder_sectors(d, outer=True), energy_cap=z, objective=v)
    upper = sdp.solve(outer.problem).upper
    inner = _assemble_sectors(None, _ladder_sectors(d), energy_cap=z, objective=v)
    sol_i = sdp.solve(inner.problem)
    lower = sol_i.lower
    if not np.isfinite(upper - lower):
        raise sdp.SdpError(f"energy bounds failed their checks: ({lower}, {upper})")
    povm = Povm(elements=_reconstruct(inner, sol_i))
    return upper, lower, povm, upper - lower


def fixed_distribution_feasible(m: Povm, q) -> MembershipVerdict:
    """Slack test of reachability when the battery populations are frozen."""
    return _decide(_assemble_sectors(m, _ladder_sectors(np.size(q)), q_fixed=q))


# ---------------------------------------------------------------------------
# Multi-level targets
# ---------------------------------------------------------------------------

def membership_multilevel(m: Povm, target_levels, battery_levels) -> MembershipVerdict:
    """Membership for a d'-level target against an arbitrary battery spectrum.

    Builds the joint eigenspace sectors of the two spectra; each sector
    carries one PSD block per outcome with completeness diag of the battery
    occupations it touches.
    """
    return _decide(_assemble_sectors(m, joint_sectors(target_levels, battery_levels)))


# ---------------------------------------------------------------------------
# Universality of a fixed resource state
# ---------------------------------------------------------------------------

def universal_state_check(sigma: BatteryState, d: int, trials: int = 60, seed: int = 0):
    """Search for a reachable POVM that the fixed state sigma cannot produce.

    Candidates are extreme points of the reachable set, obtained by
    maximizing random rank-one linear functionals; each candidate is
    certified as a member (free energy distribution) and then tested with
    the distribution frozen to sigma's populations. Returns a result dict
    when a counterexample is found, else None.
    """
    if sigma.dim != d:
        raise ValueError("state must live on d ladder levels")
    q = sigma.populations()
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n_out = 3 + (trial % 2)
        v = []
        for _ in range(n_out):
            g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g /= np.linalg.norm(g)
            v.append(np.outer(g, g.conj()))
        value, cand, _ = optimize_finite(v, d)
        verdict = membership_finite(cand, d)
        if not verdict.is_member:
            continue  # solver noise pushed the candidate marginally outside
        fixed = fixed_distribution_feasible(cand, q)
        if not fixed.is_member and fixed.slack > 10 * sdp.CERT_TOL:
            return {
                "trial": trial,
                "povm": cand,
                "objective": v,
                "member_certificate": verdict.certificate,
                "member_slack": verdict.slack,
                "fixed_margin": fixed.slack,
                "fixed_certificate": fixed.certificate,
                "q": q,
            }
    return None
