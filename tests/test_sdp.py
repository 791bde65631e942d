import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from enmeas import charact, distances, sdp, spectra
from enmeas.povm import degrade, projective_qubit, random_rank_one_povm
from enmeas.reproduce import random_two_outcome, sphere_povm_pair
from enmeas.sdp import (
    BlockSdp,
    SdpError,
    hermitian_basis,
    solve,
    verify_infeasibility_certificate,
)


def add_matrix_equality(p, blocks, rhs_matrix):
    """sum of the full-size blocks = rhs_matrix."""
    p.add_matrix_equality([(b, None, 1.0) for b in blocks], rhs_matrix)


class TestBasics:
    def test_trace_cap(self):
        # maximize tr X with X + S = I, both PSD -> 2
        p = BlockSdp()
        x = p.add_block(2)
        s = p.add_block(2)
        add_matrix_equality(p, [x, s], np.eye(2))
        p.set_objective({x: np.eye(2)})
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-7)

    def test_max_eigenvalue(self):
        h = np.array([[1.0, 2 - 1j], [2 + 1j, -0.5]])
        p = BlockSdp()
        x = p.add_block(2)
        p.add_equality({x: np.eye(2)}, 1.0)
        p.set_objective({x: h})
        sol = solve(p)
        assert sol.objective == pytest.approx(np.linalg.eigvalsh(h)[-1], abs=1e-7)

    def test_inequality_slack(self):
        p = BlockSdp()
        s = p.add_scalar()
        p.add_inequality({s: 1.0}, 3.0)
        p.set_objective({s: 1.0})
        sol = solve(p)
        assert sol.objective == pytest.approx(3.0, abs=1e-7)

    def test_no_constraints_rejected(self):
        p = BlockSdp()
        p.add_block(2)
        with pytest.raises(SdpError):
            solve(p)

    def test_non_hermitian_coefficient_rejected(self):
        p = BlockSdp()
        x = p.add_block(2)
        with pytest.raises(SdpError):
            p.add_equality({x: np.array([[0.0, 1.0], [0.0, 0.0]])}, 0.0)


class TestAgainstLinprog:
    def test_random_diagonal_instances(self):
        rng = np.random.default_rng(0)
        n_bounded = 0
        for _ in range(10):
            n, m = 6, 3
            a = rng.standard_normal((m, n))
            x_feas = rng.random(n) + 0.1
            b = a @ x_feas
            c = rng.standard_normal(n)
            ref = linprog(-c, A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
            p = BlockSdp()
            ids = [p.add_scalar() for _ in range(n)]
            for i in range(m):
                p.add_equality({ids[j]: a[i, j] for j in range(n)}, b[i])
            p.set_objective({ids[j]: c[j] for j in range(n)})
            if ref.status == 3:  # unbounded draws raise a structured error
                with pytest.raises(SdpError, match="unbounded"):
                    solve(p)
                continue
            assert ref.status == 0
            sol = solve(p)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)
            n_bounded += 1
        assert n_bounded >= 5


class TestDualityAndCertificates:
    def test_weak_duality_on_random_instances(self):
        # and the checked bounds: a perturbed y reads upper = inf, a
        # perturbed x lower = -inf, and then the bracket raises
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = BlockSdp()
            x = p.add_block(3)
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = 0.5 * (g + g.conj().T)
            p.add_equality({x: np.eye(3)}, 1.0)
            p.set_objective({x: h})
            sol = solve(p)
            assert sol.dual_objective >= sol.objective - 1e-8
            lower, upper = sol.bracket()
            assert lower - 1e-8 <= np.linalg.eigvalsh(h)[-1] <= upper + 1e-8
            bad_y = replace(sol, y=sol.y - 1e-3)
            bad_x = replace(sol, x_flat=sol.x_flat - 1e-3 * sol.program.e)  # x - 1e-3 I
            assert bad_y.upper == np.inf and bad_y.lower == lower
            assert bad_x.lower == -np.inf and bad_x.upper == upper
            for bad in (bad_y, bad_x):
                with pytest.raises(SdpError, match="status optimal"):
                    bad.bracket()

    def test_scalar_infeasibility_certificate(self):
        p = BlockSdp()
        s = p.add_scalar()
        p.add_equality({s: 1.0}, -1.0)
        sol = solve(p, max_iter=80)
        assert sol.status == "infeasible"
        assert verify_infeasibility_certificate(p, sol.y)
        assert sol.dual_objective < -sdp.CERT_TOL

    def test_infeasible_solve_is_one_run_with_a_unit_ray(self, monkeypatch):
        # the embedding's own Farkas ray, scaled to max |y_i| = 1, is the
        # answer: no second program runs (a phase-1 rerun made 13 iterations)
        runs = []
        ipm = sdp._ipm

        def counted(*args):
            runs.append(ipm(*args))
            return runs[-1]

        monkeypatch.setattr(sdp, "_ipm", counted)
        p = BlockSdp()
        s = p.add_scalar()
        p.add_equality({s: 1.0}, -1.0)
        sol = solve(p, max_iter=80)
        assert sol.status == "infeasible" and len(runs) == 1
        assert sol.iterations == 6
        assert np.max(np.abs(sol.y)) == 1.0
        assert sol.dual_objective == float(sol.program.b @ sol.y)

    def test_matrix_infeasibility_certificate(self):
        p = BlockSdp()
        x = p.add_block(2)
        p.add_equality({x: np.eye(2)}, 1.0)
        p.add_equality({x: 2.0 * np.eye(2)}, 5.0)
        sol = solve(p, max_iter=80)
        assert sol.status == "infeasible"
        assert verify_infeasibility_certificate(p, sol.y)
        # a wrong or malformed y fails the check instead of raising
        for y in (-sol.y, sol.y[:1], "ab", None):
            assert not verify_infeasibility_certificate(p, y)

    def test_infeasible_solution_carries_only_the_certificate(self):
        p = BlockSdp()
        x = p.add_block(2)
        p.add_equality({x: np.eye(2)}, 1.0)
        p.add_equality({x: 2.0 * np.eye(2)}, 5.0)
        sol = solve(p, max_iter=80)
        assert sol.status == "infeasible"
        assert sol.dual_objective == sol.program.dual_check(sol.y, farkas=True)[1]
        assert math.isnan(sol.objective) and math.isnan(sol.gap)
        assert sol.x == [] and sol.z == []
        assert sol.lower == -np.inf
        with pytest.raises(SdpError):
            sol.bracket()
        json.dumps(sol.to_json(), allow_nan=False)
        assert verify_infeasibility_certificate(p, sol.y)

    def test_membership_program_feasibility_flip(self):
        # the raw decomposition program flips feasible -> infeasible at the
        # boundary quality cos(pi/(d+1)), with a checkable Farkas functional
        mx = projective_qubit("x")
        tau3 = math.cos(math.pi / 4)
        sectors = charact._ladder_sectors(3)
        prog = charact._assemble_sectors(degrade(mx, tau3), sectors, slack=False)
        sol = solve(prog.problem)
        assert sol.status == "optimal"
        prog = charact._assemble_sectors(degrade(mx, tau3 + 0.01), sectors, slack=False)
        sol = solve(prog.problem, max_iter=120)
        assert sol.status == "infeasible"
        assert verify_infeasibility_certificate(prog.problem, sol.y)
        assert sol.dual_objective < -sdp.CERT_TOL


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        def run():
            p = BlockSdp()
            x = p.add_block(2)
            s = p.add_block(2)
            add_matrix_equality(p, [x, s], np.eye(2))
            p.set_objective({x: np.array([[1.0, 0.3j], [-0.3j, -0.2]])})
            return solve(p)

        a, b = run(), run()
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        assert np.array_equal(a.x[0], b.x[0])
        assert np.array_equal(a.y, b.y)


def test_hermitian_basis_extracts_coordinates():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = 0.5 * (g + g.conj().T)
    basis = hermitian_basis(3)
    assert len(basis) == 9
    coords = [float(np.trace(e @ h).real) for e in basis]
    # diag entries then (re, im) per upper off-diagonal pair
    assert coords[0] == pytest.approx(h[0, 0].real)
    assert coords[3] == pytest.approx(h[0, 1].real)
    assert coords[4] == pytest.approx(h[0, 1].imag)


def test_matrix_equality_matches_basis_pairing():
    rng = np.random.default_rng(3)

    def herm(n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return 0.5 * (g + g.conj().T)

    rows = [0, 2]
    f = np.diag([1.0, 0.0, -1.0]) + np.array([[0, 0, 0.5j], [0, 0, 0], [-0.5j, 0, 0]])
    r = herm(3)
    p = BlockSdp()
    x, y, s = p.add_block(2), p.add_block(3), p.add_scalar()
    p.add_matrix_equality([(x, rows, 1.0), (y, None, -2.0), (s, f)], r)

    hand = BlockSdp()
    hand.add_block(2), hand.add_block(3), hand.add_scalar()
    for e in hermitian_basis(3):
        coeffs = {x: e[np.ix_(rows, rows)], y: -2.0 * e, s: float(np.trace(e @ f).real)}
        coeffs = {b: a for b, a in coeffs.items() if np.any(a != 0)}
        hand.add_equality(coeffs, float(np.trace(e @ r).real))

    assert len(p.equalities) == len(hand.equalities) == 9
    for (got, rhs_got), (want, rhs_want) in zip(p.equalities, hand.equalities):
        assert list(got) == list(want)
        for b in want:
            assert np.array_equal(got[b], want[b])
        assert rhs_got == rhs_want
    # rows 1 and 4 of the 3x3 basis miss rows {0, 2}; f has no (1, 2) entries
    assert x not in p.equalities[1][0] and s not in p.equalities[7][0]


def test_matrix_equality_rejects_bad_terms():
    p = BlockSdp()
    x, s = p.add_block(2), p.add_scalar()
    with pytest.raises(SdpError):
        p.add_matrix_equality([(x, [0, 1, 2], 1.0)], np.eye(3))
    with pytest.raises(SdpError):
        p.add_matrix_equality([(x, np.eye(2))], np.eye(2))
    with pytest.raises(SdpError):
        p.add_matrix_equality([(s, np.array([[0.0, 1.0], [0.0, 0.0]]))], np.eye(2))
    with pytest.raises(SdpError):
        p.add_matrix_equality([(x, None, 1.0)], np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_bad_placements_rejected():
    # negative, repeated or out-of-range rows and unknown blocks raise
    # SdpError and add no row
    p = BlockSdp()
    x, s = p.add_block(2), p.add_scalar()
    bad_terms = [
        ([(s, [-1], 1.0)], np.diag([0.0, 1.0])),  # would wrap to row 1
        ([(s, [2], 1.0)], np.eye(2)),
        ([(x, [0, 0], 1.0)], np.eye(3)),
        ([(x, [-1, 0], 1.0)], np.eye(3)),
        ([(2, None, 1.0)], np.eye(1)),
        ([(-1, None, 1.0)], np.eye(2)),  # would address block x
        ([(-1, np.eye(2))], np.eye(2)),
        ([(5, np.eye(2))], np.eye(2)),
    ]
    for terms, rhs in bad_terms:
        with pytest.raises(SdpError):
            p.add_matrix_equality(terms, rhs)
    for b in (-1, 2, 7):
        with pytest.raises(SdpError):
            p.add_equality({b: 1.0}, 1.0)
        with pytest.raises(SdpError):
            p.add_inequality({b: 1.0}, 1.0)
        with pytest.raises(SdpError):
            p.set_objective({b: 1.0})
    assert p.equalities == [] and p.inequalities == [] and p.objective == {}
    p.add_matrix_equality([(s, [1], 1.0), (x, None, 1.0)], np.eye(2))
    assert len(p.equalities) == 4


def test_compile_follows_every_change():
    p = BlockSdp()
    x = p.add_block(2)
    p.add_equality({x: np.eye(2)}, 1.0)
    first = p.compile()
    assert p.compile() is first
    p.add_equality({x: np.diag([1.0, 0.0])}, 0.25)
    assert list(p.compile().b) == [1.0, 0.25]
    p.equalities = p.equalities[::-1]
    assert list(p.compile().b) == [0.25, 1.0]
    p.set_objective({x: np.diag([2.0, 0.0])})
    assert p.compile().c.tolist() == (2.0 * p.compile().vector([np.diag([1.0, 0.0])])).tolist()
    s = p.add_scalar()
    p.add_inequality({s: 1.0}, 3.0)
    assert p.compile().dims == [2, 1, 1] and list(p.compile().b) == [0.25, 1.0, 3.0]


def test_with_rhs_shares_the_compiled_structure():
    p = BlockSdp()
    x, s = p.add_block(2), p.add_scalar()
    p.add_matrix_equality([(x, None, 1.0), (s, [0], -1.0)], np.eye(2))
    p.add_inequality({s: 1.0}, 3.0)
    comp = p.compile()
    rhs = np.concatenate([sdp.matrix_rhs(np.diag([0.5, 2.0])), [4.0]])
    q = p.with_rhs(rhs, objective={x: np.diag([1.0, -1.0])})
    fresh = BlockSdp()
    fresh.add_block(2), fresh.add_scalar()
    fresh.add_matrix_equality([(x, None, 1.0), (s, [0], -1.0)], np.diag([0.5, 2.0]))
    fresh.add_inequality({s: 1.0}, 4.0)
    fresh.set_objective({x: np.diag([1.0, -1.0])})
    got, want = q.compile(), fresh.compile()
    assert got.a is comp.a and p.compile() is comp
    assert got.b.tobytes() == want.b.tobytes() and got.c.tobytes() == want.c.tobytes()
    assert [r for _, r in q.equalities + q.inequalities] == [r for _, r in fresh.equalities
                                                             + fresh.inequalities]
    assert solve(q).objective == pytest.approx(solve(fresh).objective, abs=1e-12)
    # a change to the copy leaves the original as it was
    q.add_equality({s: 1.0}, 0.5)
    assert q.compile().b.size == 6 and p.compile() is comp and len(p.equalities) == 4
    with pytest.raises(SdpError):
        p.with_rhs(rhs[:-1])


def test_matrix_equality_terms_on_one_block_add_up():
    def rows(terms, rhs):
        p = BlockSdp()
        p.add_scalar(), p.add_block(2)
        p.add_matrix_equality(terms, rhs)
        return p.equalities

    def assert_same(got, want):
        assert len(got) == len(want)
        for (cs, rhs), (cs_want, rhs_want) in zip(got, want):
            assert list(cs) == list(cs_want) and rhs == rhs_want
            for b in cs_want:
                assert np.array_equal(cs[b], cs_want[b])

    s, x = 0, 1
    assert_same(rows([(s, [0], 1.0), (s, [0], 1.0)], [[2.0]]), rows([(s, [0], 2.0)], [[2.0]]))
    r = np.array([[1.0, 0.5j], [-0.5j, 3.0]])
    assert_same(rows([(x, None, 1.0), (x, None, 1.0)], r), rows([(x, None, 2.0)], r))


def test_problem_json_dump():
    p = BlockSdp()
    x = p.add_block(2, "X")
    p.add_equality({x: np.eye(2)}, 1.0)
    p.set_objective({x: np.eye(2)})
    data = p.to_json()
    assert data["block_dims"] == [2]
    assert data["equalities"][0]["rhs"] == 1.0
    sol = solve(p)
    dumped = sol.to_json()
    assert dumped["status"] == "optimal"


# ---------------------------------------------------------------------------
# The compiled operators against per-row references
# ---------------------------------------------------------------------------

def reference_rows(p):
    """Block sizes and {block: coefficient} rows, one slack scalar per inequality."""
    dims = list(p.block_dims)
    rows = [dict(cs) for cs, _ in p.equalities]
    for cs, _ in p.inequalities:
        dims.append(1)
        rows.append({**cs, len(dims) - 1: np.eye(1, dtype=complex)})
    return dims, rows


def reference_apply_a(a_list, x):
    out = np.empty(len(a_list))
    for i, cs in enumerate(a_list):
        s = 0.0
        for b, a in cs.items():
            s += float(np.trace(a @ x[b]).real)
        out[i] = s
    return out


def reference_apply_at(a_list, dims, y):
    out = [np.zeros((d, d), dtype=complex) for d in dims]
    for i, cs in enumerate(a_list):
        for b, a in cs.items():
            out[b] += y[i] * a
    return out


def reference_schur(a_list, dims, w):
    m = len(a_list)
    s = np.zeros((m, m))
    by_block: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, cs in enumerate(a_list):
        for b, a in cs.items():
            by_block.setdefault(b, []).append((i, a))
    for b, entries in by_block.items():
        idx = np.array([i for i, _ in entries])
        mats = np.stack([a for _, a in entries])
        waw = np.einsum("ab,ibc,cd->iad", w[b], mats, w[b])
        s[np.ix_(idx, idx)] += np.real(np.einsum("iab,jba->ij", mats, waw))
    return 0.5 * (s + s.T)


def herm(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_program(rng):
    """Blocks of sizes 1 to 4; scalar rows, inequalities, matrix equalities
    with placed sub-blocks and scalar x F terms, and an objective."""
    p = BlockSdp()
    sizes = [1, 1, 2, 3, 4] + [int(v) for v in rng.integers(1, 5, size=5)]
    blocks = [p.add_block(d) for d in sizes]
    scalars = [b for b in blocks if sizes[b] == 1]
    for _ in range(5):
        chosen = rng.choice(blocks, size=3, replace=False)
        p.add_equality({b: herm(rng, sizes[b]) for b in chosen}, rng.standard_normal())
    for _ in range(3):
        chosen = rng.choice(blocks, size=2, replace=False)
        p.add_inequality({b: herm(rng, sizes[b]) for b in chosen}, rng.standard_normal())
    for dim in (3, 4):
        terms = [(b, sorted(rng.choice(dim, size=sizes[b], replace=False)),
                  float(rng.choice([1.0, -2.0]))) for b in blocks if sizes[b] <= dim][:4]
        terms.append((int(rng.choice(scalars)), herm(rng, dim)))
        p.add_matrix_equality(terms, herm(rng, dim))
    p.set_objective({b: herm(rng, sizes[b]) for b in rng.choice(blocks, size=4, replace=False)})
    return p


def sphere_program():
    """The 257-row diamond-norm program of the 64-outcome sphere pair."""
    captured = []

    def capture(problem, **kwargs):
        captured.append(problem)
        raise StopIteration

    solve_fn, sdp.solve = sdp.solve, capture
    try:
        with pytest.raises(StopIteration):
            distances.quantum_distance(*sphere_povm_pair(64))
    finally:
        sdp.solve = solve_fn
    return captured[0]


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("case", list(range(6)) + ["sphere"])
def test_compiled_operators_match_per_row_reference(case):
    rng = np.random.default_rng(40 + (0 if case == "sphere" else case))
    p = sphere_program() if case == "sphere" else random_program(rng)
    comp = p.compile()
    dims, rows = reference_rows(p)
    rhs = [r for _, r in p.equalities + p.inequalities]
    assert comp.dims == dims and np.array_equal(comp.b, rhs)
    if case == "sphere":
        assert len(rows) == 257 and len(dims) == 129

    x = [herm(rng, d) for d in dims]
    z = [herm(rng, d) for d in dims]
    y = rng.standard_normal(len(rows))
    assert_close(comp.a @ comp.vector(x), reference_apply_a(rows, x))
    for got, want in zip(comp.blocks(y @ comp.a), reference_apply_at(rows, dims, y)):
        assert_close(got, want)
    assert_close(np.dot(comp.vector(x), comp.vector(z)),
                 sum(np.trace(a @ b).real for a, b in zip(x, z)))

    # W = R R^H, with the real positive R that 1x1 blocks have; a 1x1
    # block's map in the spin group is its 1x1 map times I_4, as in sdp._Spin
    r = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) if d > 1
         else rng.uniform(0.5, 2.0, (1, 1)) for d in dims]
    maps = [np.array([sdp._congruence(r[b][None])[0] * (np.eye(4) if dims[b] == 1 else 1.0)
                      for b in mem]) for mem in comp.members]
    s = comp.schur(maps)
    assert_close(s, reference_schur(rows, dims, [a @ a.conj().T for a in r]))
    assert np.array_equal(s, s.T)

    c = [np.asarray(p.objective.get(b, np.zeros((d, d))), dtype=complex)
         for b, d in enumerate(dims)]
    aty = reference_apply_at(rows, dims, y)
    for farkas in (False, True):
        want = min(np.linalg.eigvalsh(a if farkas else a - cb)[0] for a, cb in zip(aty, c))
        min_eig, b_dot_y = comp.dual_check(y, farkas=farkas)
        assert_close(min_eig, want)
        assert_close(b_dot_y, np.dot(rhs, y))


# ---------------------------------------------------------------------------
# The layout: a dense constraint matrix, one spin group for 1x1 and 2x2 blocks
# ---------------------------------------------------------------------------

def spin_row(comp, v, b):
    """Block b's row of a flat vector v in the compiled layout."""
    g, k = comp.where[b]
    return comp.split(np.ascontiguousarray(v))[g][k]


def test_scalar_block_is_stored_exactly_with_a_zero_tail():
    # a 1x1 block's coefficient, objective entry and identity are (a, 0, 0, 0),
    # with a the scalar itself to the last bit
    rng = np.random.default_rng(12)
    p = BlockSdp()
    x, s, t = p.add_block(2), p.add_scalar(), p.add_scalar()
    coeff = [float(v) for v in rng.standard_normal(3) * 10.0 ** rng.integers(-8, 8, 3)]
    p.add_equality({x: np.eye(2), s: coeff[0]}, 1.0)
    p.add_equality({s: coeff[1], t: 1.0}, 2.0)
    p.add_inequality({x: np.diag([1.0, 0.0]), t: coeff[2]}, 3.0)
    p.set_objective({s: coeff[0] / 3.0, x: np.eye(2)})
    comp = p.compile()
    assert comp.sizes == [2] and comp.dims == [2, 1, 1, 1]
    assert comp.spin_dims[:, 0].tolist() == [2.0, 1.0, 1.0, 1.0]
    bits = lambda *v: np.array(v, dtype=float).tobytes()
    assert spin_row(comp, comp.a[0], s).tobytes() == bits(coeff[0], 0, 0, 0)
    assert spin_row(comp, comp.a[1], s).tobytes() == bits(coeff[1], 0, 0, 0)
    assert spin_row(comp, comp.a[2], t).tobytes() == bits(coeff[2], 0, 0, 0)
    assert spin_row(comp, comp.a[2], 3).tobytes() == bits(1, 0, 0, 0)  # the slack scalar
    assert spin_row(comp, comp.a[1], x).tobytes() == bits(0, 0, 0, 0)
    assert spin_row(comp, comp.c, s).tobytes() == bits(coeff[0] / 3.0, 0, 0, 0)
    for b in (s, t, 3):
        assert spin_row(comp, comp.e, b).tobytes() == bits(1, 0, 0, 0)
    assert spin_row(comp, comp.e, x).tolist() == [pytest.approx(2.0 ** 0.5, rel=1e-15), 0, 0, 0]
    # a 1x1 block comes back as a 1x1 block, and a round trip is exact
    blocks = [herm(rng, d) for d in comp.dims]
    back = comp.blocks(comp.vector(blocks))
    assert [b.shape for b in back] == [(2, 2), (1, 1), (1, 1), (1, 1)]
    for got, want in zip(back[1:], blocks[1:]):
        assert got.tobytes() == want.real.astype(complex).tobytes()
    assert_close(back[0], blocks[0])


@pytest.mark.parametrize("case", ["ladder", "scalars", "qutrit"])
def test_scalar_tails_stay_zero_through_a_solve(case, monkeypatch):
    """Every iterate the spin group sees, and the answer, has a 1x1 block's
    tail exactly 0: on a ladder membership program, an LP of scalars and a
    qutrit program, whose spin group sits beside an eigh group."""
    seen = []

    class Recording(sdp._Spin):
        def __init__(self, x, z, d):
            seen.append((x.copy(), z.copy(), d[:, 0] == 1))
            super().__init__(x, z, d)

    monkeypatch.setattr(sdp, "_Spin", Recording)
    rng = np.random.default_rng(13)
    if case == "ladder":
        p = charact.finite_membership_program(degrade(projective_qubit("x"), 0.8), 5)
    elif case == "scalars":
        p = BlockSdp()
        ids = [p.add_scalar() for _ in range(6)]
        a = rng.standard_normal((3, 6))
        for row, rhs in zip(a, a @ (rng.random(6) + 0.1)):
            p.add_equality(dict(zip(ids, row)), rhs)
        p.set_objective({b: -1.0 for b in ids})
    else:
        m3, levels = random_rank_one_povm(rng, 3, 3), (0.0, 1.0, 2.0)
        p = charact._assemble_sectors(m3, spectra.joint_sectors(levels, levels)).problem
    sol = solve(p)
    assert sol.status == "optimal" and len(seen) == sol.iterations - 1
    assert all(one.any() for _, _, one in seen)
    for x, z, one in seen:
        assert np.all(x[one, 1:] == 0.0) and np.all(z[one, 1:] == 0.0)
    comp = sol.program
    one = comp.spin_dims[:, 0] == 1
    assert np.all(comp.split(sol.x_flat)[0][one, 1:] == 0.0)
    assert all(b.shape == (d, d) for b, d in zip(sol.x + sol.z, comp.dims + comp.dims))


def test_spin_group_least_eigenvalue_is_the_blocks_least_eigenvalue():
    # (v0 - |v'|) / sqrt d over a mixed 1x1 / 2x2 group, against eigvalsh of
    # blocks(), through _min_eig and dual_check, with each block in turn
    # the least one, on well-conditioned and on nearly singular blocks
    rng = np.random.default_rng(14)
    p = BlockSdp()
    dims = [int(d) for d in rng.choice([1, 2], 16)] + [3]
    for d in dims:
        p.add_block(d)
    p.add_equality({0: np.eye(dims[0])}, 1.0)
    comp = p.compile()
    assert comp.sizes == [2, 3]
    for scale in (1.0, 1e-9):
        for j in range(len(dims)):
            mats = [random_pd(rng, 1, d, scale)[0] + (0.0 if b == j else 10.0 * np.eye(d))
                    for b, d in enumerate(dims)]
            mats[j] = mats[j] - 0.5 * scale * np.eye(dims[j])  # the least, maybe negative
            v = comp.vector(mats)
            want = min(np.linalg.eigvalsh(b)[0] for b in comp.blocks(v))
            tol = 1e-14 * 12.0  # every block's norm is below 12
            assert abs(comp._min_eig(v) - want) <= tol
            p.set_objective({b: -m for b, m in enumerate(mats)})
            assert abs(p.compile().dual_check(np.zeros(1))[0] - want) <= tol


@pytest.mark.parametrize("case", ["ladder", "qutrit", "sphere"])
def test_schur_complement_is_exactly_symmetric(case):
    rng = np.random.default_rng(15)
    if case == "ladder":
        p = charact.finite_membership_program(degrade(projective_qubit("x"), 0.8), 10)
    elif case == "qutrit":
        m3, levels = random_rank_one_povm(rng, 3, 3), (0.0, 1.0, 2.0)
        p = charact._assemble_sectors(m3, spectra.joint_sectors(levels, levels)).problem
    else:
        p = sphere_program()
    comp = p.compile()
    for _ in range(3):
        x, z = (comp.vector([random_pd(rng, 1, d, 1e-6)[0] for d in comp.dims]) for _ in "xz")
        cones = [sdp._Spin(xg, zg, comp.spin_dims) if d == 2 else sdp._Eigh(xg, zg, d)
                 for xg, zg, d in zip(comp.split(x), comp.split(z), comp.sizes)]
        s = comp.schur([k.r for k in cones])
        assert np.array_equal(s, s.T)
        assert np.all(np.isfinite(s)) and np.all(np.diag(s) > 0)


# ---------------------------------------------------------------------------
# The Schur solve: LAPACK potrf and potrs, a shifted factor, refinement
# ---------------------------------------------------------------------------

def counted_factor(monkeypatch):
    """Count potrf calls and forbid the lstsq fallback."""
    calls = []
    potrf = sdp._POTRF
    monkeypatch.setattr(sdp, "_POTRF", lambda *a, **k: calls.append(1) or potrf(*a, **k))

    def no_lstsq(*a, **k):
        raise AssertionError("lstsq fallback")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    return calls


def test_factor_schur_solves_a_positive_definite_matrix(monkeypatch):
    calls = counted_factor(monkeypatch)
    rng = np.random.default_rng(16)
    g = rng.standard_normal((30, 30))
    s = g @ g.T + 1e-3 * np.eye(30)
    before = s.copy()
    r = rng.standard_normal(30)
    u = sdp._factor_schur(s)(r)
    assert len(calls) == 1 and np.array_equal(s, before)
    assert np.linalg.norm(s @ u - r) <= 1e-12 * np.linalg.norm(s, 2) * np.linalg.norm(u)
    assert np.linalg.norm(u - np.linalg.solve(s, r)) <= 1e-9 * np.linalg.norm(u)


def test_factor_schur_shifts_a_rounding_level_indefinite_matrix(monkeypatch):
    # eigenvalues 1 ... 1e-3 and one at -1e-17 of the trace: potrf fails,
    # the shifted factor succeeds, and refinement restores the residual
    calls = counted_factor(monkeypatch)
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    w = np.geomspace(1.0, 1e-3, 20)
    w[-1] = -1e-17 * w.sum()
    s = (q * w) @ q.T
    s = 0.5 * (s + s.T)
    r = s @ rng.standard_normal(20)  # in the range of s
    u = sdp._factor_schur(s)(r)
    assert len(calls) >= 2
    assert np.linalg.norm(s @ u - r) <= 1e-10 * np.linalg.norm(r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_schur_rejects_a_non_finite_matrix(bad, monkeypatch):
    # potrf factors a nan without complaint, so the check comes first
    calls = counted_factor(monkeypatch)
    for where in ((0, 0), (3, 1), (5, 5)):
        s = np.eye(6) * 3.0 + 0.1
        s[where] = s[where[::-1]] = bad
        with pytest.raises(SdpError, match="not finite"):
            sdp._factor_schur(s)
    assert calls == []


# ---------------------------------------------------------------------------
# The spin-factor closed forms of 1x1 and 2x2 blocks against matrix forms
# ---------------------------------------------------------------------------

def random_pd(rng, n, d, ratio):
    """n random d x d PD matrices, eigenvalues in [0.5, 2] but the smallest
    one times ratio."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    u = np.linalg.qr(g)[0]
    w = rng.uniform(0.5, 2.0, (n, d))
    w[:, 0] *= ratio
    return (u * w[:, None, :]) @ u.conj().swapaxes(1, 2)


def norms(a):
    """Spectral norm of each matrix of a stack or list."""
    return np.array([np.linalg.norm(m, 2) for m in a])


def spin_coords(mats):
    """Spin-group rows of a list of 1x1 and 2x2 matrices: a 1x1 block (v)
    is (v, 0, 0, 0)."""
    out = np.zeros((len(mats), 4))
    for k, m in enumerate(mats):
        out[k, :m.size] = sdp._vec(np.asarray(m, dtype=complex)[None])[0]
    return out


def spin_mats(v, dims):
    """The 1x1 and 2x2 matrices of spin-group rows."""
    return [sdp._mat(row[None, :d * d], d)[0] for row, d in zip(v, dims)]


def draw_blocks(rng, n, d, ratio_x, ratio_z, paired):
    """x, z, dx, dz and y: n random d x d blocks each, x and z PD."""
    xm = random_pd(rng, n, d, ratio_x)
    if paired:  # Z singular where X is not, on X's eigenvectors
        w, u = np.linalg.eigh(xm)
        zm = (u * (ratio_z * rng.uniform(0.5, 2.0, (n, d)) / w)[:, None, :]) @ u.conj().swapaxes(1, 2)
    else:
        zm = random_pd(rng, n, d, ratio_z)
    dxm, dzm, ym = (np.array([herm(rng, d) for _ in range(n)]) for _ in range(3))
    return xm, zm, dxm, dzm, ym


@pytest.mark.parametrize("d", [1, 2, "mixed"])
@pytest.mark.parametrize("ratio_x, ratio_z, paired", [
    (1.0, 1.0, False), (1e-12, 1.0, False), (1.0, 1e-12, False), (1e-12, 1e-12, False),
    (1e-12, 1e-12, True)])
def test_spin_factor_closed_forms_match_matrix_forms(d, ratio_x, ratio_z, paired):
    """The NT scaling, step length, Jordan product, inverse and Mehrotra's
    term of sdp._Spin against the matrix forms, on random PD blocks and on
    near-singular ones (eigenvalue ratio 1e-12; paired: X and Z singular
    along complementary directions, as near an optimum), for a group of
    1x1 blocks, of 2x2 blocks and of both mixed at random.

    Each error is relative to the size that the rounding of the inputs
    allows (for a product, the product of its factors' norms; for an
    inverse, ||X^-1||^2 ||X||; for the step, the perturbation bound of the
    pencil's eigenvalue). For well-conditioned blocks that is the size of
    the result. Near a singular block a result can move by 1e-4 of itself
    under a last-bit change of the data, for the eigh forms as for the
    closed ones, so a plain relative error would test the data, not the
    formula. Every result keeps a 1x1 block's tail exactly 0."""
    rng = np.random.default_rng(10 if d == "mixed" else 7 + d)
    n = 40
    sizes = (1, 2) if d == "mixed" else (d,)
    drawn = {b: draw_blocks(rng, n, b, ratio_x, ratio_z, paired) for b in sizes}
    dims = rng.choice(sizes, n) if d == "mixed" else np.full(n, d)
    xm, zm, dxm, dzm, ym = ([drawn[b][i][k] for k, b in enumerate(dims)] for i in range(5))
    x, z, dx, dz, y = map(spin_coords, (xm, zm, dxm, dzm, ym))
    k = sdp._Spin(x, z, dims[:, None].astype(float))
    one = dims == 1

    def check(got, want, scale, rows=slice(None)):
        got = np.asarray(got)[rows]
        err = np.linalg.norm(np.reshape(got - np.asarray(want)[rows], (len(got), -1)), axis=1)
        assert np.all(err <= 1e-12 * scale[rows])
        if got.ndim == 2:  # a 1x1 block's tail stays 0
            assert np.all(got[one[rows], 1:] == 0.0)

    vnorm = lambda v: np.linalg.norm(v, axis=1)
    inv = lambda mats: [np.linalg.inv(m) for m in mats]
    # R^2 z = x and R z = R^-1 x (= lam)
    check(sdp._apply(k.w2, z), x, norms(k.w2) * vnorm(z))
    check(sdp._apply(k.r, z), sdp._apply(k.rinv, x),
          norms(k.r) * vnorm(z) + norms(k.rinv) * vnorm(x))
    check(k.r @ k.r, k.w2, norms(k.r) ** 2)
    for mat in (k.r, k.rinv, k.w2):  # a 1x1 block's maps are diagonal
        assert np.all(mat[one] * (1.0 - np.eye(4)) == 0.0)
    assert np.all(k.lam[one, 1:] == 0.0) and np.all(k.zinv[one, 1:] == 0.0)
    # the Jordan product is (XY + YX)/2
    check(k._jordan(x, y), spin_coords([0.5 * (a @ b + b @ a) for a, b in zip(xm, ym)]),
          norms(xm) * norms(ym))
    # the inverse: x \ e
    e = np.zeros_like(x)
    e[:, 0] = np.sqrt(dims)
    check(k.solve(x, e), spin_coords(inv(xm)), norms(inv(xm)) ** 2 * norms(xm))
    # sm z^-1 - x, and Mehrotra's term against the Lyapunov form
    check(k.center(0.3, 0 * dx, 0 * dz),
          spin_coords([0.3 * np.linalg.inv(b) - a for a, b in zip(xm, zm)]),
          0.3 * norms(inv(zm)) ** 2 * norms(zm) + norms(xm))
    # Mehrotra's term: in the NT-scaled space it is lam \\ (dx~ o dz~), the
    # Lyapunov solve of _second_order taken in lam's eigenbasis
    lam = spin_mats(k.lam, dims)
    want, scale = [], []
    for lm, a, b in zip(lam, dxm, dzm):
        w, u = np.linalg.eigh(lm)
        want.append(-sdp._second_order(u[None], w[None], lm[None], a[None], b[None])[0])
        scale.append(np.linalg.norm(a, 2) * np.linalg.norm(b, 2) * w[-1] / w[0] ** 2)
    check(k.solve(k.lam, k._jordan(dx, dz)), spin_coords(want), np.array(scale))
    if ratio_x == ratio_z == 1.0:  # and in X's space, where the eigh form is accurate
        want = [None] * n
        for b in sizes:
            rows = np.flatnonzero(dims == b)
            ref = sdp._Eigh(sdp._vec(np.array([xm[i] for i in rows])),
                            sdp._vec(np.array([zm[i] for i in rows])), b)
            for i, m in zip(rows, sdp._second_order(ref.rm, ref.lam, ref.z,
                                                    np.array([dxm[i] for i in rows]),
                                                    np.array([dzm[i] for i in rows]))):
                want[i] = m
        check(k.center(0.0, dx, dz) + x, spin_coords(want), norms(want))
    # the step length: -1/lam_min(X^-1/2 dX X^-1/2), and inf where dX is PSD
    for i in range(n):
        w, u = np.linalg.eigh(xm[i])
        xmh = (u / np.sqrt(w)) @ u.conj().T
        lmin = np.linalg.eigvalsh(xmh @ dxm[i] @ xmh)[0]
        one_block = sdp._Spin(x[i:i + 1], z[i:i + 1], dims[i:i + 1, None].astype(float))
        alpha = one_block.max_step(dx[i:i + 1], z[i:i + 1])  # z + alpha z never leaves the cone
        got = -1.0 / alpha if np.isfinite(alpha) else 0.0
        scale = np.linalg.norm(np.linalg.inv(xm[i]), 2) * (
            np.linalg.norm(dxm[i], 2) + abs(lmin) * np.linalg.norm(xm[i], 2))
        assert abs(got - min(lmin, 0.0)) <= 1e-12 * scale
        pd = spin_coords(random_pd(rng, 1, dims[i], 1.0))
        assert one_block.max_step(pd, z[i:i + 1]) == np.inf


def test_no_eigh_on_a_qubit_program(monkeypatch):
    """Programs of 1x1 and 2x2 blocks solve without eigh or eigvalsh; a
    qutrit program still solves by them."""
    calls = []
    solve_fn = sdp.solve

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    def solve_counted(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
            m.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
            return solve_fn(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve", solve_counted)
    assert charact.membership_finite(degrade(projective_qubit("x"), 0.8), 5).is_member
    rng = np.random.default_rng(5)
    assert distances.quantum_distance(random_two_outcome(rng), random_two_outcome(rng)).value > 0
    assert calls == []
    qutrit = [random_rank_one_povm(rng, 3, 3) for _ in range(2)]
    assert distances.quantum_distance(*qutrit).value > 0
    assert calls


# ---------------------------------------------------------------------------
# Every caller accepts a solution by its checked bounds, not by its status
# ---------------------------------------------------------------------------

CALLERS = {
    "member": lambda: charact.membership_finite(degrade(projective_qubit("x"), 0.5), 3),
    "non_member": lambda: charact.membership_finite(degrade(projective_qubit("x"), 0.99), 3),
    "critical_degradation": lambda: charact.critical_degradation(projective_qubit("x"), 3),
    "optimize_finite": lambda: charact.optimize_finite(list(projective_qubit("x").elements), 3),
    "optimize_energy": lambda: charact.optimize_energy(list(projective_qubit("x").elements),
                                                       2.0, 1.0, 8),
    "quantum_distance": lambda: distances.quantum_distance(projective_qubit("x"),
                                                           projective_qubit("z")),
}


@pytest.mark.parametrize("caller, side, raises", [
    ("member", "x", True), ("member", "y", False), ("non_member", "y", True),
    ("non_member", "x", False)] + [(c, side, True) for side in "xy" for c in (
        "critical_degradation", "optimize_finite", "optimize_energy", "quantum_distance")])
def test_a_failed_check_raises_in_every_caller(caller, side, raises, monkeypatch):
    """sdp.solve returns its solution with x shifted by -I or y moved by
    seeded noise, so that lower or upper fails its check. A verdict reads
    only the bound that proves it; every other caller reads both."""
    solve_fn, rng = sdp.solve, np.random.default_rng(3)

    def doctored(*args, **kwargs):
        sol = solve_fn(*args, **kwargs)
        if side == "x":
            return replace(sol, x_flat=sol.x_flat - sol.program.e)  # every block - I
        return replace(sol, y=sol.y + rng.standard_normal(sol.y.shape))

    CALLERS[caller]()
    monkeypatch.setattr(sdp, "solve", doctored)
    if raises:
        with pytest.raises(SdpError, match="status optimal|bounds failed"):
            CALLERS[caller]()
    else:
        CALLERS[caller]()


@pytest.mark.parametrize("caller", ["optimize_finite", "quantum_distance"])
def test_a_solve_stopped_by_max_iter_is_returned_once_its_bracket_closes(caller, monkeypatch):
    solved, solve_fn = [], sdp.solve
    value = lambda r: r[0] if isinstance(r, tuple) else r.value
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: solved.append(solve_fn(*a, **k))
                        or solved[-1])
    want = value(CALLERS[caller]())
    stop = solved[0].iterations - 1  # one step short of the solver's tolerance
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: solved.append(
        solve_fn(*a, **k, max_iter=stop)) or solved[-1])
    got = value(CALLERS[caller]())
    assert [s.status for s in solved] == ["optimal", "max_iter"]
    assert got == pytest.approx(want, abs=1e-6)


def test_a_solution_builds_its_blocks_only_when_they_are_read(monkeypatch):
    # the solver keeps its flat iterates: a non-member verdict reads y and
    # its bound, never a block; quantum_distance reads x, built once
    calls = []
    blocks_fn = sdp._Compiled.blocks
    monkeypatch.setattr(sdp._Compiled, "blocks",
                        lambda self, v: calls.append(len(v)) or blocks_fn(self, v))
    assert not charact.membership_finite(degrade(projective_qubit("x"), 0.99), 3).is_member
    assert calls == []
    distances.quantum_distance(projective_qubit("x"), projective_qubit("z"))
    assert len(calls) == 1


NAN, INF = float("nan"), float("inf")


def _small_program():
    """A scalar (block 0) and a 2x2 block (block 1), with one row."""
    p = BlockSdp()
    p.add_equality({p.add_scalar(): 1.0, p.add_block(2): np.eye(2)}, 1.0)
    return p


@pytest.mark.parametrize("bad, error", [
    (lambda: _small_program().add_equality({1: [[NAN, 0], [0, 1]]}, 1.0), SdpError),
    (lambda: _small_program().set_objective({0: NAN}), SdpError),
    (lambda: sdp.matrix_rhs([[INF, 0], [0, 1]]), SdpError),
    (lambda: _small_program().add_equality({0: 1.0}, NAN), SdpError),
    (lambda: _small_program().add_inequality({0: 1.0}, -INF), SdpError),
    (lambda: _small_program().with_rhs([NAN]), SdpError),
    (lambda: _small_program().add_matrix_equality([(0, [0], NAN)], np.eye(1)), SdpError),
    # an argument of the caller is named by the caller, before any program is built
    (lambda: charact.membership_energy(degrade(projective_qubit("x"), 0.5), NAN, 1.0, 4),
     ValueError),
], ids=["coefficient", "objective", "matrix_rhs", "equality_rhs", "inequality_rhs",
        "with_rhs", "placement_scale", "membership_energy"])
def test_non_finite_data_is_rejected_before_a_solve(bad, error, monkeypatch):
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: pytest.fail("solved non-finite data"))
    message = "not finite" if error is SdpError else "must be positive and finite: nan"
    with pytest.raises(error, match=message):
        bad()
