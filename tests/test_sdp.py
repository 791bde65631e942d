import math

import numpy as np
import pytest
from scipy.optimize import linprog

from enmeas import charact
from enmeas.povm import degrade, projective_qubit
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

    def test_scalar_infeasibility_certificate(self):
        p = BlockSdp()
        s = p.add_scalar()
        p.add_equality({s: 1.0}, -1.0)
        sol = solve(p, max_iter=80)
        assert sol.status == "infeasible"
        assert verify_infeasibility_certificate(p, sol.certificate)
        assert sol.certificate.objective < -1e-7

    def test_matrix_infeasibility_certificate(self):
        p = BlockSdp()
        x = p.add_block(2)
        p.add_equality({x: np.eye(2)}, 1.0)
        p.add_equality({x: 2.0 * np.eye(2)}, 5.0)
        sol = solve(p, max_iter=80)
        assert sol.status == "infeasible"
        assert verify_infeasibility_certificate(p, sol.certificate)

    def test_membership_program_feasibility_flip(self):
        # the raw decomposition program flips feasible -> infeasible at the
        # boundary quality cos(pi/(d+1)), with a checkable Farkas functional
        mx = projective_qubit("x")
        tau3 = math.cos(math.pi / 4)
        prog = charact._assemble_ladder(degrade(mx, tau3), 3, slack=False)
        sol = solve(prog.problem)
        assert sol.status in ("optimal", "feasible")
        prog = charact._assemble_ladder(degrade(mx, tau3 + 0.01), 3, slack=False)
        sol = solve(prog.problem, max_iter=120)
        assert sol.status == "infeasible"
        assert verify_infeasibility_certificate(prog.problem, sol.certificate)
        assert sol.certificate.objective == pytest.approx(-0.01, abs=1e-4)


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
