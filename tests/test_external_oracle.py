"""Cross-checks of the built-in SDP solver against an external solver stack.

These run only when cvxpy is importable; they pin the diamond-norm values
and the membership slack margins against an independently implemented
formulation solved by a different algorithm.
"""

import math

import numpy as np
import pytest

cp = pytest.importorskip("cvxpy")

from enmeas import charact
from enmeas.distances import quantum_distance
from enmeas.povm import degrade, projective_qubit, random_rank_one_povm


def dq_reference(m0, m1):
    d = m0.dim
    diffs = [a - b for a, b in zip(m0.elements, m1.elements)]
    rho = cp.Variable((d, d), hermitian=True)
    xs = [cp.Variable((d, d), hermitian=True) for _ in diffs]
    cons = [rho >> 0, cp.trace(rho) == 1]
    for x in xs:
        cons += [rho - x >> 0, rho + x >> 0]
    obj = cp.Maximize(cp.real(sum(cp.trace(dd.T @ x) for dd, x in zip(diffs, xs))))
    cp.Problem(obj, cons).solve(solver=cp.CLARABEL)
    return 0.5 * float(obj.value)


def slack_reference(m, d, q_fixed=None):
    n = m.n_outcomes
    blocks = {}
    for k in range(d + 1):
        dim = 1 if k in (0, d) else 2
        for x in range(n):
            blocks[(k, x)] = (cp.Variable((dim, dim), hermitian=True)
                              if dim > 1 else cp.Variable((1, 1), symmetric=True))
    p = None if q_fixed is not None else cp.Variable(d, nonneg=True)
    t = cp.Variable(nonneg=True)
    cons = [blocks[key] >> 0 for key in blocks]

    def w(i):
        return q_fixed[i] if q_fixed is not None else p[i]

    for k in range(d + 1):
        tot = sum(blocks[(k, x)] for x in range(n))
        if k == 0:
            cons.append(tot[0, 0] == w(0))
        elif k == d:
            cons.append(tot[0, 0] == w(d - 1))
        else:
            cons += [tot[0, 0] == w(k), tot[1, 1] == w(k - 1), tot[0, 1] == 0]
    if p is not None:
        cons.append(cp.sum(p) == 1)
    e00 = np.diag([1.0, 0.0])
    e11 = np.diag([0.0, 1.0])
    for x in range(n):
        recon = blocks[(0, x)][0, 0] * cp.Constant(e00) \
            + blocks[(d, x)][0, 0] * cp.Constant(e11)
        for k in range(1, d):
            recon = recon + blocks[(k, x)]
        r = recon - cp.Constant(m.elements[x])
        cons += [t * np.eye(2) - r >> 0, t * np.eye(2) + r >> 0]
    prob = cp.Problem(cp.Minimize(t), cons)
    prob.solve(solver=cp.CLARABEL)
    return float(t.value)


def test_quantum_distance_matches_external_solver():
    rng = np.random.default_rng(42)
    for _ in range(3):
        a = random_rank_one_povm(rng, 2, 3)
        b = random_rank_one_povm(rng, 2, 3)
        mine = quantum_distance(a, b).value
        ref = dq_reference(a, b)
        assert mine == pytest.approx(ref, abs=2e-7)


def test_membership_margin_matches_external_solver():
    mx = projective_qubit("x")
    for d in (2, 3, 5):
        tauc = math.cos(math.pi / (d + 1))
        m = degrade(mx, tauc + 0.01)
        v = charact.membership_finite(m, d)
        assert v.verdict == "non_member"
        assert v.slack == pytest.approx(slack_reference(m, d), abs=2e-7)
        assert v.slack == pytest.approx(0.005, abs=1e-6)  # (tau - tau_c)/2


def test_fixed_distribution_margin_matches_external_solver():
    from enmeas.tau import optimal_finite_state

    rng = np.random.default_rng(3)
    q = optimal_finite_state(3).populations()
    m = degrade(random_rank_one_povm(rng, 2, 4), 0.9)
    slack = charact.fixed_distribution_feasible(m, q).slack
    assert slack == pytest.approx(slack_reference(m, 3, q_fixed=q), abs=2e-7)


def optimize_reference(v, d, energy_cap=None, outer=False):
    n = len(v)
    blocks = {}
    for k in range(d + 1):
        dim = 1 if (k == 0 or (k == d and not outer)) else 2
        for x in range(n):
            blocks[(k, x)] = (cp.Variable((dim, dim), hermitian=True)
                              if dim > 1 else cp.Variable((1, 1), symmetric=True))
    p = cp.Variable(d, nonneg=True)
    tail = cp.Variable(nonneg=True) if outer else None
    cons = [blocks[key] >> 0 for key in blocks]
    for k in range(d + 1):
        tot = sum(blocks[(k, x)] for x in range(n))
        if k == 0:
            cons.append(tot[0, 0] == p[0])
        elif k == d and not outer:
            cons.append(tot[0, 0] == p[d - 1])
        elif k == d and outer:
            cons += [tot[0, 0] == tail, tot[1, 1] == tail + p[d - 1], tot[0, 1] == 0]
        else:
            cons += [tot[0, 0] == p[k], tot[1, 1] == p[k - 1], tot[0, 1] == 0]
    cons.append(cp.sum(p) + (tail if outer else 0) == 1)
    if energy_cap is not None:
        cons.append(sum(k * p[k] for k in range(1, d))
                    + (d * tail if outer else 0) <= energy_cap)
    e00 = np.diag([1.0, 0.0])
    e11 = np.diag([0.0, 1.0])
    obj = 0
    for x in range(n):
        recon = blocks[(0, x)][0, 0] * cp.Constant(e00)
        recon = recon + (blocks[(d, x)] if outer
                         else blocks[(d, x)][0, 0] * cp.Constant(e11))
        for k in range(1, d):
            recon = recon + blocks[(k, x)]
        obj = obj + cp.real(cp.trace(recon @ cp.Constant(v[x])))
    prob = cp.Problem(cp.Maximize(obj), cons)
    prob.solve(solver=cp.CLARABEL)
    return float(prob.value)


def test_optimize_finite_matches_external_solver():
    plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
    v = [0.5 * plus, 0.5 * minus]
    for d in (3, 6):
        mine, _, _ = charact.optimize_finite(v, d)
        assert mine == pytest.approx(optimize_reference(v, d), abs=2e-7)
        assert mine == pytest.approx(0.5 * (1 + math.cos(math.pi / (d + 1))), abs=1e-7)
    rng = np.random.default_rng(11)
    for _ in range(2):
        vv = []
        for _ in range(3):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            vv.append(0.5 * (g + g.conj().T))
        mine, _, _ = charact.optimize_finite(vv, 4)
        assert mine == pytest.approx(optimize_reference(vv, 4), abs=2e-7)


def test_optimize_energy_matches_external_solver():
    plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
    v = [0.5 * plus, 0.5 * minus]
    upper, lower, _, _ = charact.optimize_energy(v, 5.0, 1.0, 8)
    assert upper == pytest.approx(
        optimize_reference(v, 8, energy_cap=5.0, outer=True), abs=2e-7)
    assert lower == pytest.approx(
        optimize_reference(v, 8, energy_cap=5.0, outer=False), abs=2e-7)

