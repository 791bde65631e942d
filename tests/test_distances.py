import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from enmeas import distances
from enmeas.distances import (
    classical_distance,
    quantum_distance,
    seesaw_lower_bound,
    set_distance_epsilon,
)
from enmeas.linalg import operator_norm
from enmeas.povm import Povm, degrade, projective_qubit, random_rank_one_povm
from enmeas.reproduce import random_two_outcome, sphere_povm_pair


def enumerated(m0, m1):
    """The classical distance through the 2^(n-1) eigenvalue enumeration."""
    diffs = distances._matched_differences(m0, m1)
    s = distances._enumerate_signs(diffs)
    return 0.5 * operator_norm(sum(x * d for x, d in zip(s, diffs)))


def attained(m0, m1, rho):
    """(1/2) sum_x |tr(rho (M0_x - M1_x))|, the bias the state rho attains."""
    diffs = distances._matched_differences(m0, m1)
    return 0.5 * sum(abs(np.trace(rho @ d).real) for d in diffs)


class TestClassical:
    def test_identical_povms(self):
        m = projective_qubit("z")
        assert classical_distance(m, m).value == 0.0

    def test_z_vs_x_closed_form(self):
        m0 = projective_qubit("z")
        m1 = projective_qubit("x")
        r = classical_distance(m0, m1)
        expect = operator_norm(m0.elements[0] - m1.elements[0])
        assert r.value == pytest.approx(expect, abs=1e-12)
        assert r.value == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert r.method == "exact"

    def test_two_outcome_equals_operator_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = random_two_outcome(rng), random_two_outcome(rng)
            expect = operator_norm(a.elements[0] - b.elements[0])
            assert classical_distance(a, b).value == pytest.approx(expect, abs=1e-12)

    def test_witness_attains_value(self):
        rng = np.random.default_rng(1)
        a = random_rank_one_povm(rng, 2, 3)
        b = random_rank_one_povm(rng, 2, 4)
        r = classical_distance(a, b)
        rho = r.witness["rho"]
        # evaluate the defining objective at the witness
        e0 = dict(zip(map(str, a.labels), a.elements))
        e1 = dict(zip(map(str, b.labels), b.elements))
        labels = set(e0) | set(e1)
        z = np.zeros((2, 2), complex)
        val = 0.5 * sum(
            abs(np.trace(rho @ (e0.get(l, z) - e1.get(l, z))).real) for l in labels
        )
        assert val == pytest.approx(r.value, abs=1e-9)

    def test_enumeration_guard(self):
        rng = np.random.default_rng(2)
        a = random_rank_one_povm(rng, 3, 25)
        b = random_rank_one_povm(rng, 3, 25)
        with pytest.raises(ValueError, match="enumeration"):
            classical_distance(a, b)

    def test_qubit_search_above_guard_matches_enumeration(self):
        rng = np.random.default_rng(3)
        a = random_rank_one_povm(rng, 2, 12)
        b = random_rank_one_povm(rng, 2, 12)
        old = distances.ENUMERATION_LIMIT
        try:
            distances.ENUMERATION_LIMIT = 8  # the guard holds for d > 2 only
            r = classical_distance(a, b)
        finally:
            distances.ENUMERATION_LIMIT = old
        assert r.method == "exact"
        assert r.value == pytest.approx(enumerated(a, b), abs=1e-9)

    def test_sphere_discretization(self):
        m0, m1 = sphere_povm_pair(16)
        r = classical_distance(m0, m1)
        assert abs(r.value - 0.25) < 0.05


class TestQubitZonotope:
    """The qubit vertex search against the 2^(n-1) enumeration."""

    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n0, n1 = (int(k) for k in rng.integers(2, 13, size=2))
            a = random_rank_one_povm(rng, 2, n0)
            b = random_rank_one_povm(rng, 2, n1)
            assert classical_distance(a, b).value == pytest.approx(
                enumerated(a, b), abs=1e-12)

    def test_repeated_outcomes(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            # split outcomes make equal differences: parallel generators
            a, b = (Povm(elements=[0.5 * e for e in random_rank_one_povm(rng, 2, 3).elements
                                   for _ in range(2)]) for _ in range(2))
            assert classical_distance(a, b).value == pytest.approx(
                enumerated(a, b), abs=1e-12)

    def test_planar_bloch_vectors(self):
        rng = np.random.default_rng(13)
        for n in (3, 5, 8):
            pair = []
            for _ in range(2):
                angles = rng.uniform(0, 2 * np.pi, n)
                w = rng.dirichlet(np.ones(n))
                # real rank-one elements, Bloch vectors in the x-z plane
                vecs = np.stack([np.cos(angles / 2), np.sin(angles / 2)], axis=1)
                elems = [wi * np.outer(v, v).astype(complex) for wi, v in zip(w, vecs)]
                root = np.linalg.inv(np.linalg.cholesky(sum(elems)))
                pair.append(Povm(elements=[root @ e @ root.conj().T for e in elems]))
            a, b = pair
            assert classical_distance(a, b).value == pytest.approx(
                enumerated(a, b), abs=1e-12)

    def test_identical_pairs_are_zero(self):
        rng = np.random.default_rng(14)
        for n in (2, 7, 30):
            m = random_rank_one_povm(rng, 2, n)
            assert classical_distance(m, m).value == 0.0

    def test_sphere_pairs(self):
        for n in range(2, 25, 2):
            m0, m1 = sphere_povm_pair(n)
            assert classical_distance(m0, m1).value == pytest.approx(
                enumerated(m0, m1), abs=1e-12)

    def test_continuous_example_is_exact(self):
        m0, m1 = sphere_povm_pair(64)
        r = classical_distance(m0, m1)
        assert r.method == "exact"
        assert r.value == pytest.approx(0.257948965569327, abs=1e-12)
        assert attained(m0, m1, r.witness["rho"]) == pytest.approx(r.value, abs=1e-12)

    def test_degenerate_arrangements_against_brute_force(self):
        # small integer generators put many of them on common lines, which
        # exercises the recursion on degenerate lines
        rng = np.random.default_rng(15)
        for trial in range(60):
            g = rng.integers(-2, 3, size=(int(rng.integers(1, 10)), 4)).astype(float)
            if trial % 3 == 1:
                g[:, 2] = 0.0
            t, v = g[:, 0], g[:, 1:]
            s = distances._zonotope_signs(g)
            best = max(abs(np.dot(sg, t)) + np.linalg.norm(np.dot(sg, v))
                       for sg in itertools.product((1.0, -1.0), repeat=len(t)))
            assert abs(s @ t) + np.linalg.norm(s @ v) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("eps", [1e-10, 2e-10, 4e-10])
    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_nearly_antiparallel_generators_keep_their_heads(self, eps, action):
        # x against (I +- sigma_x / 2) / 2 + eps I: the two generators are
        # antiparallel to within about eps, yet each heads its own group
        x = projective_qubit("x")
        sx = np.array([[0, 1], [1, 0]], complex)
        m1 = Povm(elements=[(np.eye(2) + s * 0.5 * sx) / 2 + eps * np.eye(2) for s in (1, -1)],
                  labels=["+", "-"])
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            got = classical_distance(x, m1).value
        assert got == pytest.approx(enumerated(x, m1), abs=1e-12)

    def test_one_generator_antiparallel_to_another(self):
        # one generator is -c times another to within 1e-12..1e-7
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, 4))
            i, j = rng.choice(n, 2, replace=False)
            g[j] = -rng.uniform(0.2, 3.0) * g[i] + 10.0 ** rng.uniform(-12, -7) * (
                rng.standard_normal(4))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                s = distances._zonotope_signs(g)
            t, v = g[:, 0], g[:, 1:]
            best = max(abs(np.dot(sg, t)) + np.linalg.norm(np.dot(sg, v))
                       for sg in itertools.product((1.0, -1.0), repeat=n))
            assert abs(s @ t) + np.linalg.norm(s @ v) == pytest.approx(best, abs=1e-12)


class TestQuantum:
    def test_identical_povms(self):
        m = projective_qubit("z")
        assert quantum_distance(m, m).value == pytest.approx(0.0, abs=1e-8)

    def test_two_outcome_equality(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = random_two_outcome(rng), random_two_outcome(rng)
            dc = classical_distance(a, b).value
            r = quantum_distance(a, b)
            assert r.value == pytest.approx(dc, abs=1e-6)
            # the bounds are checked, not verified: dist_C may lie just
            # outside them (5.0e-10 at most on 40 pairs, widths 1.9e-10)
            lower, upper = r.witness["bounds"]
            assert lower - 1e-9 <= dc <= upper + 1e-9

    def test_seesaw_confirms_sdp(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            a = random_rank_one_povm(rng, 2, 3)
            b = random_rank_one_povm(rng, 2, 3)
            dq = quantum_distance(a, b).value
            lb = seesaw_lower_bound(a, b, restarts=8, seed=7).value
            assert lb <= dq + 1e-7
            assert lb == pytest.approx(dq, abs=1e-5)

    def test_never_below_classical(self):
        rng = np.random.default_rng(6)
        for _ in range(8):
            a = random_rank_one_povm(rng, 2, 3)
            b = random_rank_one_povm(rng, 2, 3)
            assert quantum_distance(a, b).value >= classical_distance(a, b).value - 1e-7

    @pytest.mark.parametrize("seed, value", [(171, 0.8163217846), (183, 0.6631926810)])
    def test_rank_one_pairs_converge(self, seed, value):
        # two pairs whose solves once ended without an optimum
        def rank_one(rng, dim, n_out):
            vs = rng.standard_normal((n_out, dim)) + 1j * rng.standard_normal((n_out, dim))
            g = vs.T @ vs.conj()
            w, u = np.linalg.eigh(g)
            gmh = (u / np.sqrt(w)) @ u.conj().T
            return Povm(elements=[gmh @ np.outer(v, v.conj()) @ gmh for v in vs])

        rng = np.random.default_rng(seed)
        a, b = rank_one(rng, 2, 3), rank_one(rng, 2, 3)
        r = quantum_distance(a, b)
        assert r.value == pytest.approx(value, abs=1e-8)
        rho = r.witness["rho"]
        for x in r.witness["X"]:
            assert np.linalg.eigvalsh(rho - x)[0] >= -1e-8
            assert np.linalg.eigvalsh(rho + x)[0] >= -1e-8

    def test_sphere_pair_memory(self):
        # 257 rows on 129 2x2 blocks: one dense 257 x 257 array is 0.53 MB
        m0, m1 = sphere_povm_pair(64)
        tracemalloc.start()
        try:
            value = quantum_distance(m0, m1).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(0.4999999995, abs=1e-8)
        assert peak < 3.0e6


class TestSeesaw:
    def test_two_outcome_matches_closed_form(self):
        rng = np.random.default_rng(7)
        a, b = random_two_outcome(rng), random_two_outcome(rng)
        expect = operator_norm(a.elements[0] - b.elements[0])
        got = seesaw_lower_bound(a, b, restarts=6, seed=1).value
        assert got == pytest.approx(expect, abs=1e-6)

    def test_identical_is_zero(self):
        m = projective_qubit("x")
        assert seesaw_lower_bound(m, m, restarts=2).value == pytest.approx(0.0, abs=1e-10)

    def test_guess_observables_are_dichotomic_when_the_povms_agree(self):
        # every reduced operator is 0; its sign is I, a +-1 observable
        m = projective_qubit("x")
        guesses = seesaw_lower_bound(m, m, restarts=2).witness["guess_observables"]
        assert guesses and all(np.allclose(s @ s, np.eye(2), atol=1e-12) for s in guesses)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_no_start_rejected(self, restarts):
        m = projective_qubit("x")
        with pytest.raises(ValueError, match="restarts"):
            seesaw_lower_bound(m, m, restarts=restarts)


class TestProperties:
    def test_triangle_inequalities(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_rank_one_povm(rng, 2, 3)
            b = random_rank_one_povm(rng, 2, 3)
            c = random_rank_one_povm(rng, 2, 3)
            dab = classical_distance(a, b).value
            dbc = classical_distance(b, c).value
            dac = classical_distance(a, c).value
            assert dac <= dab + dbc + 1e-9

    def test_degradation_sandwich(self):
        # the quantum distance to the tau-degraded copy stays below (1-tau)/2
        rng = np.random.default_rng(9)
        for _ in range(4):
            m = random_rank_one_povm(rng, 2, 3)
            for tau in (0.2, 0.6, 0.9):
                dq = quantum_distance(m, degrade(m, tau)).value
                assert dq <= 0.5 * (1 - tau) + 1e-7


def test_set_distance_epsilon():
    ec, eq = set_distance_epsilon(1.0)
    assert ec == eq == 0.0
    ec, eq = set_distance_epsilon(math.cos(math.pi / 4))
    assert ec == pytest.approx(0.5 * (1 - math.cos(math.pi / 4)))
    with pytest.raises(ValueError):
        set_distance_epsilon(-0.1)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(10)
    a = random_rank_one_povm(rng, 2, 3)
    b = random_rank_one_povm(rng, 3, 4)
    with pytest.raises(ValueError):
        classical_distance(a, b)
