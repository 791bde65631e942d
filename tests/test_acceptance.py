"""Acceptance suite: every headline number at its stated tolerance.

Each test drives the corresponding named check from enmeas.reproduce (the
same implementations behind `enmeas reproduce --all`) and prints one
PASS/FAIL line; run with `pytest -v -s tests/test_acceptance.py` for the
full table.

The two asymptotic checks test a z -> inf limit along a sequence of z, not
at one point: phi-asymptotics requires (1-phi(z)) z^2 to approach 0.9468
over z = 1e2..1e5, and precision-doubling compares the local exponents of
1 - tau for power and coherent states over z = 1e2..1e4.
"""

import ast
from pathlib import Path

import numpy as np

from enmeas import reproduce
from enmeas.reproduce import CHECK_NAMES, run_check


def _drive(name):
    r = run_check(name)
    status = "PASS" if r.passed else "FAIL"
    print(f"[{status}] {r.name}: got {r.got} (want {r.expected}) "
          f"in {r.seconds:.2f}s")
    assert r.passed, f"{r.name}: got {r.got}, expected {r.expected}. {r.detail}"
    # plain Python numbers: numpy scalars print as np.float64(...) in the table and JSON
    assert "np." not in repr(r.got), f"{r.name}: got {r.got!r}"


class TestCriterion01FiniteSpectrum:
    def test_finite_spectrum_optimum(self):
        _drive("finite-spectrum-optimum")


class TestCriterion02PhiAsymptotics:
    def test_phi_asymptotics(self):
        _drive("phi-asymptotics")

    def test_phi_monotone(self):
        _drive("phi-monotone")


class TestCriterion03PowerState:
    def test_power_state(self):
        _drive("power-state")


class TestCriterion04CoherentComparison:
    def test_coherent_approx(self):
        _drive("coherent-approx")

    def test_precision_doubling(self):
        _drive("precision-doubling")


class TestCriterion05Chsh:
    def test_chsh_value(self):
        _drive("chsh-value")

    def test_chsh_mixture_bound(self):
        _drive("chsh-mixture-bound")

    def test_chsh_seesaw_no_ancilla(self):
        _drive("chsh-seesaw-no-ancilla")


class TestCriterion06MembershipBoundary:
    def test_membership_boundary(self):
        _drive("membership-boundary")


class TestCriterion07EffectivePovmOracle:
    def test_effective_povm_oracle(self):
        _drive("effective-povm-oracle")


class TestCriterion08Distances:
    def test_two_outcome_equality(self):
        _drive("two-outcome-equality")

    def test_continuous_example(self):
        _drive("continuous-example")

    def test_distance_inequalities(self):
        _drive("distance-inequalities")


class TestCriterion09InnerOuterConvergence:
    def test_inner_outer_convergence(self):
        _drive("inner-outer-convergence")


class TestCriterion10NonUniversality:
    def test_non_universality(self):
        _drive("non-universality")


class TestCriterion11NonResonanceTriviality:
    def test_non_resonance_triviality(self):
        _drive("non-resonance-triviality")


class TestCriterion12NearResonanceContinuity:
    def test_near_resonance_continuity(self):
        _drive("near-resonance-continuity")


def test_every_registered_check_is_driven():
    tree = ast.parse(Path(__file__).read_text())
    driven = [node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_drive"]
    assert sorted(driven) == sorted(CHECK_NAMES)


def test_runner_times_gates_and_registers_in_order(monkeypatch):
    monkeypatch.setattr(reproduce, "_CHECKS", {})
    gated = reproduce._check("gated", "done in no time", limit=0.0)(lambda: (np.True_, 1))
    free = reproduce._check("free", "no time limit", detail="why")(lambda: (np.True_, 2))
    assert list(reproduce._CHECKS) == ["gated", "free"]
    r = gated()
    assert r.passed is False and r.seconds >= 0.0 and r.got == 1
    r = free()
    assert r.passed is True  # a Python bool, not numpy's
    assert (r.name, r.got, r.expected, r.detail) == ("free", 2, "no time limit", "why")
