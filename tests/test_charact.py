import math
from dataclasses import replace

import numpy as np
import pytest

from enmeas import charact, sdp, spectra
from enmeas.charact import (
    fixed_distribution_feasible,
    membership_energy,
    membership_finite,
    membership_multilevel,
    optimize_energy,
    optimize_finite,
    universal_state_check,
    verify_member_certificate,
    verify_nonmember_certificate,
)
from enmeas.bessel import phi
from enmeas.linalg import operator_norm
from enmeas.povm import (
    Povm,
    degrade,
    phase_aligned_blocks,
    projective_qubit,
    random_rank_one_povm,
)
from enmeas.tau import optimal_finite_state, tau_finite


def sigma_x_povm():
    return projective_qubit("x")


class TestMembershipFinite:
    def test_diagonal_povm_member_at_d1(self):
        m = Povm(elements=[np.diag([0.3, 0.8]).astype(complex),
                           np.diag([0.7, 0.2]).astype(complex)])
        v = membership_finite(m, 1)
        assert v.is_member
        assert verify_member_certificate(m, v.certificate, charact._ladder_sectors(1))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_boundary_quality_is_member(self, d):
        tau = math.cos(math.pi / (d + 1))
        v = membership_finite(degrade(sigma_x_povm(), tau), d)
        assert v.is_member

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_above_boundary_is_not(self, d):
        tau = math.cos(math.pi / (d + 1)) + 1e-3
        m = degrade(sigma_x_povm(), tau)
        v = membership_finite(m, d)
        assert v.verdict == "non_member"
        assert v.slack > 1e-7
        assert verify_nonmember_certificate(m, v.certificate, charact._ladder_sectors(d))

    def test_certificates_checked_against_the_given_povm(self):
        # each verdict's certificate verifies for its own POVM only
        x = sigma_x_povm()
        half = degrade(x, 0.5)
        sectors = charact._ladder_sectors(2)
        member = membership_finite(half, 2)
        assert verify_member_certificate(half, member.certificate, sectors)
        assert not verify_member_certificate(x, member.certificate, sectors)
        above = degrade(x, math.cos(math.pi / 3) + 1e-3)
        outside = membership_finite(above, 2)
        assert verify_nonmember_certificate(above, outside.certificate, sectors)
        assert not verify_nonmember_certificate(degrade(x, 0.3), outside.certificate, sectors)
        # a malformed certificate fails the check instead of raising
        cert = outside.certificate
        for bad in ({k: w for k, w in cert.items() if k != "dual"},
                    {k: w for k, w in cert.items() if k != "margin"},
                    dict(cert, dual="abc"), dict(cert, dual=cert["dual"][:-1]),
                    dict(cert, margin=None)):
            assert not verify_nonmember_certificate(above, bad, sectors)

    def test_member_certificate_reconstructs(self):
        rng = np.random.default_rng(0)
        m = degrade(random_rank_one_povm(rng, 2, 3), 0.5)
        v = membership_finite(m, 4)
        assert v.is_member
        recon = v.certificate["reconstruction"]
        for r, mx in zip(recon, m.elements):
            assert operator_norm(r - mx) <= 1e-7

    def test_monotone_in_d(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = degrade(random_rank_one_povm(rng, 2, 3), 0.55)
            verdicts = [membership_finite(m, d).is_member for d in (2, 3, 4)]
            # once a member, stays a member as d grows
            for a, b in zip(verdicts, verdicts[1:]):
                assert (not a) or b


class TestCriticalDegradation:
    @pytest.mark.parametrize("target", [projective_qubit("x"), projective_qubit("y"),
                                        degrade(projective_qubit("x"), 1.0, phase=0.7)],
                             ids=["x", "y", "phase"])
    def test_threshold_is_cos_pi_over_d_plus_1(self, target):
        for d in range(2, 65):
            t, _ = charact.critical_degradation(target, d)
            assert abs(t - math.cos(math.pi / (d + 1))) <= 1e-7, d

    def test_the_optimal_apparatus_is_an_exact_member_certificate(self):
        # phase-aligned blocks driven by the optimal battery state sit on the
        # ladder program's sectors, so the program's blocks are
        # B^s_x = rho[f_s, f_s]^T * M^s_x (entrywise) and p is the battery's
        # populations: degrade(x, cos(pi/(d+1))) replays exactly, and no more
        x = sigma_x_povm()
        for d in range(1, 65):
            state = optimal_finite_state(d)
            phys = phase_aligned_blocks(x, state, spectra.decompose_chains(range(d), 1.0))
            sectors = charact._ladder_sectors(d)
            assert phys.layout == sectors
            rho = state.density()
            cert = {"blocks": {s: [rho[np.ix_(f, f)].T * bl[s] for bl in phys.blocks]
                               for s, f in enumerate([n for (n,) in feeds] for _, feeds in sectors)},
                    "p": state.populations()}
            assert verify_member_certificate(degrade(x, tau_finite(d)), cert, sectors), d
            assert not verify_member_certificate(degrade(x, tau_finite(d) + 1e-5), cert, sectors)

    def test_energy_diagonal_and_single_level(self):
        diag = Povm(elements=[np.diag([0.3, 0.8]).astype(complex),
                              np.diag([0.7, 0.2]).astype(complex)])
        assert charact.critical_degradation(diag, 3)[0] == pytest.approx(1.0, abs=1e-7)
        assert charact.critical_degradation(sigma_x_povm(), 1)[0] == pytest.approx(0.0, abs=1e-7)

    def test_random_povms_flip_at_the_threshold(self):
        # +1e-4, not +1e-6, above: where the off-diagonals are small the
        # slack 1e-6 above t* is below sdp.CERT_TOL and reads as a member
        rng = np.random.default_rng(17)
        for _ in range(8):
            n, d = int(rng.integers(2, 5)), int(rng.integers(2, 11))
            m = random_rank_one_povm(rng, 2, n)
            t, cert = charact.critical_degradation(m, d)
            assert membership_finite(degrade(m, t - 1e-6), d).is_member
            assert not membership_finite(degrade(m, min(1.0, t + 1e-4)), d).is_member
            assert verify_member_certificate(degrade(m, t), cert, charact._ladder_sectors(d))

    def test_stalled_solve_is_returned_by_its_checks(self, monkeypatch):
        # the answer is accepted by its primal and dual checks, not by its
        # status. The seeded program (4 outcomes, d = 19, t* within 1e-5 of
        # 1) ends stalled or optimal as rounding decides, and either is
        # accepted; the same solve relabelled stalled or max_iter gives the
        # same t and certificate.
        solved = []
        solve = sdp.solve

        def recorded(problem):
            solved.append(solve(problem))
            return solved[-1]

        monkeypatch.setattr(sdp, "solve", recorded)
        rng = np.random.default_rng(215)
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 21))  # 4 outcomes, d = 19
        m = random_rank_one_povm(rng, 2, n)
        t, cert = charact.critical_degradation(m, d)
        assert len(solved) == 1
        assert 0.999 < t < 1.0
        sectors = charact._ladder_sectors(d)
        assert verify_member_certificate(degrade(m, t), cert, sectors)

        real = solved[0]
        for status in ("stalled", "max_iter"):
            monkeypatch.setattr(sdp, "solve", lambda problem, status=status: replace(
                real, status=status))
            got, got_cert = charact.critical_degradation(m, d)
            assert got == t
            assert got_cert["p"].tobytes() == cert["p"].tobytes()
            for s, blocks in cert["blocks"].items():
                assert all(np.array_equal(a, b) for a, b in zip(got_cert["blocks"][s], blocks))
            assert verify_member_certificate(degrade(m, got), got_cert, sectors)

    def test_rejects_qutrits_and_empty_ladders(self):
        qutrit = Povm(elements=[np.diag(v).astype(complex) for v in ([1, 0, 0], [0, 1, 1])])
        with pytest.raises(ValueError):
            charact.critical_degradation(qutrit, 3)
        with pytest.raises(ValueError):
            charact.critical_degradation(sigma_x_povm(), 0)


class TestOptimizeFinite:
    def test_plus_minus_discrimination_d1(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
        value, _, _ = optimize_finite([0.5 * plus, 0.5 * minus], 1)
        assert value == pytest.approx(0.5, abs=1e-7)

    def test_plus_minus_discrimination_d3(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
        value, povm, sol = optimize_finite([0.5 * plus, 0.5 * minus], 3)
        expect = 0.5 * (1 + math.cos(math.pi / 4))
        assert value == pytest.approx(expect, abs=1e-7)
        assert sol.dual_objective >= value - 1e-7
        # attaining POVM is a member that realizes the value
        got = 0.5 * (np.trace(povm.elements[0] @ plus).real
                     + np.trace(povm.elements[1] @ minus).real)
        assert got == pytest.approx(expect, abs=1e-6)

    def test_feasibility_lower_bound(self):
        rng = np.random.default_rng(2)
        target = random_rank_one_povm(rng, 2, 3)
        d = 3
        value, _, _ = optimize_finite(list(target.elements), d)
        dd = degrade(target, math.cos(math.pi / (d + 1)))
        self_value = sum(
            np.trace(a @ b).real for a, b in zip(dd.elements, target.elements)
        )
        assert value >= self_value - 1e-7


class TestMembershipEnergy:
    def test_power_feasible_point_is_member(self):
        z = 2.0
        tau = phi(z).phi - 1e-3
        m = degrade(sigma_x_povm(), tau)
        v = membership_energy(m, ebar=z, delta=1.0, d=16)
        assert v.is_member

    def test_above_phi_is_non_member(self):
        z = 2.0
        tau = phi(z).phi + 1e-2
        m = degrade(sigma_x_povm(), tau)
        v = membership_energy(m, ebar=z, delta=1.0, d=24)
        assert v.verdict == "non_member"

    def test_dephased_povm_member_with_tiny_energy(self):
        m = degrade(sigma_x_povm(), 0.0)
        v = membership_energy(m, ebar=1e-3, delta=1.0, d=2)
        assert v.is_member

    def test_undecided_carries_both_artifacts(self):
        # squeeze between inner and outer by sitting just above the d-truncated
        # optimum but below the outer relaxation at small d
        z = 3.0
        d = 4
        upper, lower, _, _ = optimize_energy(
            [0.5 * sigma_x_povm().elements[0], 0.5 * sigma_x_povm().elements[1]],
            z, 1.0, d)
        tau_mid = (2 * lower - 1) + 0.6 * ((2 * upper - 1) - (2 * lower - 1))
        v = membership_energy(degrade(sigma_x_povm(), tau_mid), z, 1.0, d)
        if v.verdict == "undecided":
            assert v.gap_bound == pytest.approx(z / (d - 1))
            assert "inner_margin" in v.certificate
            assert "outer_point" in v.certificate
        else:  # numerical edge: accept a decisive verdict too
            assert v.verdict in ("member", "non_member")

    def test_outer_point_replays_in_the_raw_outer_program(self):
        # tau = 0.88 lies between the inner (0.809) and outer (0.963) optima
        # of z = 3, d = 4; the outer point's p ends with the tail population p[d]
        z, d = 3.0, 4
        m = degrade(sigma_x_povm(), 0.88)
        v = membership_energy(m, z, 1.0, d)
        assert v.verdict == "undecided"
        point = v.certificate["outer_point"]
        assert point["p"].shape == (d + 1,)
        assert abs(point["p"].sum() - 1.0) <= 10 * sdp.CERT_TOL
        outer = charact._ladder_sectors(d, outer=True)
        assert verify_member_certificate(m, point, outer, energy_cap=z)
        tail = point["p"].copy()
        tail[d] += 1e-3
        assert not verify_member_certificate(m, dict(point, p=tail), outer, energy_cap=z)

    def test_gap_bound_value(self):
        v = membership_energy(degrade(sigma_x_povm(), 0.3), 5.0, 1.0, 11)
        assert v.gap_bound == pytest.approx(0.5)


class TestOptimizeEnergy:
    def test_bracket_orders(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
        v = [0.5 * plus, 0.5 * minus]
        upper8, lower8, povm, gap8 = optimize_energy(v, 5.0, 1.0, 8)
        upper16, lower16, _, gap16 = optimize_energy(v, 5.0, 1.0, 16)
        assert lower8 <= lower16 + 1e-8
        assert upper16 <= upper8 + 1e-8
        assert lower8 <= upper8
        assert gap16 <= gap8 + 1e-9
        from enmeas.povm import validate

        assert validate(povm, tol=1e-6).ok

    def test_nonpositive_energy_or_gap_raises_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("optimize_energy solved a program")

        monkeypatch.setattr(sdp, "solve", no_solve)
        v = [0.25 * np.eye(2), 0.25 * np.eye(2)]
        for ebar, delta in ((-1.0, 1.0), (0.0, 1.0), (5.0, 0.0), (5.0, -1.0)):
            with pytest.raises(ValueError, match="ebar and delta must be positive"):
                optimize_energy(v, ebar, delta, 4)

    def test_matches_phi_at_moderate_truncation(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
        v = [0.5 * plus, 0.5 * minus]
        z = 2.0
        upper, lower, _, _ = optimize_energy(v, z, 1.0, 40)
        expect = 0.5 * (1 + phi(z).phi)
        assert lower <= expect + 1e-6
        assert upper >= expect - 1e-6
        assert upper - lower < 1e-3

    def test_monotone_in_energy(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
        v = [0.5 * plus, 0.5 * minus]
        vals = [optimize_energy(v, z, 1.0, 24)[1] for z in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    def test_huge_energy_recovers_unconstrained(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], complex)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], complex)
        v = [0.5 * plus, 0.5 * minus]
        d = 24
        _, lower, _, _ = optimize_energy(v, 1e4, 1.0, d)
        expect = 0.5 * (1 + math.cos(math.pi / (d + 1)))  # d-level optimum
        assert lower == pytest.approx(expect, abs=1e-3)


class TestMultilevel:
    def test_agrees_with_ladder_reduction(self):
        rng = np.random.default_rng(3)
        d = 3
        for trial in range(30):
            tau = float(rng.uniform(0.3, 0.95))
            m = degrade(random_rank_one_povm(rng, 2, 3), tau)
            a = membership_finite(m, d).is_member
            b = membership_multilevel(m, [0.0, 1.0], [0.0, 1.0, 2.0]).is_member
            assert a == b

    def test_projective_energy_measurement_member(self):
        m = Povm(elements=[np.diag([1.0, 0, 0]).astype(complex),
                           np.diag([0, 1.0, 0]).astype(complex),
                           np.diag([0, 0, 1.0]).astype(complex)])
        v = membership_multilevel(m, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
        assert v.is_member

    def test_forged_member_certificate_rejected(self):
        # zero blocks whose claimed reconstruction is the target itself
        m = sigma_x_povm()
        forged = {"blocks": {0: [np.zeros((1, 1)), np.zeros((1, 1))]},
                  "reconstruction": list(m.elements)}
        assert not verify_member_certificate(m, forged, charact._ladder_sectors(1))

    def test_member_certificate_needs_every_entry(self):
        m = degrade(sigma_x_povm(), 0.5)
        v = membership_finite(m, 2)
        assert v.is_member
        sectors = charact._ladder_sectors(2)
        assert verify_member_certificate(m, v.certificate, sectors)
        no_p = {k: w for k, w in v.certificate.items() if k != "p"}
        assert not verify_member_certificate(m, no_p, sectors)
        short = dict(v.certificate, blocks=dict(list(v.certificate["blocks"].items())[:-1]))
        assert not verify_member_certificate(m, short, sectors)
        flat = dict(v.certificate, blocks={s: [b[:1, :1] for b in per_x]
                                           for s, per_x in v.certificate["blocks"].items()})
        assert not verify_member_certificate(m, flat, sectors)

    def test_verdicts_carry_verifying_certificates(self):
        target, battery = [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]
        sectors = spectra.joint_sectors(tuple(target), tuple(battery))
        r = random_rank_one_povm(np.random.default_rng(8), 3, 3)
        for w, verdict in ((0.2, "member"), (1.0, "non_member")):
            # w of the coherent POVM r, the rest its energy-diagonal part
            m = Povm(elements=[w * e + (1 - w) * np.diag(np.diag(e)) for e in r.elements])
            v = membership_multilevel(m, target, battery)
            assert v.verdict == verdict
            if v.is_member:
                assert verify_member_certificate(m, v.certificate, sectors)
                assert v.certificate["p"].shape == (3,)
            else:
                assert verify_nonmember_certificate(m, v.certificate, sectors)

    def test_nonresonant_battery_accepts_only_diagonal(self):
        rng = np.random.default_rng(4)
        battery = [0.0, math.sqrt(2.0), math.sqrt(5.0)]
        diag = Povm(elements=[np.diag(rng.dirichlet(np.ones(3))).astype(complex)
                              for _ in range(1)] + [np.zeros((3, 3), complex)])
        e0 = np.diag(rng.dirichlet(np.ones(2), size=3)[:, 0]).astype(complex)
        diag = Povm(elements=[e0, np.eye(3) - e0])
        assert membership_multilevel(diag, [0.0, 1.0, 2.0], battery).is_member
        nondiag = random_rank_one_povm(rng, 3, 3)
        assert not membership_multilevel(nondiag, [0.0, 1.0, 2.0], battery).is_member


class TestUniversalStateCheck:
    def test_optimal_state_is_not_universal(self):
        res = universal_state_check(optimal_finite_state(3), 3, trials=40, seed=3)
        assert res is not None
        sectors = charact._ladder_sectors(3)
        assert verify_member_certificate(res["povm"], res["member_certificate"], sectors)
        assert verify_nonmember_certificate(res["povm"], res["fixed_certificate"], sectors,
                                            q_fixed=res["q"])

    def test_uniform_distribution_accepts_half_degraded(self):
        m = degrade(sigma_x_povm(), 0.5)
        v = fixed_distribution_feasible(m, [0.5, 0.5])
        assert v.is_member
        assert v.slack <= 1e-7

    def test_d1_has_no_counterexample(self):
        st = optimal_finite_state(1)
        assert universal_state_check(st, 1, trials=8, seed=0) is None


def test_verdicts_always_carry_verifying_certificates():
    # stress: whatever the verdict, its certificate must verify independently
    rng = np.random.default_rng(17)
    for _ in range(12):
        m = degrade(random_rank_one_povm(rng, 2, 3), float(rng.uniform(0.2, 0.98)))
        d = int(rng.integers(2, 6))
        v = membership_finite(m, d)
        if v.is_member:
            assert verify_member_certificate(m, v.certificate, charact._ladder_sectors(d))
        else:
            assert verify_nonmember_certificate(m, v.certificate, charact._ladder_sectors(d))


def test_membership_monotone_in_energy():
    rng = np.random.default_rng(5)
    for _ in range(3):
        m = degrade(random_rank_one_povm(rng, 2, 3), 0.8)
        verdicts = [membership_energy(m, e, 1.0, 14).is_member for e in (0.5, 2.0, 8.0)]
        for a, b in zip(verdicts, verdicts[1:]):
            assert (not a) or b  # member at E implies member at E' > E


def test_sandwich_energy_of_optimal_state():
    # finite member at d implies bounded-energy member at (d-1)/2 + margin
    d = 3
    m = degrade(sigma_x_povm(), math.cos(math.pi / (d + 1)) - 1e-4)
    assert membership_finite(m, d).is_member
    ebar = (d - 1) / 2.0 + 0.05
    assert membership_energy(m, ebar, 1.0, d + 6).is_member


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_boundary_verdicts_independent_of_row_order(d, monkeypatch):
    # slack programs at cos(pi/(d+1)) + delta, whose optimum is max(0, delta/2),
    # in their own row order and in three permutations of it
    calls = []
    compile_fn, solve_fn = sdp.BlockSdp.compile, sdp.solve
    dual_check_fn = sdp._Compiled.dual_check
    monkeypatch.setattr(sdp.BlockSdp, "compile",
                        lambda self: calls.append("compile") or compile_fn(self))
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: calls.append("solve") or solve_fn(*a, **k))
    monkeypatch.setattr(sdp._Compiled, "dual_check",
                        lambda self, *a, **k: calls.append("dual_check")
                        or dual_check_fn(self, *a, **k))
    sectors = charact._ladder_sectors(d)
    rng = np.random.default_rng(d)
    flip = math.cos(math.pi / (d + 1))
    for delta in (-1e-6, -3e-7, 3e-7, 1e-6):
        m = degrade(sigma_x_povm(), flip + delta)
        for order in range(4):
            prog = charact._assemble_sectors(m, sectors)
            if order:
                eqs = prog.problem.equalities
                prog.problem.equalities = [eqs[i] for i in rng.permutation(len(eqs))]
            calls.clear()
            v = charact._decide(prog)
            slack = v.slack
            # one compile per solve, and the dual check only for a non-member, once
            assert calls == ["solve", "compile"] + ["dual_check"] * (not v.is_member)
            assert v.is_member == (delta < 0), (delta, order, slack)
            if v.is_member:
                assert verify_member_certificate(m, v.certificate, sectors)
            else:
                assert abs(slack - delta / 2) <= 2e-8


def assert_same_program(got, want):
    """Two programs compile to the same bytes: block sizes, constraint
    matrix, right-hand sides and objective."""
    got, want = got.compile(), want.compile()
    assert got.dims == want.dims
    for g, w in ((got.a, want.a), (got.b, want.b), (got.c, want.c)):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("slack", [True, False])
def test_ladder_is_the_joint_eigenspace_layout(slack, monkeypatch):
    # the d-level ladder is target levels [0, 1] against battery levels 0..d-1:
    # rows 0 and 1 of sector k are fed by levels k and k-1; the outer
    # relaxation differs in its top sector only
    for d in range(1, 11):
        ladder = charact._ladder_sectors(d)
        assert ladder == spectra.joint_sectors((0, 1), tuple(range(d)))
        assert ladder == (((0,), ((0,),)),
                          *(((0, 1), ((k,), (k - 1,))) for k in range(1, d)),
                          ((1,), ((d - 1,),)))
        outer = charact._ladder_sectors(d, outer=True)
        assert outer[:-1] == ladder[:-1] and outer[-1] == ((0, 1), ((d,), (d - 1, d)))

    # every form read from the shape cache, right after the same shape was
    # filled with other data, is byte for byte the assembly that bypasses it
    m = degrade(sigma_x_povm(), 0.6)
    rng = np.random.default_rng(9)
    qutrit = [[Povm(elements=[w * e + (1 - w) * np.diag(np.diag(e)) for e in r.elements])
               for w in (0.2, 1.0)]
              for r in (random_rank_one_povm(rng, 3, 3), random_rank_one_povm(rng, 3, 4))]

    def build(m, sectors, **kw):
        return lambda: charact._assemble_sectors(m, sectors, slack=slack, **kw)

    def forms(m, m3, cap):
        """Builders of every program form for one set of data."""
        q = {d: rng.dirichlet(np.ones(d)) for d in range(1, 11)}
        v = list(random_rank_one_povm(rng, 2, m.n_outcomes).elements)
        out = [build(m3, spectra.joint_sectors((0.0, 1.0, 2.0), battery))
               for battery in ((0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0), (0.0, 2 ** 0.5, 5 ** 0.5))]
        for d in range(1, 11):
            ladder, outer = charact._ladder_sectors(d), charact._ladder_sectors(d, outer=True)
            out += [build(m, ladder), build(m, ladder, energy_cap=cap),
                    build(m, ladder, q_fixed=q[d]), build(None, ladder, objective=v)]
            if d >= 2:
                out += [build(m, outer, energy_cap=cap),
                        build(None, outer, energy_cap=cap, objective=v)]
        return out

    rand = [degrade(random_rank_one_povm(rng, 2, 3), tau) for tau in (0.4, 0.8)]
    pairs = [(forms(rand[0], qutrit[0][0], 0.7), forms(rand[1], qutrit[0][1], 2.5)),
             (forms(m, qutrit[1][0], 1.2), forms(degrade(projective_qubit("z"), 0.9),
                                                  qutrit[1][1], 4.0))]
    cached = [(warm(), build().problem)[1] for first, second in pairs
              for warm, build in zip(first, second)]
    monkeypatch.setattr(charact, "_sector_shape", charact._sector_shape.__wrapped__)
    fresh = [build().problem for _, second in pairs for build in second]
    assert len(cached) == len(fresh) == 2 * (3 + 10 * 4 + 9 * 2)
    for got, want in zip(cached, fresh):
        assert_same_program(got, want)


def test_interleaved_targets_give_fresh_verdicts(monkeypatch):
    # x and z targets near the flip share one shape; the cached verdicts,
    # in any order, are the verdicts of fresh assemblies
    d = 3
    flip = math.cos(math.pi / (d + 1))
    povms = [degrade(projective_qubit(t), flip + k * 1e-7)
             for k in (-3, 2, 5) for t in ("x", "z")]
    cached = [membership_finite(m, d) for m in povms + povms[::-1]]
    monkeypatch.setattr(charact, "_sector_shape", charact._sector_shape.__wrapped__)
    fresh = [membership_finite(m, d) for m in povms + povms[::-1]]
    assert [(v.verdict, v.slack) for v in cached] == [(v.verdict, v.slack) for v in fresh]
    assert {v.verdict for v in cached} == {"member", "non_member"}


def test_shared_program_data_is_read_only():
    m = degrade(sigma_x_povm(), 0.6)
    p = charact.finite_membership_program(m, 3)
    cs, _ = p.equalities[0]
    with pytest.raises(ValueError):
        next(iter(cs.values()))[0, 0] = 2.0
    sol = sdp.solve(p)
    comp = sol.program
    for arr in (comp.a, comp.b, comp.c, comp.e, comp.starts, comp.spin_dims, *comp._stacks):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 2.0
    # a change to one program of a shape leaves the others as they were
    before = charact.finite_membership_program(m, 3)
    p.add_block(1)
    p.add_equality({len(p.block_dims) - 1: 1.0}, 0.5)
    assert p.compile().b.size == before.compile().b.size + 1
    assert_same_program(charact.finite_membership_program(m, 3), before)


def test_second_verdict_of_a_shape_assembles_nothing(monkeypatch):
    calls = []
    add_fn, init_fn = sdp.BlockSdp.add_matrix_equality, sdp._Compiled.__init__
    monkeypatch.setattr(sdp.BlockSdp, "add_matrix_equality",
                        lambda self, *a: calls.append("add") or add_fn(self, *a))
    monkeypatch.setattr(sdp._Compiled, "__init__",
                        lambda self, *a: calls.append("init") or init_fn(self, *a))
    sectors_fn = spectra.joint_eigenspaces
    monkeypatch.setattr(spectra, "joint_eigenspaces",
                        lambda *a: calls.append("sectors") or sectors_fn(*a))
    charact._sector_shape.cache_clear()
    spectra.joint_sectors.cache_clear()
    d = 7
    assert membership_finite(degrade(sigma_x_povm(), 0.5), d).is_member
    assert calls.count("sectors") == 1 and "add" in calls and "init" in calls
    calls.clear()
    assert not membership_finite(degrade(sigma_x_povm(), 0.99), d).is_member
    assert calls == []


def test_a_program_without_a_target_has_one_shape():
    charact._sector_shape.cache_clear()
    v = list(sigma_x_povm().elements)
    for slack in (True, False):
        charact._assemble_sectors(None, charact._ladder_sectors(3), objective=v, slack=slack)
    assert charact._sector_shape.cache_info().currsize == 1


def test_program_data_is_checked_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a program was solved")

    monkeypatch.setattr(sdp, "solve", no_solve)
    m = degrade(sigma_x_povm(), 0.5)
    qutrit = Povm(elements=[np.diag(v).astype(complex) for v in ([1, 0, 0], [0, 1, 1])])
    ladder = charact._ladder_sectors(3)
    with pytest.raises(ValueError, match="nonnegative, one per battery population"):
        charact._assemble_sectors(m, ladder, q_fixed=[0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative, one per battery population"):
        verify_nonmember_certificate(m, {}, ladder, q_fixed=[0.5, 0.5])
    with pytest.raises(ValueError, match="nonnegative, one per battery population"):
        fixed_distribution_feasible(m, [1.2, -0.1, -0.1])
    with pytest.raises(ValueError, match="fixed populations must sum to 1"):
        fixed_distribution_feasible(m, [0.5, 0.3, 0.1])
    with pytest.raises(ValueError, match="a 3-dimensional POVM on 2 target levels"):
        membership_finite(qutrit, 3)
    with pytest.raises(ValueError, match="a 2-dimensional POVM on 3 target levels"):
        membership_multilevel(m, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])


def test_certificate_replays_accept_exactly_what_the_bounds_accept():
    # a replay applies the rule of the replayed program's own bound: lower
    # for a member's blocks, shifted by -k CERT_TOL I across the 10 CERT_TOL
    # edge, and upper for a non-member's perturbed y
    d, tol = 3, sdp.CERT_TOL
    sectors = charact._ladder_sectors(d)

    def bounds(comp, x_flat, y):
        return sdp.SdpSolution("optimal", x_flat, y, np.empty(0), 0.0, 0.0, 0.0, 0.0, 0.0,
                               0, comp)

    m = degrade(sigma_x_povm(), 0.5)
    cert = membership_finite(m, d).certificate
    prog = charact._assemble_sectors(m, sectors, slack=False)
    comp = prog.problem.compile()
    seen = set()
    for k in (0.0, 1.0, 2.0, 3.0, 4.0, 5.5, 8.0, 9.5, 10.5, 12.0, 20.0):
        blocks = {s: [b - k * tol * np.eye(len(b)) for b in per_x]
                  for s, per_x in cert["blocks"].items()}
        x = [None] * len(prog.problem.block_dims)
        for per_x, given in zip(prog.blocks, blocks.values()):
            for b, blk in zip(per_x, given):
                x[b] = blk
        for v, w in zip(prog.p_vars, cert["p"]):
            x[v] = np.array([[w]])
        accepted = bounds(comp, comp.vector(x), np.zeros(comp.b.size)).lower > -np.inf
        assert verify_member_certificate(m, {**cert, "blocks": blocks}, sectors) == accepted, k
        seen.add(accepted)
    assert seen == {True, False}

    m = degrade(sigma_x_povm(), 0.99)
    cert = membership_finite(m, d).certificate
    comp = charact._assemble_sectors(m, sectors).problem.compile()
    rng = np.random.default_rng(21)
    seen = set()
    for scale in (0.0, 1e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 1e-5):
        y = cert["dual"] + scale * rng.standard_normal(cert["dual"].shape)
        accepted = bounds(comp, np.empty(0), y).upper < np.inf
        assert verify_nonmember_certificate(m, {**cert, "dual": y}, sectors) == accepted, scale
        seen.add(accepted)
    assert seen == {True, False}
