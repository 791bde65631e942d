"""Each workload check passes exact outputs and fails perturbed ones."""

import math

import numpy as np
from scipy.special import gammaln

import oracles


def _bisect(d, lo=0.0, hi=1.0):
    ref = oracles.flip_point(d)
    verdicts = []
    while hi - lo > 2e-7:
        mid = 0.5 * (lo + hi)
        verdicts.append((d, mid, mid <= ref))
        lo, hi = (mid, hi) if mid <= ref else (lo, mid)
    return verdicts, 0.5 * (lo + hi)


def test_membership_exact_outputs_pass():
    verdicts, flips = [], {}
    for d in (2, 3, 5, 10):
        v, flips[d] = _bisect(d)
        verdicts += v
    assert oracles.membership_errors(verdicts, flips) == []


def test_membership_perturbed_outputs_fail():
    verdicts, flip = _bisect(3)
    d, t, member = verdicts[0]
    assert oracles.membership_errors([(d, t, not member)] + verdicts[1:], {3: flip})
    assert oracles.membership_errors(verdicts, {3: flip + 2e-6})
    # a wrong verdict within 1e-6 of the flip point is not a failure
    near = oracles.flip_point(3) + 5e-7
    assert oracles.membership_errors([(3, near, True)], {}) == []


def _pair_record(a, b):
    """Exact outputs for the real two-outcome pair (a, 1 - a), (b, 1 - b)."""
    diff = a - b
    w, u = np.linalg.eigh(diff)
    k = int(np.argmax(np.abs(w)))
    rho = np.outer(u[:, k], u[:, k]).astype(complex)
    s = float(np.sign(w[k]))
    value = float(abs(w[k]))
    return {"diffs": [diff, -diff], "dc": value, "dq": value, "rho_c": rho, "rho_q": rho,
            "xs": [s * rho, -s * rho], "two": oracles.two_outcome_distance(a, b)}


def _triple():
    rng = np.random.default_rng(0)
    mats = []
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        mats.append((q * rng.random(2)) @ q.T)
    a, b, c = mats
    return [_pair_record(a, b), _pair_record(b, c), _pair_record(a, c)]


def test_distance_exact_outputs_pass():
    assert oracles.distance_errors(_triple(), [(0, 1, 2)], None) == []


def test_distance_perturbed_outputs_fail():
    recs = _triple()
    recs[0]["dq"] -= 1e-6  # below dist_C, off the oracle, witness not attained
    assert oracles.distance_errors(recs, [(0, 1, 2)], None)
    recs = _triple()
    for r in recs[:2]:
        r["dc"] *= 0.1  # breaks the triangle (and the oracle)
    errs = oracles.distance_errors(recs, [(0, 1, 2)], None)
    assert any("triangle" in e for e in errs)
    recs = _triple()
    recs[2]["two"] = None
    recs[2]["dc"], recs[2]["dq"] = 0.25, 0.40  # dist_Q below 0.45
    assert any("64-outcome" in e for e in oracles.distance_errors(recs, [], 2))


def _coherent(a):
    k = np.arange(0, int(a + 40 * math.sqrt(a) + 60))
    p = np.exp(k * math.log(a) - a - gammaln(k + 1.0))
    return float(np.sum(np.sqrt(p[:-1] * p[1:])))


def _curve():
    zs = [0.5, 2.0, 300.0]
    phis = [oracles.phi_oracle(z) for z in zs]
    return zs, phis, list(phis), [_coherent(z) for z in zs], list(phis), list(zs)


def test_phi_curve_exact_outputs_pass():
    assert oracles.phi_curve_errors(*_curve()) == []


def test_phi_curve_perturbed_outputs_fail():
    base = _curve()
    cases = [
        (1, 0, lambda p: 1.0 - (1.0 - p) * (1.0 + 2e-9)),  # 1 - phi off the oracle
        (1, 1, lambda p: base[1][0] - 1e-3),              # phi no longer increasing
        (3, 1, lambda c: base[1][1] + 1e-9),              # coherent beats phi
        (4, 2, lambda t: t + 2e-6),                       # power state misses phi
        (5, 2, lambda e: e * (1.0 + 2e-6)),               # power state off energy
    ]
    for col, i, change in cases:
        args = [list(a) for a in base]
        args[col][i] = change(args[col][i])
        assert oracles.phi_curve_errors(*args), (col, i)
    # the Airy limit: move 1 - phi at z = 300 (and the oracle with it)
    args = [list(a) for a in base]
    args[1][2] = args[2][2] = 1.0 - (1.0 - base[1][2]) * 1.01
    args[4][2] = args[1][2]
    errs = oracles.phi_curve_errors(*args)
    assert any("(1-phi)(z+1)^2" in e for e in errs)
