import math

import numpy as np
import pytest

from enmeas.bessel import power_state
from enmeas.spectra import (
    Chain,
    chain_sectors,
    decompose_chains,
    joint_sectors,
)


def brute_force_chains(levels, delta, tol=1e-9):
    """Independent oracle: link every pair at exact gap delta, then walk."""
    levels = list(levels)
    order = sorted(range(len(levels)), key=lambda i: levels[i])
    nxt = {}
    for a in order:
        for b in order:
            if abs(levels[b] - levels[a] - delta) <= tol:
                nxt[a] = b
    starts = [i for i in order if i not in set(nxt.values())]
    chains = []
    for s in starts:
        ch = [s]
        while ch[-1] in nxt:
            ch.append(nxt[ch[-1]])
        chains.append(tuple(ch))
    return sorted(chains, key=lambda c: levels[c[0]])


def greedy_loop_chains(levels, delta, tol):
    """The per-level greedy walk and near-miss scan that decompose_chains
    vectorizes, one scalar searchsorted at a time: (chains, near_misses)."""
    order = np.argsort(levels)
    s = levels[order]
    n = levels.size
    used = np.zeros(n, dtype=bool)
    chains = []
    for start in range(n):
        if used[start]:
            continue
        ids = [start]
        used[start] = True
        cur = start
        while True:
            target = s[cur] + delta
            j = np.searchsorted(s, target)
            nxt = None
            for cand in (j - 1, j):
                if 0 <= cand < n and not used[cand] and abs(s[cand] - target) <= tol:
                    nxt = cand
                    break
            if nxt is None:
                break
            ids.append(nxt)
            used[nxt] = True
            cur = nxt
        chains.append(Chain(nu=float(s[ids[0]]), level_ids=tuple(int(order[i]) for i in ids)))
    chains.sort(key=lambda c: c.nu)
    near = []
    for i in range(n):
        target = s[i] + delta
        j = np.searchsorted(s, target)
        for cand in (j - 1, j, j + 1):
            if 0 <= cand < n and cand != i:
                mismatch = abs(s[cand] - s[i] - delta)
                if tol < mismatch <= 10.0 * tol:
                    near.append((int(order[i]), int(order[cand]), float(mismatch)))
    return tuple(chains), tuple(near)


def _greedy_corpus():
    """(levels, delta, grouping_tol) cases, grouping_tol None for the default."""
    rng = np.random.default_rng(11)
    for _ in range(25):  # shuffled multi-chain spectra with stray levels
        offsets = rng.choice(np.arange(200), size=int(rng.integers(1, 6)), replace=False) / 200.0
        chains = [nu + np.arange(int(rng.integers(1, 12))) for nu in offsets]
        stray = rng.random(int(rng.integers(0, 5))) * 10.0 + 0.0025
        yield rng.permutation(np.concatenate(chains + [stray])), 1.0, None
    for z in (0.1, 10.0, 1000.0):
        yield power_state(z, 1.0).levels, 1.0, None
    tol = 1e-6
    for m in range(2, 10):  # near misses at 2-9 x tol, alone and inside a chain
        yield np.array([0.0, 1.0 + m * tol]), 1.0, tol
        yield rng.permutation([0.0, 1.0, 2.0 - m * tol, 3.0 - m * tol, 2.5]), 1.0, tol
    for _ in range(5):  # jittered ladders: chain links and near misses mixed
        yield rng.permutation(np.arange(30.0) + rng.uniform(-4.0, 4.0, 30) * tol), 1.0, tol
    # 1 -+ 0.8 tol are 1.6 tol apart and both within tol of the target 1
    yield np.array([0.0, 1.0 + 0.8 * tol, 1.0 - 0.8 * tol, 2.0]), 1.0, tol


def test_greedy_walk_matches_the_per_level_loop():
    cases = list(_greedy_corpus())
    assert any(len(dec.chains) > 1 and dec.near_misses
               for dec in (decompose_chains(lv, d, t) for lv, d, t in cases))
    walked = set()  # whether a case has two levels within 2 tol, the walk's case
    for levels, delta, tol in cases:
        dec = decompose_chains(levels, delta, tol)
        ref_tol = 1e-9 * max(delta, float(np.ptp(levels))) if tol is None else tol
        walked.add(bool(np.diff(np.sort(levels)).min(initial=np.inf) <= 2.0 * ref_tol))
        chains, near = greedy_loop_chains(np.asarray(levels, dtype=float), delta, ref_tol)
        assert dec.grouping_tol == ref_tol
        assert dec.chains == chains
        assert [c.level_ids for c in dec.chains] == [c.level_ids for c in chains]
        assert dec.near_misses == near
        assert all(type(i) is int for c in dec.chains for i in c.level_ids)
        assert all(type(c.nu) is float for c in dec.chains)
        assert all(type(x) is int for a, b, _ in dec.near_misses for x in (a, b))
    assert walked == {False, True}


def test_two_levels_within_tol_of_one_target():
    # the greedy takes the lower candidate; the upper one starts its own chain
    tol = 1e-6
    dec = decompose_chains([0.0, 1.0 + 0.8 * tol, 1.0 - 0.8 * tol, 2.0], 1.0, tol)
    assert [c.level_ids for c in dec.chains] == [(0, 2, 3), (1,)]


def test_ladder_is_one_chain():
    dec = decompose_chains([0.0, 1.0, 2.0], 1.0)
    assert len(dec.chains) == 1
    assert dec.chains[0].nu == 0.0
    assert dec.chains[0].length == 3


def test_nonresonant_levels_split():
    dec = decompose_chains([0.0, math.sqrt(2.0)], 1.0)
    assert len(dec.chains) == 2
    assert all(c.length == 1 for c in dec.chains)


def test_interleaved_chains():
    dec = decompose_chains([0.0, 0.5, 1.0, 1.5, 3.0], 1.0)
    got = [(c.nu, c.length) for c in dec.chains]
    assert got == [(0.0, 2), (0.5, 2), (3.0, 1)]


def test_against_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        base = rng.choice(np.arange(0, 40), size=n, replace=False) * 0.5
        levels = np.sort(base + rng.random() * 0.01)
        dec = decompose_chains(levels, 1.0)
        expect = brute_force_chains(levels, 1.0)
        got = sorted([c.level_ids for c in dec.chains], key=lambda ids: levels[ids[0]])
        assert got == expect


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    levels = [0.0, 0.5, 1.0, 1.5, 3.0, 4.0]
    ref = decompose_chains(levels, 1.0)
    for _ in range(5):
        perm = rng.permutation(len(levels))
        dec = decompose_chains([levels[i] for i in perm], 1.0)
        ref_sets = sorted(tuple(ref.levels[list(c.level_ids)]) for c in ref.chains)
        got_sets = sorted(tuple(dec.levels[list(c.level_ids)]) for c in dec.chains)
        assert [tuple(np.round(x, 12)) for x in got_sets] == [
            tuple(np.round(x, 12)) for x in ref_sets
        ]


def test_degenerate_levels_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        decompose_chains([0.0, 0.0, 1.0], 1.0)


def test_joint_degenerate_target_names_both_levels():
    with pytest.raises(ValueError, match="degenerate target spectrum: levels 0 and 1 "):
        joint_sectors((0.0, 1e-12), (0.0, 1.0))


@pytest.mark.parametrize("target, battery, message", [
    ((0.0, 1.0), (2.0, 0.0, 2.0 + 1e-12), "degenerate battery spectrum: levels 0 and 2 "),
    ((), (0.0, 1.0), "non-empty 1-d"),
    (((0.0, 1.0),), (0.0, 1.0), "non-empty 1-d"),
    ((0.0, math.nan), (0.0, 1.0), "spectra must be finite"),
])
def test_joint_sectors_name_a_bad_spectrum(target, battery, message):
    with pytest.raises(ValueError, match=message):
        joint_sectors(target, battery)


def ranks(sectors):
    return [len(rows) for rows, _ in sectors]


def test_near_miss_reporting():
    tol = 1e-9
    dec = decompose_chains([0.0, 1.0 + 5e-9], 1.0, grouping_tol=tol)
    assert len(dec.chains) == 2  # not grouped
    assert dec.near_misses  # but surfaced


def test_joint_qubit_ladder_ranks():
    # in any unit of energy: a floor on the tolerance made 1e-10 degenerate
    for s in (1.0, 1e-10, 1e10):
        assert ranks(joint_sectors((0.0, s), (0.0, s, 2.0 * s))) == [1, 2, 2, 1]


def test_joint_nonresonant_all_rank_one():
    assert ranks(joint_sectors((0.0, 1.0), (0.0, math.sqrt(2.0)))) == [1, 1, 1, 1]


def test_joint_qutrit_ladder_middle_rank():
    levels = (0.0, 1.0, 2.0)
    sectors = joint_sectors(levels, levels)
    assert ranks(sectors) == [1, 2, 3, 2, 1]
    rows, feeds = sectors[2]
    assert [levels[m] + levels[n] for m, (n,) in zip(rows, feeds)] == [2.0, 2.0, 2.0]


def test_rank_sum_is_product():
    rng = np.random.default_rng(9)
    for _ in range(20):
        dt = int(rng.integers(2, 5))
        db = int(rng.integers(2, 6))
        target = np.sort(rng.choice(np.arange(0, 30), size=dt, replace=False) / 3.0)
        battery = np.sort(rng.choice(np.arange(0, 30), size=db, replace=False) / 3.0)
        sectors = joint_sectors(tuple(target.tolist()), tuple(battery.tolist()))
        assert sum(ranks(sectors)) == dt * db
        # every pair once, each sector at one energy, rows ascending
        pairs = [(m, n) for rows, feeds in sectors for m, (n,) in zip(rows, feeds)]
        assert sorted(pairs) == [(m, n) for m in range(dt) for n in range(db)]
        for rows, feeds in sectors:
            sums = [target[m] + battery[n] for m, (n,) in zip(rows, feeds)]
            assert max(sums) - min(sums) < 1e-12 and list(rows) == sorted(rows)
        # the same sectors in any unit of energy
        for s in (1e-12, 1e-6, 1e6, 1e12):
            scaled = joint_sectors(tuple((s * target).tolist()), tuple((s * battery).tolist()))
            assert scaled == sectors


def test_joint_matches_chain_picture_for_qubit():
    levels = [0.0, 0.5, 1.0, 1.5, 3.0]
    delta = 1.0
    dec = decompose_chains(levels, delta)
    got = sorted(ranks(joint_sectors((0.0, delta), tuple(levels))))
    expect = []
    for c in dec.chains:
        expect += [1, 1] + [2] * (c.length - 1)
    assert got == sorted(expect)


def test_chain_sectors_are_the_joint_sectors_of_a_qubit():
    # one (rows, feeds) form: on a ladder the chain picture and the joint
    # eigenspaces give the same sectors in the same order
    for d in range(1, 65):
        levels = tuple(range(d))
        assert chain_sectors(decompose_chains(levels, 1)) == joint_sectors((0, 1), levels)

    # random chained spectra, as effective-povm-oracle draws them: the same
    # sectors, rows in the same order; only the order of the sectors differs
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        db = int(rng.integers(2, 5))
        levels = np.sort(rng.choice(np.arange(0, 3 * db) * 0.5, size=db, replace=False)
                         + rng.random() * 0.1)
        got = chain_sectors(decompose_chains(levels, 1.0))
        assert sorted(got) == sorted(joint_sectors((0.0, 1.0), tuple(levels.tolist())))
