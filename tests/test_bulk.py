import itertools
import math

import numpy as np
import pytest

from bismash import bulk
from bismash.construct import RemainderSeed, build_from_seed
from bismash.counting import CountContext, count_I_t2, count_M, count_O, units
from bismash.indicator import IrrepDescriptor, indicator_bruteforce, indicator_reduced
from bismash.matched_pair import divisors, inversion_data, orbit, stabilizer
from bismash.perm import Permutation


def rows_to_perms(X):
    return [Permutation(tuple(int(v) for v in row)) for row in X]


def test_perm_block_matches_lexicographic_listing():
    for n in range(2, 8):
        total = math.factorial(n - 1)
        X = bulk.perm_block(n, 0, total)
        direct = list(itertools.permutations(range(1, n)))
        assert len(X) == total
        for row, tup in zip(X, direct):
            assert tuple(int(v) for v in row[1:]) == tup
        # block splits agree with the full decode
        mid = total // 2
        Xa = bulk.perm_block(n, 0, mid)
        Xb = bulk.perm_block(n, mid, total)
        assert (np.concatenate([Xa, Xb]) == X).all()
    # Windows across suffix-table blocks (8! rows) and prefix changes;
    # (14, 3000..) covers the range criterion 3's degree-14 sample reads.
    block = math.factorial(8)
    for n, start, stop in [
        (10, block - 100, 2 * block + 100),
        (10, 4 * block + 7, 5 * block - 7),
        (11, math.factorial(9) - 50, math.factorial(9) + block + 50),
        (11, 2 * block, 3 * block),
        (14, 3000, 3000 + block),
    ]:
        X = bulk.perm_block(n, start, stop)
        direct = itertools.islice(itertools.permutations(range(1, n)), start, stop)
        assert X.shape == (stop - start, n)
        assert (X[:, 0] == 0).all()
        assert [tuple(int(v) for v in row[1:]) for row in X] == list(direct)
    # Prefixes are decoded with Python integers: 21! is past 2**63.
    n, total = 22, math.factorial(21)
    tail = bulk.perm_block(n, total - 6, total)
    want = [(*range(21, 3, -1), *p) for p in itertools.permutations((1, 2, 3))]
    assert [tuple(int(v) for v in row[1:]) for row in tail] == want
    assert tuple(int(v) for v in tail[-1]) == (0, *range(21, 0, -1))
    # Windows outside [0, (n-1)!] are rejected instead of wrapping.
    bad = [(5, 20, 28), (5, 0, 25), (22, 0, total + 1), (8, -1, 3), (8, 9, 8)]
    for n, start, stop in bad:
        with pytest.raises(ValueError):
            bulk.perm_block(n, start, stop)


def test_stabilizer_orders_match_scalar():
    for n in (6, 8, 9, 10):
        X = bulk.perm_block(n, 0, math.factorial(n - 1))
        t_arr = bulk.stabilizer_orders(X)
        for row, t in zip(rows_to_perms(X), t_arr):
            assert stabilizer(row).t == int(t)
    # The proper strata of degree 12 hold rows that pass the column-1
    # test for a divisor below their own order; the full test rejects them.
    for t in divisors(12)[:-1]:
        X = bulk.exact_stabilizer_rows(12, t)
        t_arr = bulk.stabilizer_orders(X)
        assert (t_arr == t).all()
        for row in rows_to_perms(X):
            assert stabilizer(row).t == t


def test_shift_and_inverse_rows():
    n = 8
    X = bulk.perm_block(n, 0, 500)
    perms = rows_to_perms(X)
    from bismash.matched_pair import act_left
    from bismash.perm import inverse

    for l in (1, 3, 5):
        Y = bulk.shift_rows(X, l)
        for row, x in zip(Y, perms):
            assert tuple(int(v) for v in row) == act_left(x, l).word
    Xi = bulk.inverse_rows(X)
    for row, x in zip(Xi, perms):
        assert tuple(int(v) for v in row) == inverse(x).word


def test_inversion_rows_match_scalar():
    n = 12
    X = bulk.exact_stabilizer_rows(n, 2)
    found, s, u1, u2 = bulk.inversion_rows(X, 2)
    for k, x in enumerate(rows_to_perms(X)):
        inv = inversion_data(x)
        assert inv.in_orbit == bool(found[k])
        assert inv.u1 == int(u1[k])
        if inv.in_orbit:
            assert inv.s == int(s[k])
            assert inv.u2 == int(u2[k])


def test_indicator_rows_match_scalar():
    for n, t in [(8, 4), (9, 3), (12, 2), (12, 6)]:
        X = bulk.exact_stabilizer_rows(n, t)
        red = bulk.reduced_indicator_rows(X, t)
        bru = bulk.bruteforce_indicator_rows(X, t)
        assert (red == bru).all()
        m = n // t
        for k, x in enumerate(rows_to_perms(X)):
            rep = orbit(x).representative
            for i in range(m):
                d = IrrepDescriptor(rep, t, i)
                assert indicator_reduced(d) == int(red[k, i])
        if n <= 9:
            for k, x in enumerate(rows_to_perms(X)):
                rep = orbit(x).representative
                for i in range(m):
                    d = IrrepDescriptor(rep, t, i)
                    assert indicator_bruteforce(d) == int(bru[k, i])


def test_seeded_rows_match_census():
    for n in (8, 12, 16, 20):
        ctx = CountContext(n)
        for t in divisors(n):
            if count_M(ctx, t) > 10**6:
                continue  # strata this size are exercised through sweeps
            X = bulk.exact_stabilizer_rows(n, t)
            assert len(X) == count_M(ctx, t)
            assert (bulk.stabilizer_orders(X) == t).all()


def test_seeded_rows_workload_guard():
    from bismash.construct import WorkloadExceeded

    with pytest.raises(WorkloadExceeded):
        bulk.stabilized_rows(20, 10, max_work=10**6)


def test_orbit_rep_mask_and_involution_counts():
    n = 12
    ctx = CountContext(n)
    for t in (2, 3, 6):
        X = bulk.exact_stabilizer_rows(n, t)
        reps = X[bulk.orbit_rep_mask(X, t)]
        assert len(reps) * t == count_M(ctx, t)
        counts = bulk.orbit_involution_counts(reps, t)
        for r in range(0, t + 1):
            assert int((counts == r).sum()) == count_O(ctx, t, r)


def test_orbit_rep_mask_keeps_canonical_reps_past_degree_16():
    # A base-n packed int64 row key wraps for n >= 17; the mask must still
    # keep exactly the lexicographically smallest member of each orbit.
    for n, t in [(18, 3), (20, 4), (24, 3), (46, 2), (48, 3)]:
        X = bulk.exact_stabilizer_rows(n, t)
        kept = {x.word for x in rows_to_perms(X[bulk.orbit_rep_mask(X, t)])}
        canonical = {orbit(x).representative.word for x in rows_to_perms(X)}
        assert kept == canonical
        assert len(kept) * t == len(X)


def test_stabilized_rows_follow_seed_order():
    # The array expander against the scalar definition, seed by seed.
    for n, t in [(2, 2), (5, 1), (5, 5), (6, 3), (8, 4), (9, 3), (12, 2), (12, 4)]:
        m = n // t
        want = [
            build_from_seed(
                RemainderSeed(n, t, j, Permutation((0, *images)), u)
            ).word
            for j in units(m)
            for images in itertools.permutations(range(1, t))
            for u in itertools.product(range(m), repeat=t - 1)
        ]
        got = [x.word for x in rows_to_perms(bulk.stabilized_rows(n, t))]
        assert got == want


def test_census_by_dimension_known_values():
    assert bulk.census_by_dimension(12, 2) == (30, 2, 16)
    assert bulk.census_by_dimension(12, 6)[1] == 42
    for n in (10, 14, 18):
        assert bulk.census_by_dimension(n, 2) == count_I_t2(CountContext(n))


def test_sweep_small_degrees():
    for n in range(2, 9):
        res = bulk.sweep(n)
        assert res.mismatches == 0
        assert res.permutations == math.factorial(n - 1)
        assert sum(res.m_counts.values()) == math.factorial(n - 1)
        assert res.dim_squared_sum == math.factorial(n)
        ctx = CountContext(n)
        for t in divisors(n):
            assert res.m_counts[t] == count_M(ctx, t)
            assert res.orbit_counts[t] * t == count_M(ctx, t)
            for r, c in res.orbit_involutions[t].items():
                assert c == count_O(ctx, t, r)


def test_sweep_chunk_split_is_deterministic():
    base = bulk.sweep(7)
    split = bulk.sweep(7, chunk=100)
    assert base.m_counts == split.m_counts
    assert base.orbit_counts == split.orbit_counts
    assert base.tallies == split.tallies
    assert base.orbit_involutions == split.orbit_involutions
    assert split.mismatches == 0
    # A chunk that is no multiple of 8! splits suffix blocks and orbits.
    assert bulk.sweep(10, chunk=50_000) == bulk.sweep(10)
