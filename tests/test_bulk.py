import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bismash import bulk
from bismash.construct import RemainderSeed, build_from_seed
from bismash.counting import (
    CountContext,
    count_I_odd,
    count_I_t2,
    count_M,
    count_O,
    count_R,
    count_T,
    count_X,
    e_set,
    euler_phi,
    k_set,
    units,
)
from bismash.indicator import IrrepDescriptor, indicator_bruteforce, indicator_reduced
from bismash.matched_pair import act_left, divisors, inversion_data, orbit, stabilizer
from bismash.perm import Permutation, from_cycles, inverse, is_involution


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


def test_canonical_orders_match_scalar():
    for n in (6, 8, 9, 10):
        X = bulk.perm_block(n, 0, math.factorial(n - 1))
        values = bulk.canonical_orders(X)
        scalar_t = Counter()
        for x, v in zip(rows_to_perms(X), values.tolist()):
            t = stabilizer(x).t
            scalar_t[t] += 1
            if v:
                assert t == v and x == orbit(x).representative
        for t in divisors(n):
            assert int((values == t).sum()) * t == scalar_t[t]
    # The proper strata of degree 12 hold rows that pass the column-1
    # test for a divisor below their own order; the full test rejects them.
    for t in divisors(12)[:-1]:
        X = bulk.exact_stabilizer_rows(12, t)
        values = bulk.canonical_orders(X)
        assert set(values.tolist()) <= {0, t}
        assert int((values == t).sum()) * t == len(X)
        for row in rows_to_perms(X):
            assert stabilizer(row).t == t


# The ten cells of acceptance criterion 6.
CENSUS_CELLS = [(12, 2), (12, 6), (16, 2), (16, 4), (20, 2), (24, 2), (24, 4), (24, 6), (36, 6), (48, 4)]


def test_canonical_orders_stop_before_t(monkeypatch):
    # Told that its rows are a^t-stabilized, the scan stops at l = t - 1
    # and gives t to the rows left: the same orders as the scan over every
    # l < n, on every window of the census cells, (12, 4) and (9, 3).  It
    # reaches l = t - 1 and never compares at l = t.
    cmp, shifts = bulk._shift_cmp, []

    def counted_cmp(X, l, *args, **kwargs):
        shifts.append(l)
        return cmp(X, l, *args, **kwargs)

    monkeypatch.setattr(bulk, "_shift_cmp", counted_cmp)
    for n, t in [*CENSUS_CELLS, (12, 4), (9, 3)]:
        size = bulk._stratum(n, t, bulk._stabilized_M, None)
        for X in bulk._windows(n, t, size):
            want = bulk.canonical_orders(X)
            shifts.clear()
            assert np.array_equal(bulk.canonical_orders(X, t), want), (n, t)
            assert max(shifts) == t - 1, (n, t)


def test_shift_and_inverse_rows():
    n = 8
    X = bulk.perm_block(n, 0, 500)
    perms = rows_to_perms(X)
    for l in (1, 3, 5):
        Y = bulk.shift_rows(X, l)
        for row, x in zip(Y, perms):
            assert tuple(int(v) for v in row) == act_left(x, l).word
    Xi = bulk.inverse_rows(X)
    for row, x in zip(Xi, perms):
        assert tuple(int(v) for v in row) == inverse(x).word


def test_wrap_matches_mod():
    # (a - b) mod n by one masked add, in the dtype of a - b: every
    # residue pair at the last int8 degree, a sample at the last int16
    # degree (its edges included), and intp.
    a, b = np.divmod(np.arange(120 * 120), 120)
    cases = [(a.astype(np.int8), b.astype(np.int8), 120)]
    rng = np.random.default_rng(0)
    edges = np.array([0, 1, 32765, 32766], dtype=np.int16)
    a, b = rng.integers(0, 32767, size=(2, 10**5)).astype(np.int16)
    cases.append((np.r_[np.repeat(edges, 4), a], np.r_[np.tile(edges, 4), b], 32767))
    big = 2**40 + 15
    cases.append((*rng.integers(0, big, size=(2, 10**4)).astype(np.intp), big))
    for a, b, n in cases:
        d = a - b
        assert bulk._wrap(d, n) is d and d.dtype == a.dtype  # in place, no upcast
        assert np.array_equal(d, (a.astype(object) - b.astype(object)) % n)


def _lex_sign(x, l):
    # The scalar sign of x <| a^l - x in lexicographic order.
    n = len(x)
    shifted = tuple((x[(u + l) % n] - x[l % n]) % n for u in range(n))
    return (shifted > x) - (shifted < x)


def _tied_rows(X, l, count, rng):
    # X with `count` perturbed copies of each row: one swap of two
    # positions outside {0, 1, l, l+1}, of values outside {0, 1}.  If x
    # ties x <| a^l with x on column 1, the copies do too; they mostly tie
    # on column 2 as well and differ further on.
    n = X.shape[1]
    out = [X]
    for x in X:
        free = [p for p in range(n) if p not in (0, 1, l % n, (l + 1) % n) and x[p] > 1]
        for _ in range(count if len(free) > 1 else 0):
            p, q = rng.sample(free, 2)
            y = x.copy()
            y[[p, q]] = y[[q, p]]
            out.append(y[None])
    return np.concatenate(out)


def test_shift_cmp_matches_scalar_on_ties():
    # _shift_cmp decides on column 1, then column 2, then whole rows:
    # against the scalar comparison of x <| a^l with x, on rows whose
    # shift ties on column 1, on columns 1 and 2, and on everything.  The
    # tied rows start from x <| a^t = x (a^t-stabilized rows, involutions
    # among them), at l = t.
    rng = random.Random(19)
    cases = [
        (n, l, bulk.perm_block(n, 0, math.factorial(n - 1)))
        for n in (2, 3, 7)
        for l in range(1, n + 1)
    ]
    for n, ts in ((12, (2, 3, 4, 6)), (130, (2,))):  # int8 and int16 rows
        for t in ts:
            cases.append((n, t, _tied_rows(bulk.stabilized_rows(n, t), t, 2, rng)))
            cases.append((n, t, _tied_rows(bulk.exact_involution_rows(n, t), t, 8, rng)))
    seen = Counter()
    for n, l, X in cases:
        want = [_lex_sign(tuple(x.tolist()), l) for x in X]
        assert bulk._shift_cmp(X, l).tolist() == want
        S = bulk.shift_rows(X, l)
        tie1, tie2 = S[:, 1] == X[:, 1], (S[:, 1:3] == X[:, 1:3]).all(axis=1)
        whole = (S == X).all(axis=1)
        seen[n, "column 1 only"] += int((tie1 & ~tie2).sum())
        seen[n, "columns 1, 2"] += int((tie2 & ~whole).sum())
        seen[n, "whole"] += int(whole.sum())
    for n in (12, 130):
        for tie in ("column 1 only", "columns 1, 2", "whole"):
            assert seen[n, tie] > 0, (n, tie)


def test_row_width_limit():
    # The int16 row type holds residues and the modulus up to n = 32767.
    n = 32767
    x = Permutation(tuple(2 * u % n for u in range(n)))  # u -> 2u, t = 1
    X = _rows([x], n)
    for l in (1, 2, n - 1):
        assert bulk.shift_rows(X, l).tolist() == [list(act_left(x, l).word)]
    assert bulk.inverse_rows(X).tolist() == [list(inverse(x).word)]
    assert bulk.canonical_orders(X).tolist() == [stabilizer(x).t] == [1]
    # Wider rows are refused before anything is built, not overflowed.
    for call in (lambda: bulk.perm_block(n + 1, 0, 0), lambda: bulk.stabilized_rows(40000, 1)):
        with pytest.raises(ValueError, match="n <= 32767"):
            call()


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


def _composition_ties(X, l, count, rng):
    # `count` copies of each row with one swap of two positions outside
    # {0, l-1, l}: where x <| a^l = x^{-1}, the copies' compositions
    # x o (x <| a^l) often still match the identity on the last column,
    # and on the one before it, but not on every column.
    n = X.shape[1]
    free = [p for p in range(1, n) if p not in ((l - 1) % n, l % n)]
    out = [X]
    for x in X:
        for _ in range(count):
            p, q = rng.sample(free, 2)
            y = x.copy()
            y[[p, q]] = y[[q, p]]
            out.append(y[None])
    return np.concatenate(out)


def test_inverting_hits_match_inverse_comparison():
    # The search for x <| a^l = x^{-1} composes x with x <| a^l on the
    # last column, then the one before it, then whole rows; for every l
    # in 1..t it finds the rows that compare equal with x^{-1}.
    rng = random.Random(20)
    cases = [(n, t, bulk.exact_stabilizer_rows(n, t)) for n, t in ((12, 2), (12, 6), (36, 6))]
    cases += [(n, n, bulk.perm_block(n, 0, math.factorial(n - 1))) for n in (2, 3)]
    int16 = np.concatenate([bulk.exact_stabilizer_rows(130, 2), bulk.exact_involution_rows(130, 2)])
    cases.append((130, 2, int16))
    ones = next(bulk._windows(11, 11, math.factorial(10)))
    assert (ones[:, 1] == 1).all() and len(ones) == math.factorial(9)
    cases.append((11, 11, ones))
    # Rows tied with the identity on the last column only, and on the
    # last two only: perturbed involutions, x <| a^t = x = x^{-1}.
    for n, ts in ((12, (2, 3, 4, 6)), (130, (2,))):
        for t in ts:
            cases.append((n, t, _composition_ties(bulk.exact_involution_rows(n, t), t, 8, rng)))
    seen = Counter()
    for n, t, X in cases:
        Xi = bulk.inverse_rows(X)
        for l in range(1, t + 1):
            S = bulk.shift_rows(X, l)
            want = np.flatnonzero((S == Xi).all(axis=1))
            assert np.array_equal(bulk._inverting_hits(X, l), want), (n, t, l)
            # The composition x o (x <| a^l) on its last two columns, by
            # flat gathers, and in full only on the rows tied on both.
            flat, base = X.ravel(), np.arange(0, X.size, n)
            last = flat[base + S[:, n - 1]] == n - 1
            both = last & (flat[base + S[:, n - 2]] == n - 2)
            tied = np.flatnonzero(both)
            whole = (np.take_along_axis(X[tied], S[tied], axis=1) == np.arange(n)).all(axis=1)
            seen[n, "last only"] += int((last & ~both).sum())
            seen[n, "last two only"] += int((~whole).sum())
            seen[n, "whole"] += len(want)
    assert seen[11, "whole"] > 0 and seen[130, "whole"] > 0
    for n in (12, 130):
        for tie in ("last only", "last two only", "whole"):
            assert seen[n, tie] > 0, (n, tie)


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


def _all_rows_reduced(X, t):
    # The congruence route on every row at once: the (N, m) gathers of
    # the table by u1 and u2 for all rows, masked by `found` after.
    m = X.shape[1] // t
    found, _s, u1, u2 = bulk.inversion_rows(X, t)
    table = np.outer(np.arange(m), np.arange(m)) % m
    nz = found[:, None] & (table[u1] == 0)
    k = table[u2]
    assert not ((2 * k[nz]) % m).any()
    out = nz.astype(np.int8)
    out[nz & (k != 0)] = -1
    return out


def test_reduced_route_matches_all_rows_formula(monkeypatch):
    # reduced_indicator_rows gathers the table only for the rows whose
    # inverse lies in the orbit; the all-rows formula gives the same
    # matrix on every rep_chunks window of the census cells, (12, 4) and
    # (9, 3), and on every t | n split of the t = n windows of n = 9, 10
    # (t = n: m = 1).
    windows = []
    for n, t in [*CENSUS_CELLS, (12, 4), (9, 3)]:
        windows += [(t, reps) for reps in bulk.rep_chunks(n, t)]
    for n in (9, 10):
        for X in bulk._windows(n, n, math.factorial(n - 1)):
            orders = bulk.canonical_orders(X)
            windows += [(t, X[orders == t]) for t in divisors(n)]
    assert any(X.shape[1] == t and len(X) for t, X in windows)
    for t, X in windows:
        assert np.array_equal(bulk.reduced_indicator_rows(X, t), _all_rows_reduced(X, t)), (X.shape, t)
    # A window where no row's inverse lies in its orbit reads all zeros.
    X = next(bulk.rep_chunks(24, 4))
    found = bulk.inversion_rows(X, 4)[0]
    assert found.any() and not found.all()
    out = bulk.reduced_indicator_rows(X[~found], 4)
    assert out.shape == (int((~found).sum()), 6) and not out.any()
    # i*u2 outside {0, m/2} where i*u1 = 0 raises on a row whose inverse
    # lies in the orbit, and is never read on the other rows.
    inversion = bulk.inversion_rows
    for row_found in (True, False):
        k = int(np.flatnonzero((found == row_found) & (inversion(X, 4)[2] == 0))[0])

        def escaped(Y, t, k=k):
            f, s, u1, u2 = inversion(Y, t)
            u2 = u2.copy()
            u2[k] = 1  # i = 1: 1 is neither 0 nor m/2 = 3, and i*u1 = 0
            return f, s, u1, u2

        monkeypatch.setattr(bulk, "inversion_rows", escaped)
        if row_found:
            with pytest.raises(ArithmeticError, match="escaped"):
                bulk.reduced_indicator_rows(X, 4)
        else:
            assert np.array_equal(bulk.reduced_indicator_rows(X, 4), _all_rows_reduced(X, 4))
        monkeypatch.setattr(bulk, "inversion_rows", inversion)


def test_inversion_rows_refuse_a_second_inverting_shift(monkeypatch):
    # A row of order t inverts at one shift l in 1..t at most; a search
    # that finds a second one for the same row raises, it does not
    # overwrite s.
    X = bulk.exact_stabilizer_rows(12, 2)
    found, s, _u1, _u2 = bulk.inversion_rows(X, 2)
    k = int(np.flatnonzero(found)[0])
    hits = bulk._inverting_hits

    def twice(Y, l):
        return np.union1d(hits(Y, l), [k])

    monkeypatch.setattr(bulk, "_inverting_hits", twice)
    with pytest.raises(AssertionError, match="two shifts"):
        bulk.inversion_rows(X, 2)


def test_seeded_rows_match_census():
    for n in (8, 12, 16, 20):
        ctx = CountContext(n)
        for t in divisors(n):
            if count_M(ctx, t) > 10**6:
                continue  # strata this size are exercised through sweeps
            X = bulk.exact_stabilizer_rows(n, t)
            assert len(X) == count_M(ctx, t)
            # The strata are unions of orbits: every canonical row having
            # order t means every row has it.
            values = bulk.canonical_orders(X)
            assert set(values.tolist()) <= {0, t}
            assert int((values == t).sum()) * t == len(X)
            # The representative path, read straight off the a^t-stabilized
            # rows, keeps the same rows in the same order.
            reps = np.concatenate(list(bulk.rep_chunks(n, t)))
            assert np.array_equal(reps, X[values == t])


def _column1_filter(X):
    # The rows with x(1) <= d(l) = x(l+1) - x(l) mod n for every l, the
    # closing d(n-1) = -x(n-1) included: column 1 of x <| a^l is d(l), so
    # an orbit's smallest member passes.
    n = X.shape[1]
    D = np.roll(X, -1, axis=1).astype(np.int16) - X
    D += (D < 0) * np.int16(n)
    return X[(D[:, 1:] >= X[:, [1]]).all(axis=1)]


def test_rep_chunks_split_changes_nothing(monkeypatch):
    # (36, 6): a unit j holds 120 sigmas of 6^5 u rows, 933,120 seeds, so
    # its seed group splits along sigma into two windows.  (48, 4): the
    # four units' groups of 10,368 seeds share one window.  Only the
    # column-1 candidates are listed: 349,705 of the 1,866,240 rows at
    # (36, 6), 11,162 of the 41,472 at (48, 4).  (11, 11): of the 10!
    # rows of S_10 only the 558,661 column-1 candidates are listed, in 2
    # windows: the 9! rows with x(1) = 1, then the pruned expansion's
    # 195,781.  The stream keeps the rows the filter keeps on the whole
    # stratum, in order.
    windows = []
    scan = bulk.canonical_orders

    def counted_scan(X, *args):
        windows.append(len(X))
        return scan(X, *args)

    monkeypatch.setattr(bulk, "canonical_orders", counted_scan)
    X36, X48 = bulk.stabilized_rows(36, 6), bulk.stabilized_rows(48, 4)
    S10 = bulk.perm_block(11, 0, math.factorial(10))
    for n, t, X, count, listed in [
        (36, 6, X36, 4, 349_705),
        (48, 4, X48, 1, 11_162),
        (11, 11, S10, 2, 558_661),
    ]:
        windows.clear()
        reps = np.concatenate(list(bulk.rep_chunks(n, t)))
        assert len(windows) == count and sum(windows) == listed
        assert max(windows) <= bulk._CHUNK
        assert np.array_equal(reps, X[scan(X) == t])
        assert len(_column1_filter(X)) == listed


def test_t_n_windows_list_column_one_candidates(monkeypatch):
    # The t = n windows are the column-1 filter of S_{n-1}, in
    # lexicographic order.  The x(1) >= 2 part, 21,510 rows at n = 10,
    # fills one default window and is split over several 1000-row ones.
    for chunk in (bulk._CHUNK, 1000):
        monkeypatch.setattr(bulk, "_CHUNK", chunk)
        for n in range(2, 11):
            size = math.factorial(n - 1)
            windows = list(bulk._windows(n, n, size))
            assert max(map(len, windows)) <= chunk
            assert np.array_equal(np.concatenate(windows), _column1_filter(bulk.perm_block(n, 0, size)))
        assert (sum(w[0, 1] >= 2 for w in windows) > 1) == (chunk == 1000)


def test_seeded_windows_list_column_one_candidates():
    # For t < n the windows hold the column-1 filter of the seeded rows,
    # window by window: the unfiltered expansion of the same seed groups
    # at the same window size gives the stratum in the windows it was
    # listed in before the filter, so the count of windows is unchanged
    # and each filtered window is its unfiltered window's filter, in
    # order.  Every stratum with n <= 24 under the default guard, plus
    # (36, 6) and (48, 4); past 2M seeds ((18, 9) and (24, 8), 52
    # windows) every eighth window is compared in full.
    cases = [(n, t) for n in range(2, 25) for t in range(1, n) if n % t == 0]
    for n, t in cases + [(36, 6), (48, 4)]:
        try:
            size = bulk._stratum(n, t, bulk._stabilized_M, None)
        except bulk.WorkloadExceeded:
            continue
        seeds = bulk._expand(n, t, bulk._seed_groups(n, t), size, bulk._CHUNK)
        count = 0
        for i, (W, X) in enumerate(itertools.zip_longest(bulk._windows(n, t, size), seeds)):
            assert W is not None and X is not None, (n, t)
            assert len(X) <= bulk._CHUNK
            if size <= 2 * 10**6 or i % 8 == 0:
                assert np.array_equal(W, _column1_filter(X)), (n, t, i)
            count += 1
        assert count == {(18, 9): 16, (21, 7): 2, (24, 8): 36, (36, 6): 4}.get((n, t), 1), (n, t)
    # The count check is on seeds, not on the rows written.
    size = bulk._stratum(12, 3, bulk._stabilized_M, None)
    for wrong in (size - 1, size + 1):
        with pytest.raises(ArithmeticError):
            list(bulk._expand(12, 3, bulk._seed_groups(12, 3), wrong, bulk._CHUNK, column1=True))


def test_windows_hold_only_column_one_candidates():
    # Every row the listing emits passes the column-1 lemma,
    # wrap(x(l+1) - x(l)) >= x(1) for every l < t: the bound the scan
    # relies on, in that column 1 is never smaller on a listed row.
    # Every window of the census cells and of t = n for n <= 10.
    cases = [*CENSUS_CELLS, *((n, n) for n in range(2, 11))]
    for n, t in cases:
        size = bulk._stratum(n, t, bulk._stabilized_M, None)
        for X in bulk._windows(n, t, size):
            X16 = X.astype(np.int16)
            for l in range(1, t):
                d = X16[:, (l + 1) % n] - X16[:, l]
                d += (d < 0) * np.int16(n)
                assert (d >= X16[:, 1]).all(), (n, t, l)


def test_one_sigma_block_fits_a_window():
    # A seed group holds whole sigma blocks of m^(t-1) rows each, so the
    # windows stay within _CHUNK rows only while one block fits.  Under
    # the default guard of 10^8 candidates it always does; degrees past
    # the row-width limit n <= 32767 are refused, so the search ends.
    limit, largest = 10**8, (0, None)
    for t in range(2, 12):
        for m in range(2, 32767 // t + 1):
            block = m ** (t - 1)
            if block * math.factorial(t - 1) > limit:
                break
            if euler_phi(m) * block * math.factorial(t - 1) <= limit:
                largest = max(largest, (block, (m * t, t)))
    assert largest == (592704, (336, 4))
    assert largest[0] <= bulk._CHUNK


def test_rep_chunks_bound_memory():
    # tracemalloc peaks at (36, 6), 1,866,240 rows of 36 bytes (64.1 MiB).
    # The whole-stratum views hold every row: the listing peaks at 65.19
    # MiB (69.28 when each seed group's residue part went through
    # (rows, m, t) intp temporaries), and the exactness filter, which
    # moves the exact rows to the front in place, at 70.86 MiB (144.12
    # when it copied the stratum per prime factor of t).  The involution
    # stratum peaks at 2.31 MiB (6.11 with the intp residue part).  The
    # census holds one window buffer of the window's column-1 candidates,
    # at most 133,776 rows, rewritten window by window, its
    # representatives moved to its front in place, and peaks at 9.77 MiB
    # (19.27 when it copied the representatives out of each window, held
    # a seed group's temporaries across the yield, gathered a sigma row
    # per kept row, and composed every tied row in one (rows, n) intp
    # index matrix; 21.0-21.6 when the congruences gathered (N, m) int64
    # rows for every representative, not only for those whose inverse
    # lies in the orbit; 36.53 with buffers of _CHUNK rows, every seeded
    # row listed; 53.6 with a fresh array per window; 109.8 when it
    # filtered the whole view at once).
    for call, bound_mib in [
        (bulk.stabilized_rows, 65.5),
        (bulk.exact_stabilizer_rows, 71.0),
        (bulk.exact_involution_rows, 3.0),
        (bulk.census_by_dimension, 10.5),
    ]:
        tracemalloc.start()
        try:
            call(36, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (call.__name__, peak)


def test_rep_windows_in_place_match_rep_chunks():
    # The census reads the representatives in place, each view valid
    # until the next window is asked for; copied window by window, the
    # views are rep_chunks' windows, in the same windows and order, on the
    # ten census cells and on (11, 11).  rep_chunks' windows are fresh
    # arrays: one kept past the next window keeps its rows.
    for n, t in [*CENSUS_CELLS, (11, 11)]:
        size = bulk._stratum(n, t, bulk._stabilized_M, None)
        views = [reps.copy() for reps in bulk._rep_windows(n, t, size)]
        chunks = list(bulk.rep_chunks(n, t))
        assert len(views) == len(chunks), (n, t)
        for view, chunk in zip(views, chunks):
            assert chunk.flags.owndata and np.array_equal(view, chunk), (n, t)
    # The guard of rep_chunks runs on the call, before the first window.
    with pytest.raises(bulk.WorkloadExceeded):
        bulk.rep_chunks(36, 6, max_work=10)


def test_t_n_stream_bounds_memory():
    # Draining rep_chunks(11, 11) peaked at 20.62 MiB of tracemalloc when
    # it listed all 10! rows of S_10 in windows of _CHUNK rows (suffix
    # table cached).  The candidate listing holds a window too, and the
    # pruned expansion's bounded levels beside it, and peaks no higher.
    bulk.perm_block(11, 0, 1)
    tracemalloc.start()
    try:
        for _ in bulk.rep_chunks(11, 11):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20.7 * 2**20, peak


def test_seeded_rows_workload_guard():
    from bismash.construct import WorkloadExceeded

    with pytest.raises(WorkloadExceeded):
        bulk.stabilized_rows(20, 10, max_work=10**6)


def test_orbit_rep_mask_and_involution_counts():
    n = 12
    ctx = CountContext(n)
    for t in (2, 3, 6):
        X = bulk.exact_stabilizer_rows(n, t)
        reps = X[bulk.canonical_orders(X) == t]
        assert len(reps) * t == count_M(ctx, t)
        counts = bulk.orbit_involution_counts(reps, t)
        for r in range(0, t + 1):
            assert int((counts == r).sum()) == count_O(ctx, t, r)


def test_transporter_scan_lists_involution_members(monkeypatch):
    # The members whose transporter set contains b = 0 are exactly the
    # y = x <| a^l with y^{-1} = y, compared in full; a small block size
    # makes the scan's row offsets cross block boundaries.
    monkeypatch.setattr(bulk, "_BLOCK", 97)
    for n in (8, 9, 10):
        for t in divisors(n):
            reps = np.concatenate(list(bulk.rep_chunks(n, t)))
            counts, rows, ls = bulk.transporter_classes(reps, t)
            want = set()
            for l in range(1, t + 1):
                Y = bulk.shift_rows(reps, l)
                hit = np.flatnonzero((bulk.inverse_rows(Y) == Y).all(axis=1))
                want |= {(r, l) for r in hit.tolist()}
            assert len(rows) == len(want)
            assert set(zip(rows.tolist(), ls.tolist())) == want
            assert counts.shape == (len(reps), n // t)


def test_transporter_classes_tally_every_pair(monkeypatch):
    # The whole class tally against the definition: for every member
    # y = x <| a^l and every b in 0..n-1, y^{-1} <| a^b is compared with y
    # in full, and each transporter b adds its exponent e = y^{-1}(b) + b
    # to class e/t when t | e.  A row has 0 or n transporter pairs.  A
    # small block size makes the expanded pairs cross block boundaries.
    monkeypatch.setattr(bulk, "_BLOCK", 53)
    cases = [
        (n, t, np.concatenate(list(bulk.rep_chunks(n, t))))
        for n in range(2, 10)
        for t in divisors(n)
    ]
    cases += [(n, t, next(bulk.rep_chunks(n, t))) for n, t in ((24, 6), (16, 4))]
    for n, t, reps in cases:
        want = np.zeros((len(reps), n // t), dtype=np.intp)
        pairs = np.zeros(len(reps), dtype=np.intp)
        for l in range(1, t + 1):
            Y = bulk.shift_rows(reps, l)
            Yi = bulk.inverse_rows(Y)
            for b in range(n):
                hit = (bulk.shift_rows(Yi, b) == Y).all(axis=1)
                pairs += hit
                e = (Yi[:, b].astype(np.intp) + b) % n
                r = np.flatnonzero(hit & (e % t == 0))
                np.add.at(want, (r, e[r] // t), 1)
        assert set(pairs.tolist()) <= {0, n}, (n, t)
        assert np.array_equal(bulk.transporter_classes(reps, t)[0], want), (n, t)


def test_orbit_rep_mask_keeps_canonical_reps_past_degree_16():
    # A base-n packed int64 row key wraps for n >= 17; the scan must still
    # keep exactly the lexicographically smallest member of each orbit.
    for n, t in [(18, 3), (20, 4), (24, 3), (46, 2), (48, 3)]:
        X = bulk.exact_stabilizer_rows(n, t)
        kept = {x.word for x in rows_to_perms(X[bulk.canonical_orders(X) == t])}
        canonical = {orbit(x).representative.word for x in rows_to_perms(X)}
        assert kept == canonical
        assert len(kept) * t == len(X)


def test_stabilized_rows_follow_seed_order():
    # The array expander against the scalar definition, seed by seed.
    # (39, 3) has m = 13, so q*j + u runs past the int8 row type; (20, 5)
    # puts 24 sigma rows in each seed group.
    for n, t in [
        (2, 2), (5, 1), (5, 5), (6, 3), (8, 4), (9, 3), (12, 2), (12, 4), (39, 3), (20, 5),
    ]:
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
            fixed = res.involution_fixed_points[t]
            assert sum(fixed.values()) == count_T(ctx, t)
            for r, c in fixed.items():
                assert c == count_R(ctx, t, r)


def test_sweep_workload_guard(monkeypatch):
    # The sweep counts the 8! rows of S_8 as the stratum t = n and refuses
    # one more than its limit before listing any window.
    listed = []
    perm_block = bulk.perm_block

    def counted_block(*args):
        listed.append(args)
        return perm_block(*args)

    monkeypatch.setattr(bulk, "perm_block", counted_block)
    with pytest.raises(bulk.WorkloadExceeded, match=r"stratum \(n=9, t=9\)"):
        bulk.sweep(9, max_work=math.factorial(8) - 1)
    assert listed == []
    assert bulk.sweep(9, max_work=math.factorial(8)) == bulk.sweep(9)
    assert listed


def test_sweep_chunk_split_is_deterministic(monkeypatch):
    base, base10 = bulk.sweep(7), bulk.sweep(10)
    monkeypatch.setattr(bulk, "_CHUNK", 100)
    split = bulk.sweep(7)
    assert base.m_counts == split.m_counts
    assert base.orbit_counts == split.orbit_counts
    assert base.tallies == split.tallies
    assert base.orbit_involutions == split.orbit_involutions
    assert split.mismatches == 0
    # A window that is no multiple of 8! splits suffix blocks and orbits.
    monkeypatch.setattr(bulk, "_CHUNK", 50_000)
    assert bulk.sweep(10) == base10


def _rows(perms, n):
    # Residue words in the row type bulk uses at degree n (int8, int16).
    return np.array([x.word for x in perms], dtype=bulk.perm_block(n, 0, 0).dtype)


def _check_against_scalar(x):
    # Both array routes and the involution count on x's row against the
    # scalar routes and definitions; t is x's exact stabilizer order.  The
    # scalar oracle costs O(t n^2) per character, so past 40 characters it
    # is asked for about four nonzero ones and four others.
    n, t = x.n, stabilizer(x).t
    m = n // t
    X = _rows([x], n)
    d = [IrrepDescriptor.from_permutation(x, i) for i in range(m)]
    want = [indicator_reduced(di) for di in d]
    assert bulk.bruteforce_indicator_rows(X, t).tolist() == [want]
    assert bulk.reduced_indicator_rows(X, t).tolist() == [want]
    sample = range(m)
    if m > 40:
        nonzero = [i for i in range(m) if want[i]]
        sample = set(range(0, m, m // 4)) | set(nonzero[:: -(-len(nonzero) // 4) or 1])
    assert all(indicator_bruteforce(d[i]) == want[i] for i in sample)
    members = orbit(x).members
    assert len(members) == t
    got = bulk.orbit_involution_counts(X, t).tolist()
    assert got == [sum(is_involution(y) for y in members)]


@st.composite
def _seeded_permutations(draw, lo, hi):
    # A random seed (j, sigma, u) of a random stratum t | n.  Half the
    # draws satisfy the involution constraints (j^2 = 1, sigma an
    # involution, u_i = -j u_sigma(i)), so that the orbit holds its own
    # inverse and the indicators are mostly nonzero.
    n = draw(st.integers(lo, hi))
    t = draw(st.sampled_from(divisors(n)))
    m = n // t
    if not draw(st.booleans()):
        j = draw(st.sampled_from(units(m)))
        images = draw(st.permutations(range(1, t)))
        u = draw(st.lists(st.integers(0, m - 1), min_size=t - 1, max_size=t - 1))
        return build_from_seed(RemainderSeed(n, t, j, Permutation((0, *images)), tuple(u)))
    j = draw(st.sampled_from(e_set(m)))
    order = draw(st.permutations(range(1, t)))
    pairs = draw(st.integers(0, (t - 1) // 2))
    word = list(range(t))
    u = [0] * t
    for a, b in zip(order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]):
        word[a], word[b] = b, a
        u[a] = draw(st.integers(0, m - 1))
        u[b] = (-j * u[a]) % m
    for a in order[2 * pairs :]:
        u[a] = draw(st.sampled_from(k_set(j, m)))
    x = build_from_seed(RemainderSeed(n, t, j, Permutation(tuple(word)), tuple(u[1:])))
    assert is_involution(x)
    return x


@settings(max_examples=60, deadline=None)
@given(_seeded_permutations(13, 40))
def test_indicator_rows_match_scalar_past_exhaustive_range(x):
    _check_against_scalar(x)


def _check_row_ops(x):
    # The scan, the shift and the inverse on the rows of x's orbit against
    # the scalar orbit, stabilizer, act_left and inverse.
    n, t = x.n, stabilizer(x).t
    members = orbit(x).members
    Y = _rows(members, n)
    values = bulk.canonical_orders(Y)
    assert sorted(values.tolist()) == [0] * (t - 1) + [t]
    assert Y[values == t].tolist() == [list(orbit(x).representative.word)]
    X = _rows([x], n)
    for l in range(n):
        assert bulk.shift_rows(X, l).tolist() == [list(act_left(x, l).word)]
    assert bulk.inverse_rows(Y).tolist() == [list(inverse(y).word) for y in members]


def test_indicator_rows_at_row_type_edge():
    # n = 120 is the last int8 degree and n = 121 the first int16 one;
    # residue sums such as x^{-1}(c) - l + b exceed int8 from n = 64 on.
    for n, dtype in ((120, np.int8), (121, np.int16)):
        assert _rows([], n).dtype == dtype
        for t in (1, 2, 11, 12, 121):
            if n % t:
                continue
            m = n // t
            for j in e_set(m)[:2]:
                seed = RemainderSeed(
                    n, t, j, Permutation(tuple(range(t))), tuple([0] * (t - 1))
                )
                _check_against_scalar(build_from_seed(seed))
                _check_row_ops(build_from_seed(seed))
        shift = from_cycles(n, [tuple(range(1, n, 2))])
        _check_against_scalar(shift)
        _check_row_ops(shift)
        # A shuffled word: trivial stabilizer, n distinct orbit members.
        word = list(range(1, n))
        random.Random(n).shuffle(word)
        _check_row_ops(Permutation((0, *word)))
    # The skew witness (1 5 9 ... n-3)(3 7 ... n-1) has t = 2 and
    # indicator -1 exactly at i = n/4.
    w = from_cycles(120, [tuple(range(1, 120, 4)), tuple(range(3, 120, 4))])
    _check_against_scalar(w)
    values = bulk.bruteforce_indicator_rows(_rows([w], 120), 2)[0]
    assert np.flatnonzero(values == -1).tolist() == [30]


def test_stabilized_rows_at_row_type_edge():
    # The seed expander in both row types against the scalar
    # build_from_seed of the first and last seeds in lexicographic seed
    # order (j, sigma, u).  A stratum too large to list must be refused
    # by the guard one candidate short of its size.
    from bismash.construct import WorkloadExceeded

    listed = 0
    for n in (120, 121):
        for t in (1, 2, 11, 12, 121):
            if n % t:
                continue
            m = n // t
            candidates = euler_phi(m) * m ** (t - 1) * math.factorial(t - 1)
            if candidates > 10**6:
                with pytest.raises(WorkloadExceeded):
                    bulk.stabilized_rows(n, t, max_work=candidates - 1)
                continue
            X = bulk.stabilized_rows(n, t)
            assert X.dtype == bulk._dtype(n)
            assert X.shape == (candidates, n)
            js = units(m)
            first = RemainderSeed(
                n, t, js[0], Permutation(tuple(range(t))), (0,) * (t - 1)
            )
            last = RemainderSeed(
                n, t, js[-1], Permutation((0, *range(t - 1, 0, -1))), (m - 1,) * (t - 1)
            )
            assert X[0].tolist() == list(build_from_seed(first).word)
            assert X[-1].tolist() == list(build_from_seed(last).word)
            listed += 1
    assert listed == 3  # (120, 1), (120, 2), (121, 1)


# bulk.sweep(13), recorded once: 12! = 479,001,600 permutations, 15.5 s
# serially in a fresh process (BENCH_scans.json).  Too slow for the
# suite, so its fields are pinned here and held to the counting tower.
SWEEP_13 = bulk.SweepResult(
    n=13,
    mismatches=0,
    permutations=479001600,
    m_counts={1: 12, 13: 479001588},
    orbit_counts={1: 12, 13: 36846276},
    tallies={1: {1: 14, -1: 0, 0: 142}, 13: {1: 568490, -1: 0, 0: 478433098}},
    orbit_involutions={
        1: {0: 10, 1: 2},
        13: {0: 36802546, 1: 10394, 3: 20790, 5: 10395, 7: 1980, 9: 165, 11: 6},
    },
    involution_fixed_points={
        1: {1: 1, 13: 1},
        13: {1: 10394, 3: 62370, 5: 51975, 7: 13860, 9: 1485, 11: 66},
    },
)


def test_sweep_degree_13_record_matches_tower():
    res, n = SWEEP_13, 13
    ctx = CountContext(n)
    assert res.mismatches == 0
    assert sum(res.m_counts.values()) == res.permutations == math.factorial(n - 1)
    assert res.dim_squared_sum == math.factorial(n)
    assert res.irrep_classes == 36846432
    for t in divisors(n):
        assert res.m_counts[t] == count_M(ctx, t) == res.orbit_counts[t] * t
        plus, zero = count_I_odd(ctx, t)
        assert res.tallies[t] == {1: plus, -1: 0, 0: zero}
        hist = res.orbit_involutions[t]
        for r in range(0, t + 1):
            assert hist.get(r, 0) == count_O(ctx, t, r)
            if r:
                assert r * hist.get(r, 0) == count_X(ctx, t, r)
        fixed = res.involution_fixed_points[t]
        assert sum(fixed.values()) == count_T(ctx, t)
        for r in range(1, n + 1):
            assert fixed.get(r, 0) == count_R(ctx, t, r)


# bulk.sweep(14, max_work=6227020800), recorded once: 13! =
# 6,227,020,800 permutations, about 3.5 minutes serially in a fresh
# process (BENCH_imports.json).  14 is the first even degree past 12:
# its t = 14 census has no closed form.
SWEEP_14 = bulk.SweepResult(
    n=14,
    mismatches=0,
    permutations=6227020800,
    m_counts={1: 6, 2: 36, 7: 46074, 14: 6226974684},
    orbit_counts={1: 6, 2: 18, 7: 6582, 14: 444783906},
    tallies={
        1: {1: 16, -1: 0, 0: 68},
        2: {1: 48, -1: 0, 0: 204},
        7: {1: 6496, -1: 0, 0: 85652},
        14: {1: 2383920, -1: 0, 0: 6224590764},
    },
    orbit_involutions={
        1: {0: 4, 1: 2},
        2: {0: 15, 2: 3},
        7: {0: 6118, 1: 119, 3: 240, 5: 96, 7: 9},
        14: {0: 444623185, 2: 67399, 4: 67446, 6: 22460, 8: 3200, 10: 210, 12: 6},
    },
    involution_fixed_points={
        1: {2: 1, 14: 1},
        2: {2: 6},
        7: {2: 330, 4: 486, 6: 375, 8: 140, 10: 45, 12: 6},
        14: {2: 134798, 4: 269784, 6: 134760, 8: 25600, 10: 2100, 12: 72},
    },
)


def test_sweep_degree_14_record_matches_tower():
    res, n = SWEEP_14, 14
    ctx = CountContext(n)
    assert res.mismatches == 0
    assert sum(res.m_counts.values()) == res.permutations == math.factorial(n - 1)
    assert res.dim_squared_sum == math.factorial(n)
    assert res.irrep_classes == 444797280
    for t in divisors(n):
        assert res.m_counts[t] == count_M(ctx, t) == res.orbit_counts[t] * t
        assert sum(res.tallies[t].values()) == (n // t) * res.m_counts[t]
        hist = res.orbit_involutions[t]
        for r in range(0, t + 1):
            assert hist.get(r, 0) == count_O(ctx, t, r)
            if r:
                assert r * hist.get(r, 0) == count_X(ctx, t, r)
        fixed = res.involution_fixed_points[t]
        assert sum(fixed.values()) == count_T(ctx, t)
        for r in range(1, n + 1):
            assert fixed.get(r, 0) == count_R(ctx, t, r)
    plus, minus, zero = count_I_t2(ctx)
    assert res.tallies[2] == {1: plus, -1: minus, 0: zero}
    for t in (1, 7):
        plus, zero = count_I_odd(ctx, t)
        assert res.tallies[t] == {1: plus, -1: 0, 0: zero}
