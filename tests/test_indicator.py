import numpy as np
import pytest

from bismash import bulk
from bismash.counting import CountContext, count_M
from bismash.hopf import sym_fixing_top
from bismash.indicator import (
    IrrepDescriptor,
    group_indicator_cn,
    indicator_bruteforce,
    indicator_reduced,
    indicator_table,
    tally_indicators,
)
from bismash.matched_pair import divisors, orbit, stabilizer
from bismash.perm import Permutation, from_cycles, inverse


def test_negative_indicator_witness():
    x = from_cycles(16, [(1, 5, 9, 13), (3, 7, 11, 15)])
    d = IrrepDescriptor.from_permutation(x, 4)
    assert d.t == 2
    assert indicator_reduced(d) == -1
    assert indicator_bruteforce(d) == -1


def test_trivial_module_is_orthogonal():
    for n in range(2, 8):
        d = IrrepDescriptor(Permutation.identity(n), 1, 0)
        assert indicator_reduced(d) == 1
        assert indicator_bruteforce(d) == 1


def test_dimension_two_profile_degree_12():
    x = from_cycles(12, [(1, 5, 9), (3, 7, 11)])
    want = {0: 1, 1: 0, 2: 0, 3: -1, 4: 0, 5: 0}
    for i, v in want.items():
        d = IrrepDescriptor.from_permutation(x, i)
        assert indicator_reduced(d) == v
        assert indicator_bruteforce(d) == v


def test_all_j2_modules_orthogonal():
    table = indicator_table(2)
    assert sum(values.size for _t, _reps, values in table) == 2
    assert all((values == 1).all() for _t, _reps, values in table)


def test_inverse_outside_orbit_gives_zero():
    hits = 0
    for x in sym_fixing_top(5):
        if inverse(x) in orbit(x).members:
            continue
        hits += 1
        t = stabilizer(x).t
        for i in range(5 // t):
            d = IrrepDescriptor.from_permutation(x, i)
            assert indicator_reduced(d) == 0
            assert indicator_bruteforce(d) == 0
    assert hits > 0


@pytest.mark.parametrize("n", range(2, 8))
def test_oracle_equivalence_exhaustive_small(n):
    seen = set()
    for x in sym_fixing_top(n):
        orb = orbit(x)
        rep = orb.representative
        if rep in seen:
            continue
        seen.add(rep)
        t = len(orb.members)
        for i in range(n // t):
            d = IrrepDescriptor(rep, t, i)
            assert indicator_reduced(d) == indicator_bruteforce(d)


def test_orbit_members_share_indicators():
    for n in (6, 8, 9):
        for x in sym_fixing_top(n):
            orb = orbit(x)
            t = len(orb.members)
            if t == 1:
                continue
            base = [
                indicator_reduced(IrrepDescriptor.from_permutation(x, i))
                for i in range(n // t)
            ]
            y = orb.members[0]
            got = [
                indicator_reduced(IrrepDescriptor.from_permutation(y, i))
                for i in range(n // t)
            ]
            assert base == got


def test_group_indicator_cyclic():
    assert group_indicator_cn(4, 2) == 1
    for n in range(1, 12):
        assert group_indicator_cn(n, 0) == 1
    assert group_indicator_cn(5, 1) == 0
    assert group_indicator_cn(6, 3) == 1
    with pytest.raises(ValueError):
        group_indicator_cn(5, 5)


def test_indicator_table_tallies_degree_12():
    table = indicator_table(12, 2)
    [(t, reps, values)] = table
    assert t == 2 and values.shape == (4, 6)  # 24 modules: 4 orbits x 6 characters
    tal = tally_indicators(table)
    assert (tal[1], tal[-1], tal[0]) == (30, 2, 16)
    classes = tuple(int((values == v).sum()) for v in (1, -1, 0))
    assert classes == (15, 1, 8)


def test_indicator_table_matches_scalar_route():
    # Degrees past 16, where a base-n packed row key would overflow int64.
    for n, t in [(18, 3), (20, 4), (24, 3)]:
        [(t_row, reps, values)] = indicator_table(n, t)
        assert t_row == t and values.shape == (len(reps), n // t)
        assert len({tuple(row) for row in reps.tolist()}) == len(reps)
        assert len(reps) * t == count_M(CountContext(n), t)
        for row, vals in zip(reps.tolist(), values.tolist()):
            rep = Permutation(row)
            assert orbit(rep).representative == rep
            assert vals == [
                indicator_reduced(IrrepDescriptor(rep, t, i)) for i in range(n // t)
            ]


def test_indicator_table_sorted_and_validates():
    table = indicator_table(9)
    assert [t for t, _reps, _values in table] == divisors(9)
    for _t, reps, _values in table:
        keys = [Permutation(row).one_line() for row in reps.tolist()]
        assert keys == sorted(keys)
    for bad in (5, 0, -3):
        with pytest.raises(ValueError):
            indicator_table(12, bad)
    with pytest.raises(ValueError):
        indicator_table(1)


def test_indicator_table_window_split_changes_nothing(monkeypatch):
    # (24, 6) streams its 245,760 candidates through one window by default
    # and through 8 windows of at most 2^15 rows; each window is evaluated
    # on its own and the entry sorted once, so the arrays are the same.
    [(_t, reps, values)] = indicator_table(24, 6)
    windows = []
    scan = bulk.canonical_orders

    def counted_scan(X, *args):
        windows.append(len(X))
        return scan(X, *args)

    monkeypatch.setattr(bulk, "canonical_orders", counted_scan)
    monkeypatch.setattr(bulk, "_CHUNK", 1 << 15)
    [(_t, split_reps, split_values)] = indicator_table(24, 6)
    assert len(windows) == 8 and max(windows) <= 1 << 15
    assert split_reps.dtype == reps.dtype and split_values.dtype == values.dtype
    assert np.array_equal(split_reps, reps) and np.array_equal(split_values, values)


def test_descriptor_validation():
    x = from_cycles(12, [(1, 5, 9), (3, 7, 11)])
    # constructor checks divisibility and index range; evaluation checks
    # that t matches the actual stabilizer order
    d = IrrepDescriptor(x, 3, 0)
    with pytest.raises(ValueError):
        indicator_reduced(d)
    with pytest.raises(ValueError):
        indicator_bruteforce(d)
    with pytest.raises(ValueError):
        IrrepDescriptor(x, 2, 6)  # character index out of range
    with pytest.raises(ValueError):
        IrrepDescriptor(x, 5, 0)  # 5 does not divide 12
