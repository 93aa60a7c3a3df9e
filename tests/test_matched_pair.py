import math
import random

import pytest

from bismash.hopf import sym_fixing_top
from bismash.matched_pair import (
    act_left,
    act_right,
    divisors,
    factorize,
    inv_transporter_set,
    inversion_data,
    orbit,
    stabilizer,
)
from bismash.perm import Permutation, compose, from_cycles, inverse, is_involution


def random_top_fixing(n, rng):
    images = list(range(1, n))
    rng.shuffle(images)
    return Permutation((0, *images))


# -- the actions -------------------------------------------------------


def test_act_left_by_identity_power():
    x = from_cycles(6, [(1, 2), (3, 4, 5)])
    assert act_left(x, 6) == x
    assert act_left(x, 0) == x


def test_act_left_worked_example():
    x = from_cycles(6, [(1, 2), (3, 4, 5)])
    assert act_left(x, 1) == from_cycles(6, [(1, 5, 4)])


def test_act_left_is_right_action():
    rng = random.Random(5)
    for n in range(2, 13):
        for _ in range(25):
            x = random_top_fixing(n, rng)
            r1, r2 = rng.randrange(n), rng.randrange(n)
            assert act_left(act_left(x, r1), r2) == act_left(x, r1 + r2)


def test_act_right_examples():
    e = Permutation.identity(7)
    for r in range(7):
        assert act_right(e, r) == r
    x = from_cycles(6, [(1, 2), (3, 4, 5)])
    assert act_right(x, 1) == 2


def test_refactorization_identity_exhaustive():
    # x * a^r = a^{x |> a^r} * (x <| a^r) for every x fixing n, n <= 7
    for n in range(2, 8):
        a_pows = [Permutation.shift_power(n, r) for r in range(n)]
        for x in sym_fixing_top(n):
            for r in range(n):
                lhs = compose(x, a_pows[r])
                rhs = compose(a_pows[act_right(x, r)], act_left(x, r))
                assert lhs == rhs


def test_matched_pair_identities_exhaustive_n6():
    # the defining compatibility laws of the two actions, degree 6
    n = 6
    for x in sym_fixing_top(n):
        for b in range(n):
            for c in range(n):
                # x |> (b+c) splits through x <| b
                assert act_right(x, b + c) % n == (
                    act_right(x, b) + act_right(act_left(x, b), c)
                ) % n == act_right(x, b + c)
    e = Permutation.identity(n)
    for b in range(n):
        assert act_right(e, b) == b  # 1 |> b = b
        assert act_left(e, b) == e  # 1 <| b = 1
    for x in sym_fixing_top(n):
        assert act_left(x, 0) == x  # x <| 1 = x
        assert act_right(x, 0) == 0  # x |> 1 = 1
        for b in range(n):
            # (x |> b)^{-1} = (x <| b) |> b^{-1}
            assert (-act_right(x, b)) % n == act_right(act_left(x, b), -b)
            # (x <| b)^{-1} = x^{-1} <| (x |> b)
            assert inverse(act_left(x, b)) == act_left(inverse(x), act_right(x, b))


def test_right_action_of_products():
    # xy |> b = x |> (y |> b)
    rng = random.Random(29)
    for n in range(2, 10):
        for _ in range(40):
            x = random_top_fixing(n, rng)
            y = random_top_fixing(n, rng)
            b = rng.randrange(n)
            assert act_right(compose(x, y), b) == act_right(x, act_right(y, b))


def test_odd_stabilizer_inversion_iff_involution_member():
    # for odd t, the inverse lies in the orbit exactly when the orbit
    # contains an involution
    for n in range(2, 9):
        for x in sym_fixing_top(n):
            t = stabilizer(x).t
            if t % 2 == 0:
                continue
            has_involution = any(is_involution(y) for y in orbit(x).members)
            assert inversion_data(x).in_orbit == has_involution


def test_left_action_product_rule_random():
    # xy <| b = (x <| (y |> b)) * (y <| b)
    rng = random.Random(17)
    for n in range(2, 11):
        for _ in range(30):
            x = random_top_fixing(n, rng)
            y = random_top_fixing(n, rng)
            b = rng.randrange(n)
            lhs = act_left(compose(x, y), b)
            rhs = compose(act_left(x, act_right(y, b)), act_left(y, b))
            assert lhs == rhs


# -- factorization ------------------------------------------------------


def test_factorize_examples():
    assert factorize(Permutation.identity(5)) == (0, Permutation.identity(5))
    r, x = factorize(from_cycles(3, [(1, 3)]))
    assert (r, x) == (1, from_cycles(3, [(1, 2)]))
    a = Permutation.standard_cycle(4)
    assert factorize(a) == (1, Permutation.identity(4))


def test_factorize_recomposes():
    rng = random.Random(23)
    for n in range(2, 9):
        for _ in range(40):
            images = list(range(n))
            rng.shuffle(images)
            lam = Permutation(tuple(images))
            r, x = factorize(lam)
            assert x.fixes_top()
            assert r == lam.word[0]
            assert compose(Permutation.shift_power(n, r), x) == lam


# -- stabilizers and orbits ----------------------------------------------


def test_stabilizer_examples():
    assert stabilizer(Permutation.identity(4)) == (1, 1)
    x16 = from_cycles(16, [(1, 5, 9, 13), (3, 7, 11, 15)])
    assert stabilizer(x16) == (2, 1)
    x12 = from_cycles(12, [(1, 5, 9), (3, 7, 11)])
    assert stabilizer(x12) == (2, 1)


def test_stabilizer_j_coprime():
    for n in range(2, 9):
        for x in sym_fixing_top(n):
            t, j = stabilizer(x)
            assert n % t == 0
            assert math.gcd(j, n // t) == 1
            assert act_left(x, t) == x
            for d in divisors(t)[:-1]:
                assert act_left(x, d) != x


def test_orbit_examples():
    e = Permutation.identity(5)
    assert orbit(e).members == (e,)
    x = from_cycles(6, [(1, 2), (3, 4, 5)])
    assert from_cycles(6, [(1, 5, 4)]) in orbit(x).members
    x12 = from_cycles(12, [(1, 5, 9), (3, 7, 11)])
    orb = orbit(x12)
    assert set(orb.members) == {x12, inverse(x12)}
    assert len(orb.members) == 2


def test_orbit_stabilizer_relation():
    for n in range(2, 9):
        for x in sym_fixing_top(n):
            t = stabilizer(x).t
            orb = orbit(x)
            members = set(orb.members)
            assert len(members) == t
            assert orb.members[-1] == x
            assert orb.representative == min(members, key=lambda y: y.one_line())
            # all members share stabilizer data
            assert all(stabilizer(y) == stabilizer(x) for y in members)


def test_inverse_shares_stabilizer_and_j_inverts():
    for n in range(2, 9):
        for x in sym_fixing_top(n):
            t, j = stabilizer(x)
            ti, ji = stabilizer(inverse(x))
            assert ti == t
            assert (j * ji) % (n // t) == 1 % (n // t)


def test_inversion_data_involutions():
    rng = random.Random(31)
    for n in range(2, 11):
        for x in sym_fixing_top(n):
            if not is_involution(x):
                continue
            t = stabilizer(x).t
            inv = inversion_data(x)
            assert inv.in_orbit
            # an involution admits s = t; the scan may find the shift
            # earlier, but always with the same reduced exponent class
            assert act_left(x, inv.s) == x == inverse(x) or inv.s <= t


def test_inversion_data_worked_example():
    x = from_cycles(16, [(1, 5, 9, 13), (3, 7, 11, 15)])
    inv = inversion_data(x)
    assert inv.in_orbit and inv.s == 1
    assert (inv.u1, inv.u2) == (2, 3)


def test_inversion_data_out_of_orbit():
    # Degree 5 is too small: exhaustive scan shows every full-length
    # orbit there contains an involution, hence is closed under
    # inversion.  Degree 7 has full-length orbits missing x^{-1}.
    for x in sym_fixing_top(5):
        if stabilizer(x).t == 5:
            assert inversion_data(x).in_orbit
    found = False
    for x in sym_fixing_top(7):
        if stabilizer(x).t != 7:
            continue
        if inverse(x) not in orbit(x).members:
            inv = inversion_data(x)
            assert not inv.in_orbit and inv.s is None and inv.u2 is None
            found = True
    assert found


def test_inversion_scan_matches_membership():
    for n in range(2, 9):
        for x in sym_fixing_top(n):
            inv = inversion_data(x)
            assert inv.in_orbit == (inverse(x) in orbit(x).members)
            if inv.in_orbit:
                assert act_left(x, inv.s) == inverse(x)
                assert (x.word[inv.s % n] + inv.s) % stabilizer(x).t == 0


def test_inv_transporter_set():
    e = Permutation.identity(4)
    assert inv_transporter_set(e) == [0, 1, 2, 3]
    for n in range(2, 9):
        for x in sym_fixing_top(n):
            t = stabilizer(x).t
            ts = inv_transporter_set(x)
            if inverse(x) not in orbit(x).members:
                assert ts == []
            else:
                assert len(ts) == n // t  # one per stabilizer element
                assert len(set(b % n for b in ts)) == len(ts)
                # matches the parametrized description a^{mt + l - s - x(l)}
                inv = inversion_data(x)
                l = t  # transporters of x itself (x = x <| a^t)
                expect = sorted(
                    (m * t + l - inv.s - x.word[l % n]) % n for m in range(n // t)
                )
                assert sorted(ts) == expect


def test_stabilizer_partition_counts():
    # grouping all of S_{n-1} by stabilizer order exhausts (n-1)!
    for n in range(2, 9):
        counts = {}
        for x in sym_fixing_top(n):
            t = stabilizer(x).t
            counts[t] = counts.get(t, 0) + 1
        assert sum(counts.values()) == math.factorial(n - 1)
        assert set(counts) <= set(divisors(n))
