import math

import pytest

from bismash.construct import (
    enumerate_exact_stabilizer,
    enumerate_involutions,
    enumerate_involutions_fixed,
    enumerate_orbit_reps,
)
from bismash.counting import (
    CountContext,
    alpha,
    beta,
    count_C,
    count_I_odd,
    count_I_t2,
    count_M,
    count_O,
    count_O_j,
    count_R,
    count_T,
    count_X,
    e_set,
    ebar_set,
    euler_phi,
    involution_count,
    k_prime_set,
    k_set,
    omega,
    p_c_set,
    p_set,
    ratio_report,
)
from bismash.indicator import indicator_table, tally_indicators
from bismash.matched_pair import divisors
from bismash.perm import is_involution


# -- elementary helpers --------------------------------------------------


def test_euler_phi():
    assert euler_phi(12) == 4
    assert [euler_phi(m) for m in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


def test_omega():
    assert [omega(m) for m in (2, 6, 12, 30, 49, 210)] == [1, 2, 2, 3, 1, 4]


def test_number_theory_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in range(1, 501):
        assert euler_phi(m) == sympy.totient(m), m
        assert omega(m) == sympy.primenu(m), m


def test_involution_count():
    assert involution_count(1) == 1
    assert involution_count(5) == 26
    # brute check against direct enumeration
    import itertools

    for m in range(0, 7):
        direct = sum(
            1
            for p in itertools.permutations(range(m))
            if all(p[p[i]] == i for i in range(m))
        )
        assert involution_count(m) == direct


# -- helper tables -------------------------------------------------------


def test_square_root_sets():
    assert e_set(6) == (1, 5)
    assert e_set(1) == (0,)
    assert e_set(8) == (1, 3, 5, 7)


def test_k_set_saturates():
    assert k_set(5, 6) == (0, 1, 2, 3, 4, 5)
    assert alpha(5, 6) == 6


def test_p_family_small():
    # parameters of the fixed-point analysis at n=8, t=4, j=1
    assert beta(1, 2) == 2
    assert p_set(1, 2) == (0,)
    assert p_c_set(1, 2) == (1,)
    assert k_set(1, 2) == (0, 1)


def test_p_k_dichotomy():
    # either P = K with alpha*beta = m, or |P| = |K|/2 = |Pc| with 2m
    for m in range(1, 40):
        for j in e_set(m):
            a, b = alpha(j, m), beta(j, m)
            p, k = set(p_set(j, m)), set(k_set(j, m))
            assert p <= k
            if p == k:
                assert a * b == m
            else:
                assert len(p) == len(k) // 2 == len(p_c_set(j, m))
                assert a * b == 2 * m


def test_helper_sets_worked_values():
    # n = 12, t = 2, j = 5: m = 6
    assert e_set(6) == (1, 5)
    assert k_set(5, 6) == (0, 1, 2, 3, 4, 5)
    assert alpha(5, 6) == 6
    # n = 8, t = 4, j = 1: m = 2
    assert beta(1, 2) == 2
    assert p_set(1, 2) == (0,) and p_c_set(1, 2) == (1,)
    # n = 12, t = 3, s = 1, j_sigma = 2
    assert ebar_set(2, 12, 3, 1) == (5, 11)


def test_cached_residue_sets_match_definitions():
    # The cached sets against their literal definitions, every (j, m).
    for m in range(1, 201):
        assert e_set(m) == tuple(j for j in range(m) if (j * j - 1) % m == 0)
        for j in range(m):
            k = tuple(u for u in range(m) if (u * (j + 1)) % m == 0)
            p = {(q * (j - 1)) % m for q in range(m)}
            assert k_set(j, m) == k
            assert p_set(j, m) == tuple(sorted(p))
            assert p_c_set(j, m) == tuple(u for u in k if u not in p)


def test_k_prime_set_dimension_two():
    # j=1 puts no constraint on u; j=5 mod 6 pins u+1 to multiples of 3
    assert k_prime_set(1, 6) == (0, 1, 2, 3, 4, 5)
    assert k_prime_set(5, 6) == (2, 5)


# -- the counting tower ---------------------------------------------------


def test_stabilizer_census_degree_12():
    ctx = CountContext(12)
    got = {t: count_M(ctx, t) for t in divisors(12)}
    assert got[1] == 4 and got[2] == 8 and got[3] == 60
    assert got[4] == 312 and got[6] == 3768
    assert sum(got.values()) == math.factorial(11)


def test_stabilizer_census_partition():
    for n in range(2, 17):
        ctx = CountContext(n)
        assert sum(count_M(ctx, t) for t in divisors(n)) == math.factorial(n - 1)


def test_prime_degree_full_stabilizer():
    for p in (3, 5, 7, 11, 13):
        assert count_M(CountContext(p), 1) == p - 1 == euler_phi(p)


def test_involution_census_examples():
    assert count_T(CountContext(6), 3) == 4
    # prime powers have exactly two involutions of full stabilizer
    for n in (3, 5, 7, 9, 25, 27):
        assert count_T(CountContext(n), 1) == 2


def test_fixed_point_census_examples():
    assert count_R(CountContext(8), 4, 2) == 5
    ctx = CountContext(10)
    for t in divisors(10):
        for r in range(1, 11):
            if (10 - r) % 2:
                assert count_R(ctx, t, r) == 0


def test_fixed_point_census_sums_to_involutions():
    for n in range(2, 13):
        ctx = CountContext(n)
        for t in divisors(n):
            assert sum(count_R(ctx, t, r) for r in range(1, n + 1)) == count_T(ctx, t)


def test_orbit_involution_examples():
    ctx = CountContext(12)
    assert count_X(ctx, 3, 1) == 6
    assert count_O(ctx, 3, 1) == 6
    for t in divisors(12):
        for r in range(1, t + 1):
            if (t - r) % 2:
                assert count_X(ctx, t, r) == 0


def test_orbits_partition_stabilizer_class():
    for n in range(2, 13):
        ctx = CountContext(n)
        for t in divisors(n):
            total = sum(count_O(ctx, t, r) for r in range(0, t + 1))
            assert total * t == count_M(ctx, t)


def test_orbit_census_at_full_length_matches_fixed_points():
    # an orbit of length n is counted by the fixed points of its involutions
    for n in range(2, 13):
        ctx = CountContext(n)
        for r in range(1, n + 1):
            assert count_X(ctx, n, r) == count_R(ctx, n, r)


def test_count_monotonicity():
    # involutions are a subset of the stratum; orbit involutions of the
    # involutions; everything nonnegative
    for n in range(2, 15):
        ctx = CountContext(n)
        for t in divisors(n):
            m_count, t_count = count_M(ctx, t), count_T(ctx, t)
            assert 0 <= t_count <= m_count
            for r in range(1, t + 1):
                x_count = count_X(ctx, t, r)
                assert 0 <= x_count <= t_count
                assert count_O(ctx, t, r) >= 0
            assert count_O(ctx, t, 0) >= 0


def test_coupled_shift_counts():
    # the depth-2 overcount at degree 8: shifts compatible with the
    # involution congruence split by their residue class
    from bismash.counting import _coupled_shift_count

    assert _coupled_shift_count(1, 1, 8, 4, 2, complement=False) == 2  # l in {0,2}
    assert _coupled_shift_count(1, 1, 8, 4, 2, complement=True) == 0
    assert _coupled_shift_count(3, 1, 8, 4, 2, complement=False) == 2
    assert _coupled_shift_count(3, 1, 8, 4, 2, complement=True) == 2


def _coupled_shift_count_scan(j_prime, j_sigma, n, t, s, complement):
    # The full scan over all n/s shifts, kept as the reference.
    ns, ts = n // s, t // s
    pool = set(p_c_set(j_sigma, ts) if complement else p_set(j_sigma, ts))
    return sum(
        1 for l in range(ns) if (l * (1 + j_prime)) % ns == 0 and l % ts in pool
    )


def _ebar_set_scan(j_sigma, n, t, s):
    # The loop over j_sigma + mb * (t/s), mb = 1..n/t, kept as the reference.
    ns, ts = n // s, t // s
    legal = set(e_set(ns))
    return tuple(sorted({(j_sigma + mb * ts) % ns for mb in range(1, n // t + 1)} & legal))


def test_ebar_set_matches_scan():
    cases = 0
    for n in range(1, 151):
        for t in divisors(n):
            for s in divisors(t):
                for j_sigma in e_set(t // s):
                    assert ebar_set(j_sigma, n, t, s) == _ebar_set_scan(j_sigma, n, t, s)
                    cases += 1
    assert cases > 4000


def test_coupled_shift_count_scans_only_solutions():
    # Every s | t, s = t included: the top of the overcount sieve
    # (count_X, count_O_j) reads the shift counts at s = t.
    from bismash.counting import _coupled_shift_count

    cases = 0
    for n in range(1, 61):
        for t in divisors(n):
            for s in divisors(t):
                for j_sigma in e_set(t // s):
                    for j_prime in ebar_set(j_sigma, n, t, s):
                        for complement in (False, True):
                            args = (j_prime, j_sigma, n, t, s, complement)
                            want = _coupled_shift_count_scan(*args)
                            assert _coupled_shift_count(*args) == want, args
                            cases += 1
    assert cases > 1000


def test_repeated_queries_match_fresh_context():
    # The shift counts count_C memoizes per (t, s, j_sigma) serve every r
    # and gate: queries on a used context agree with fresh ones.
    for n in (12, 24, 30, 36, 48, 60):
        ctx = CountContext(n)
        queries = [(count_X, t, r) for t in divisors(n) for r in range(1, t + 1)]
        queries += [
            (count_O_j, t, r, j)
            for t in divisors(n)
            if 1 < t < n
            for j in e_set(n // t)
            for r in range(1, t + 1)
        ]
        first = [f(ctx, *args) for f, *args in queries]
        assert [f(ctx, *args) for f, *args in queries] == first
        assert [f(CountContext(n), *args) for f, *args in queries] == first


def test_per_j_orbit_counts_marginalize():
    for n in range(4, 13):
        ctx = CountContext(n)
        for t in divisors(n):
            if not 1 < t < n:
                continue
            for r in range(1, t + 1):
                total = sum(count_O_j(ctx, t, r, j) for j in e_set(n // t))
                assert total == count_O(ctx, t, r)


def test_overcount_terms_marginalize():
    for n in (8, 12):
        ctx = CountContext(n)
        for t in divisors(n):
            if not 1 < t < n:
                continue
            for s in divisors(t)[:-1]:
                for r in range(1, t + 1):
                    total = sum(
                        count_C(ctx, t, s, r, j_gate=j) for j in e_set(n // t)
                    )
                    assert total == count_C(ctx, t, s, r)


def test_overcount_gate_is_read_mod_n_over_t():
    # A gate names x(t)/t mod n/t: j and j +- n/t read alike, and a gate
    # that is no square root of 1 mod n/t reads zeros.  At n = 24, t = 6
    # the gates are e_set(4) = (1, 3).
    ctx = CountContext(24)
    t, s = 6, 2
    rows = {gate: [count_C(ctx, t, s, r, j_gate=gate) for r in range(1, t + 1)] for gate in (1, 3)}
    assert any(rows[1]) and any(rows[3])
    for gate in (1, 3):
        for shifted in (gate + 4, gate - 4, gate + 24):
            assert [count_C(ctx, t, s, r, j_gate=shifted) for r in range(1, t + 1)] == rows[gate]
    assert [count_C(ctx, t, s, r, j_gate=5) for r in range(1, t + 1)] == rows[1]
    assert [count_C(ctx, t, s, r, j_gate=-1) for r in range(1, t + 1)] == rows[3]
    for gate in (0, 2, 6):
        assert [count_C(ctx, t, s, r, j_gate=gate) for r in range(1, t + 1)] == [0] * t
    total = [count_C(ctx, t, s, r) for r in range(1, t + 1)]
    assert total == [a + b for a, b in zip(rows[1], rows[3])]


def test_overcount_is_zero_without_fixed_points():
    # Every involution fixes the point n, so r < 1 counts nothing, as in
    # count_R, count_X and count_O_j.
    ctx = CountContext(12)
    for r in (0, -2):
        assert count_C(ctx, 6, 2, r) == 0
        assert count_C(ctx, 6, 2, r, j_gate=1) == 0


def test_out_of_range_r_reads_zero():
    # r below 1 or past the top of a profile reads 0: no negative index
    # wraps around, and no index runs past the list.  count_O(t, 0) is
    # the orbits without involutions, so count_O is read at r < 0 only.
    for n in (12, 24, 36):
        ctx = CountContext(n)
        for t in divisors(n):
            low, high = (-2, -1, 0), (t + 1, t + 2, 2 * t + 1)
            for r in low + (n + 1, n + 2):
                assert count_R(ctx, t, r) == 0, (n, t, r)
            for r in low + high:
                assert count_X(ctx, t, r) == 0, (n, t, r)
                assert r == 0 or count_O(ctx, t, r) == 0, (n, t, r)
                for s in divisors(t)[:-1]:
                    assert count_C(ctx, t, s, r) == 0, (n, t, s, r)
                    for j in e_set(n // t):
                        assert count_C(ctx, t, s, r, j_gate=j) == 0, (n, t, s, r, j)
                if 1 < t < n:
                    for j in e_set(n // t):
                        assert count_O_j(ctx, t, r, j) == 0, (n, t, r, j)


def test_tower_identities_through_queries_range():
    # Past n = 13 there is no enumeration oracle; the tower must still
    # partition its own totals, and the profiles the parity checks skip
    # must hold zeros only.
    from bismash.counting import _exact, _overcount, _stabilized_R

    for n in range(2, 151):
        ctx = CountContext(n)
        for t in divisors(n):
            t_count = count_T(ctx, t)
            assert sum(count_R(ctx, t, r) for r in range(1, n + 1)) == t_count
            assert sum(count_X(ctx, t, r) for r in range(1, t + 1)) == t_count
            if 1 < t < n:
                for r in range(1, t + 1):
                    per_j = sum(count_O_j(ctx, t, r, j) for j in e_set(n // t))
                    assert per_j == count_O(ctx, t, r), (n, t, r)
            fixed = _exact(ctx, _stabilized_R, t)
            assert all(fixed[r] == 0 for r in range(n + 1) if (n - r) % 2), (n, t)
            for gate in (None, *e_set(n // t)):
                top = _overcount(ctx, t, t, gate)
                assert all(top[r] == 0 for r in range(t + 1) if (t - r) % 2), (n, t)


def _pairings(k, l):
    return math.factorial(k) // (math.factorial(k - 2 * l) * 2**l * math.factorial(l))


# The sieve as it stood before the Moebius form, the gate classes and the
# tabulated fixed-point profiles, kept as an oracle: every exact level is
# subtracted from the stabilized term, each fixed-point term is one sum
# over l per mr, and the C sieve runs once per gate.


def _subtractive_exact(ctx, stabilized, d, *args):
    key = ("subtractive", stabilized, d, *args)
    if key not in ctx.memo:
        value = stabilized(ctx, d, *args)
        for e in divisors(d)[:-1]:
            lower = _subtractive_exact(ctx, stabilized, e, *args)
            value = [a - b for a, b in zip(value, lower)]
        ctx.memo[key] = value
    return ctx.memo[key]


def _fixed_point_terms(k, mr, p, pc, base):
    top = (k - mr) // 2
    return sum(
        math.comb(k - 1 - 2 * l, mr - 1)
        * p ** (mr - 1)
        * pc ** (k - 2 * l - mr)
        * base**l
        * _pairings(k - 1, l)
        for l in range(top if pc == 0 else 0, top + 1)
    )


def _stabilized_R_per_mr(ctx, d):
    m = ctx.n // d
    out = [0] * (ctx.n + 1)
    for j in e_set(m):
        b, p, pc = beta(j, m), len(p_set(j, m)), len(p_c_set(j, m))
        for mr in range(1, d + 1):
            out[mr * b] += _fixed_point_terms(d, mr, p, pc, m)
    return out


def _stabilized_C_gated(ctx, s, t, j_gate):
    from bismash.counting import _shift_counts

    ts, ns, nt = t // s, ctx.n // s, ctx.n // t
    out = [0] * (t + 1)
    for j_sigma in e_set(ts):
        b = beta(j_sigma, ts)
        for j_prime, in_p, in_pc in _shift_counts(ctx, t, s, j_sigma):
            if j_gate is None or (j_prime - j_gate) % nt == 0:
                for mr in range(1, s + 1):
                    out[mr * b] += _fixed_point_terms(s, mr, in_p, in_pc, ns)
    return out


def test_sieve_matches_subtractive_oracle():
    # Every raw exact profile through the queries range: M, T, R, and C
    # for every s | t (s = t the top) under every gate.
    from bismash.counting import (
        _exact,
        _overcount,
        _stabilized_M,
        _stabilized_R,
        _stabilized_T,
    )

    pairs = ((_stabilized_M, _stabilized_M), (_stabilized_T, _stabilized_T))
    pairs += ((_stabilized_R, _stabilized_R_per_mr),)
    for n in range(2, 151):
        ctx, old = CountContext(n), CountContext(n)
        for t in divisors(n):
            for new, before in pairs:
                assert _exact(ctx, new, t) == _subtractive_exact(old, before, t), (n, t)
            for s in divisors(t):
                for gate in (None, *e_set(n // t)):
                    want = _subtractive_exact(old, _stabilized_C_gated, s, t, gate)
                    assert _overcount(ctx, s, t, gate) == want, (n, t, s, gate)


def test_orbit_involution_closed_form():
    # count_X and r*count_O_j against the closed form of the s = t term:
    # sum_j alpha(j, m)^(r-1) * m^h * pairings(t-1, h), h = (t-r)/2, minus
    # the overcount C_{n,t,s,r} of every proper divisor s of t, with the
    # sum and the overcount gated to one j for O_j.
    cells = 0
    for n in range(2, 61):
        ctx = CountContext(n)
        for t in divisors(n):
            m = n // t
            for r in range(2 - t % 2, t + 1, 2):
                h = (t - r) // 2
                top = m**h * _pairings(t - 1, h)

                def closed(gate):
                    js = e_set(m) if gate is None else (gate,)
                    return sum(alpha(j, m) ** (r - 1) for j in js) * top - sum(
                        count_C(ctx, t, s, r, gate) for s in divisors(t)[:-1]
                    )

                assert count_X(ctx, t, r) == closed(None), (n, t, r)
                if 1 < t < n:
                    for j in e_set(m):
                        assert r * count_O_j(ctx, t, r, j) == closed(j), (n, t, r, j)
                cells += 1
    assert cells > 1000


def test_counts_match_enumeration_small():
    for n in range(2, 10):
        ctx = CountContext(n)
        for t in divisors(n):
            assert sum(1 for _ in enumerate_exact_stabilizer(n, t)) == count_M(ctx, t)
            inv = list(enumerate_involutions(n, t))
            assert len(inv) == count_T(ctx, t)
            for r in range(1, n + 1):
                got = sum(1 for _ in enumerate_involutions_fixed(n, t, r))
                assert got == count_R(ctx, t, r)
            hist = {}
            for orb in enumerate_orbit_reps(n, t):
                r = sum(1 for y in orb.members if is_involution(y))
                hist[r] = hist.get(r, 0) + 1
            for r in range(0, t + 1):
                assert hist.get(r, 0) == count_O(ctx, t, r)


# -- indicator censuses ----------------------------------------------------


def test_odd_dimension_census_prime_5():
    ctx = CountContext(5)
    plus, zero = count_I_odd(ctx, 1)
    assert plus == 6  # p + 1 orthogonal one-dimensional modules
    assert plus + zero == 5 * count_M(ctx, 1)
    plus5, zero5 = count_I_odd(ctx, 5)
    assert plus5 == 20  # 5 * m_{5,1} with m_{5,1} = (26-1)/5 - 1 = 4
    assert zero5 == 0


def test_odd_dimension_census_matches_tables():
    for n in range(2, 11):
        ctx = CountContext(n)
        for t in divisors(n):
            if t % 2 == 0:
                continue
            tal = tally_indicators(indicator_table(n, t))
            plus, zero = count_I_odd(ctx, t)
            assert (tal[1], tal[0], tal[-1]) == (plus, zero, 0)


def test_dimension_two_census_values():
    assert count_I_t2(CountContext(12)) == (30, 2, 16)
    assert count_I_t2(CountContext(16))[1] == 2
    assert count_I_t2(CountContext(2)) == (0, 0, 0)
    with pytest.raises(ValueError):
        count_I_t2(CountContext(9))


def test_dimension_two_census_matches_tables():
    for n in range(2, 25, 2):
        plus, minus, zero = count_I_t2(CountContext(n))
        tal = tally_indicators(indicator_table(n, 2))
        assert (tal[1], tal[-1], tal[0]) == (plus, minus, zero)


def test_negative_modules_exist_when_4_divides():
    for n in (12, 16, 20, 24, 28, 32):
        assert count_I_t2(CountContext(n))[1] > 0


# -- trend report ----------------------------------------------------------


def test_ratio_report_rows():
    rows = ratio_report(3, range(2, 12))
    assert [row["m"] for row in rows] == list(range(2, 12))
    for row in rows:
        assert 0 <= row["ratio_nonzero"] <= 1
        assert 0 <= row["t_over_m"] <= 1
        assert 0 <= row["m_over_inv"] <= 1
        assert row["e_size"] <= row["e_bound"]
        assert row["phi"] >= row["phi_bound"]
        if row["m"] >= 3:
            assert row["omega"] <= row["omega_bound"]


def test_ratio_report_skips_empty_census():
    rows = ratio_report(2, range(2, 6))
    assert [row["m"] for row in rows] == [3, 4, 5]  # m=2 has no such modules


def test_phi_lower_bound_wide():
    # phi(m) >= sqrt(m/2), checked by sieve far beyond the report range
    import numpy as np

    limit = 10**6
    phi = np.arange(limit + 1)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    m = np.arange(3, limit + 1, dtype=float)
    assert (phi[3:].astype(float) ** 2 >= m / 2).all()
