"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they pass).

All comparisons are exact integer equalities; the only tolerances are
the stated wall-clock budgets.
"""

import math
import time
from collections import Counter

import pytest

from bismash import bulk
from bismash.construct import enumerate_involutions, enumerate_involutions_fixed
from bismash.counting import (
    CountContext,
    count_I_odd,
    count_I_t2,
    count_M,
    count_O,
    count_R,
    count_T,
    count_X,
    involution_count,
    ratio_report,
)
from bismash.hopf import (
    check_antipode_axiom,
    check_counit_axiom,
    check_multiplication_associative,
)
from bismash.indicator import (
    IrrepDescriptor,
    indicator_bruteforce,
    indicator_reduced,
    indicator_table,
    tally_indicators,
)
from bismash.matched_pair import divisors, stabilizer
from bismash.perm import Permutation, from_cycles, is_involution


def report(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[{num:>2}] {'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_stabilizer_census_n12():
    start = time.perf_counter()
    ctx = CountContext(12)
    got = {t: count_M(ctx, t) for t in divisors(12)}
    total = sum(got.values())
    elapsed = time.perf_counter() - start
    ok = (
        got[1] == 4
        and got[2] == 8
        and got[3] == 60
        and got[6] == 3768
        and total == math.factorial(11)
        and elapsed < 1.0
    )
    report(
        1,
        "stabilizer census at degree 12 (recursion + divisor sum = 11!)",
        ok,
        f"{got}, sum={total}, {elapsed:.3f}s",
    )


PROPER_STRATA_N12 = {1: 4, 2: 8, 3: 60, 4: 312, 6: 3768}
TRIVIAL_STABILIZER_N12 = 39912648


def test_criterion_01_trivial_stabilizer_literal_value(sweeps):
    # Criterion 1's trivial-stabilizer count at degree 12, pinned as a
    # literal and held three ways.  The recursion gives
    # phi(1)*1**11*11! - (4+8+60+312+3768) = 39912648; the strata over
    # t | 12 partition S_11, so the divisor sum closes at 11! = 39916800;
    # and the exhaustive degree-12 sweep counts the same strata by
    # enumeration.  The value once quoted, 359040, is 9! - 3840 (the same
    # subtraction from the wrong factorial) and fails the divisor sum:
    # 4+8+60+312+3768+359040 = 363192.
    ctx = CountContext(12)
    recursion = {t: count_M(ctx, t) for t in divisors(12)}
    proper = sum(PROPER_STRATA_N12.values())
    swept = sweeps.get(12).m_counts
    ok = (
        recursion[12] == TRIVIAL_STABILIZER_N12
        and {t: recursion[t] for t in PROPER_STRATA_N12} == PROPER_STRATA_N12
        and math.factorial(11) - proper == TRIVIAL_STABILIZER_N12
        and swept == recursion
        and swept[12] == TRIVIAL_STABILIZER_N12
    )
    report(
        1,
        f"trivial-stabilizer count at degree 12 is {TRIVIAL_STABILIZER_N12}"
        f" = 11! - {proper}",
        ok,
        f"recursion={recursion[12]}, 11!-{proper}="
        f"{math.factorial(11) - proper}, sweep={swept.get(12)}",
    )


def test_criterion_02_worked_sets():
    start = time.perf_counter()
    t63 = sorted(str(x) for x in enumerate_involutions(6, 3))
    ok_t = t63 == ["(1 2)(4 5)", "(1 4)", "(1 4)(2 5)", "(2 5)"]
    r842 = sorted(str(x) for x in enumerate_involutions_fixed(8, 4, 2))
    ok_r = r842 == [
        "(1 2)(3 7)(5 6)",
        "(1 5)(2 3)(6 7)",
        "(1 5)(2 6)(3 7)",
        "(1 5)(2 7)(3 6)",
        "(1 6)(2 5)(3 7)",
    ]
    ctx = CountContext(12)
    ok_x = count_X(ctx, 3, 1) == 6 and count_O(ctx, 3, 1) == 6
    elapsed = time.perf_counter() - start
    ok = ok_t and ok_r and ok_x and elapsed < 1.0
    report(
        2,
        "worked involution sets (6/3, 8/4 with 2 fixed points, 12/3 orbits)",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_03_indicator_oracle_equivalence(sweeps):
    mismatches = 0
    classes = 0
    seconds = 0.0
    for n in range(2, 13):
        res = sweeps.get(n)
        mismatches += res.mismatches
        classes += res.irrep_classes
        seconds += sweeps.seconds(n)
    ok = mismatches == 0 and seconds < 300.0
    report(
        3,
        "congruence fast path == averaged-character oracle, degrees 2..12",
        ok,
        f"{classes} modules, {mismatches} mismatches, {seconds:.1f}s",
    )


def test_criterion_04_negative_witness_n16():
    x = from_cycles(16, [(1, 5, 9, 13), (3, 7, 11, 15)])
    d = IrrepDescriptor.from_permutation(x, 4)
    red = indicator_reduced(d)
    bru = indicator_bruteforce(d)
    ok = d.t == 2 and red == -1 and bru == -1
    report(4, "degree 16 witness (1 5 9 13)(3 7 11 15), i=4 -> -1", ok,
           f"reduced={red}, oracle={bru}")


def test_criterion_05_dimension_two_census_n12(sweeps):
    closed = count_I_t2(CountContext(12))
    tal = tally_indicators(indicator_table(12, 2))
    table = (tal[1], tal[-1], tal[0])
    sw = sweeps.get(12).tallies[2]
    swept = (sw[1], sw[-1], sw[0])
    ok = closed == (30, 2, 16) and table == closed and swept == closed
    report(5, "degree 12 dimension-2 census (30, 2, 16)", ok,
           f"closed={closed}, table={table}, sweep={swept}")


NEGATIVE_CENSUS = {
    (12, 2): 2,
    (12, 6): 42,
    (16, 2): 2,
    (16, 4): 20,
    (20, 2): 4,
    (24, 2): 8,
    (24, 4): 64,
    (24, 6): 816,
    (36, 6): 2976,
    (48, 4): 648,
}


def test_criterion_06_negative_census_table():
    start = time.perf_counter()
    got = {}
    for (n, t), want in NEGATIVE_CENSUS.items():
        got[(n, t)] = bulk.census_by_dimension(n, t)[1]
    elapsed = time.perf_counter() - start
    ok = got == NEGATIVE_CENSUS and elapsed < 1800.0
    report(6, "negative-indicator census over ten (n, t) cells", ok,
           f"{got}, {elapsed:.1f}s")


def test_criterion_07_nonnegativity_families(sweeps):
    details = []
    ok = True

    # odd degrees never produce -1
    for n in (3, 5, 7, 9, 11):
        res = sweeps.get(n)
        bad = sum(res.tallies[t][-1] for t in divisors(n))
        ok &= bad == 0
    details.append("odd n<=11 clean")

    # odd dimensions never produce -1
    for n in range(2, 13):
        res = sweeps.get(n)
        bad = sum(res.tallies[t][-1] for t in divisors(n) if t % 2)
        ok &= bad == 0
    details.append("odd t, n<=12 clean")

    # twice-an-odd degrees never produce -1; 6 and 10 by full sweep
    for n in (6, 10):
        res = sweeps.get(n)
        ok &= sum(res.tallies[t][-1] for t in divisors(n)) == 0
    # degree 14: the dimensions with even character group (t = 1, 7) are
    # enumerated exhaustively; t = 2 likewise (tiny stratum).  For t = 14
    # the character group is trivial (n/t = 1), where both routes only
    # produce 0 or +1 (the oracle averages a nonnegative count), checked
    # here on a sample of trivial-stabilizer orbits.
    for t in (1, 2, 7):
        X = bulk.exact_stabilizer_rows(14, t)
        red = bulk.reduced_indicator_rows(X, t)
        bru = bulk.bruteforce_indicator_rows(X, t)
        ok &= (red == bru).all() and (red >= 0).all()
    sample = bulk.perm_block(14, 0, 3000)
    sample = sample[[stabilizer(Permutation(tuple(row))).t == 14 for row in sample.tolist()]]
    red = bulk.reduced_indicator_rows(sample, 14)
    bru = bulk.bruteforce_indicator_rows(sample, 14)
    ok &= (red == bru).all() and (red >= 0).all()
    details.append("n in {6,10,14} clean")

    # a skew dimension-2 module exists once 4 | n >= 12
    for n in (12, 16, 20, 24):
        ok &= count_I_t2(CountContext(n))[1] > 0
        witness = from_cycles(
            n, [tuple(range(1, n - 1, 4)), tuple(range(3, n + 1, 4))]
        )
        d = IrrepDescriptor.from_permutation(witness, n // 4)
        ok &= d.t == 2 and indicator_reduced(d) == -1
    details.append("skew witnesses at 12,16,20,24")

    report(7, "nonnegativity families and skew existence", ok, "; ".join(details))


def test_criterion_08_counts_vs_enumeration(sweeps):
    ok = True
    for n in range(2, 13):
        ctx = CountContext(n)
        res = sweeps.get(n)
        for t in divisors(n):
            inv = list(enumerate_involutions(n, t))
            ok &= len(inv) == count_T(ctx, t)
            for r in range(1, n + 1):
                want = sum(
                    1
                    for x in inv
                    if sum(1 for i, v in enumerate(x.word) if v == i) == r
                )
                ok &= want == count_R(ctx, t, r)
            ok &= sum(count_R(ctx, t, r) for r in range(1, n + 1)) == count_T(ctx, t)
            # The sweep's fixed-point histogram of the involutions it met
            # in the exhaustive listing equals the seeded enumeration's.
            fixed = Counter(
                sum(1 for i, v in enumerate(x.word) if v == i) for x in inv
            )
            ok &= res.involution_fixed_points[t] == fixed
            hist = res.orbit_involutions[t]
            for r in range(0, t + 1):
                ok &= hist.get(r, 0) == count_O(ctx, t, r)
                if r:
                    ok &= r * hist.get(r, 0) == count_X(ctx, t, r)
    report(8, "counting tower == enumeration oracle, degrees 2..12", ok)


def test_criterion_09_prime_bridge():
    ok = True
    details = []
    for p in (3, 5, 7, 11):
        ctx = CountContext(p)
        orbit_total = sum(count_O(ctx, p, r) for r in range(1, p + 1))
        want = (involution_count(p) - 1) // p - 1
        plus_1dim, _zero = count_I_odd(ctx, 1)
        ok &= orbit_total == want and plus_1dim == p + 1
        details.append(f"p={p}: {orbit_total}={want}, 1-dim +1s={plus_1dim}")
    report(9, "prime-degree bridge (orbit totals and p+1 orthogonal lines)",
           ok, "; ".join(details))


def test_criterion_10_dimension_identity(sweeps):
    ok = True
    for n in range(2, 11):
        ok &= sweeps.get(n).dim_squared_sum == math.factorial(n)
    report(10, "sum of squared dimensions = n! for degrees 2..10", ok)


def test_criterion_11_scaling(tmp_path):
    start = time.perf_counter()
    for n in range(2, 151, 2):
        count_I_t2(CountContext(n))
    t_census = time.perf_counter() - start

    from bismash.cli import main

    out = tmp_path / "ind20.csv"
    start = time.perf_counter()
    code = main(["indicators", "--n", "20", "--t", "2", "--out", str(out)])
    t_cli = time.perf_counter() - start
    ok = t_census < 300.0 and code == 0 and t_cli < 10.0 and out.exists()
    report(11, "scaling budgets (dimension-2 census to n=150; CLI degree 20)",
           ok, f"census {t_census:.2f}s, cli {t_cli:.2f}s")


def test_criterion_12_hopf_axioms_total_orthogonality(sweeps):
    ok = True
    for n in (2, 3, 4):
        ok &= check_counit_axiom(n) == []
        ok &= check_antipode_axiom(n) == []
        ok &= check_multiplication_associative(n) == []
    orthogonal = []
    for n in range(2, 9):
        res = sweeps.get(n)
        nonplus = sum(
            res.tallies[t][-1] + res.tallies[t][0] for t in divisors(n)
        )
        orthogonal.append(nonplus == 0)
    ok &= orthogonal[0] and not any(orthogonal[1:])
    report(12, "structure-map axioms (n<=4); full orthogonality only at n=2",
           ok, f"orthogonal flags 2..8: {orthogonal}")


def test_limit_trend_substitute():
    ok = True
    details = []
    for t in (1, 2, 3):
        rows = ratio_report(t, range(2, 201))
        for row in rows:
            ok &= 0 <= row["ratio_nonzero"] <= 1
            ok &= row["e_size"] <= row["e_bound"]
            ok &= row["phi"] >= row["phi_bound"]
            if row["m"] >= 3:
                ok &= row["omega"] <= row["omega_bound"]
        first, last = rows[0], rows[-1]
        ok &= last["m"] == 200 and last["ratio_nonzero"] < first["ratio_nonzero"]
        details.append(
            f"t={t}: m={first['m']} ratio {float(first['ratio_nonzero']):.3f} "
            f"-> m=200 ratio {float(last['ratio_nonzero']):.3g}"
        )
    report("T", "sparsity trend bounded by the analytic inequalities", ok,
           "; ".join(details))
