from fractions import Fraction

import pytest

from bismash.cyclotomic import (
    CyclotomicAccumulator,
    cyclotomic_polynomial,
    power_basis_rows,
)


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    for m in range(1, 501):
        want = sympy.cyclotomic_poly(m, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(int(c) for c in want), m


def test_cyclotomic_product_recovers_xn_minus_1():
    from bismash.matched_pair import divisors

    for m in range(1, 20):
        prod = [1]
        for d in divisors(m):
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for k, b in enumerate(phi):
                    out[i + k] += a * b
            prod = out
        want = [-1] + [0] * (m - 1) + [1]
        assert prod == want


def test_power_basis_rows_cycle():
    # z^m reduces back to 1, so row arithmetic is consistent mod m
    for m in (1, 2, 3, 4, 6, 8, 12):
        rows = power_basis_rows(m)
        assert len(rows) == m
        assert rows[0][0] == 1 and all(v == 0 for v in rows[0][1:])


def test_full_cycle_sums_to_zero():
    for m in range(2, 15):
        acc = CyclotomicAccumulator(m)
        for k in range(m):
            acc.add(k)
        assert acc.value() == 0


def test_recognizes_plus_minus_one():
    acc = CyclotomicAccumulator(8)
    acc.add(0, 5)
    assert acc.value() == 5
    acc = CyclotomicAccumulator(8)
    acc.add(4, 3)  # z^4 = -1
    assert acc.value() == -3
    acc = CyclotomicAccumulator(6)
    acc.add(3, Fraction(1, 2))  # z^3 = -1
    assert acc.value() == Fraction(-1, 2)


def test_subgroup_coset_sums_cancel():
    # equal weight on a coset of a nontrivial subgroup of exponents sums to 0
    acc = CyclotomicAccumulator(12)
    for k in range(1, 12, 2):  # odd exponents: coset of <2>... z * (full <2> cycle)
        acc.add(k)
    assert acc.value() == 0


def test_irrational_sum_raises():
    acc = CyclotomicAccumulator(5)
    acc.add(1)
    with pytest.raises(ValueError):
        acc.value()
