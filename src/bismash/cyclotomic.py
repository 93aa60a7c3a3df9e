"""Exact arithmetic with roots of unity via cyclotomic polynomial reduction.

A sum  c_0 + c_1 z + ... + c_{m-1} z^{m-1}  with z a primitive m-th root
of unity is an exact object of the ring Z[z].  Reducing the coefficient
vector modulo the m-th cyclotomic polynomial expresses the sum in the
integral power basis {1, z, ..., z^{phi(m)-1}}; the sum is a rational
integer exactly when every basis coordinate above the constant one
vanishes.  This is the grouping-plus-cancellation step needed to
recognize when an indicator sum collapses to -1, 0 or +1, done in pure
integer (or Fraction) arithmetic with no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .counting import divisors

__all__ = ["cyclotomic_polynomial", "power_basis_rows", "CyclotomicAccumulator"]


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials, denominator monic.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i, dv in enumerate(den):
                num[k + i] -= c * dv
    if any(num[:dd]):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low to high."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m)[:-1]:
        poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def power_basis_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e = coordinates of z^e in the basis {1, z, .., z^{phi(m)-1}}.

    Computed by repeated multiplication by z with reduction mod the
    cyclotomic polynomial, so they are exact integer vectors.
    """
    phi_poly = cyclotomic_polynomial(m)
    deg = len(phi_poly) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(m):
        rows.append(tuple(cur))
        nxt = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            for i in range(deg):
                nxt[i] -= lead * phi_poly[i]
        cur = nxt
    return tuple(rows)


class CyclotomicAccumulator:
    """An exact sum of rational multiples of m-th roots of unity.

    ``coeffs[k]`` is the coefficient of z^k.  ``value()`` reduces the
    sum to an exact rational, raising if the sum is irrational.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        self.modulus = modulus
        self.coeffs: list[Fraction] = [Fraction(0)] * modulus

    def add(self, exponent: int, coeff: Fraction | int = 1) -> None:
        self.coeffs[exponent % self.modulus] += Fraction(coeff)

    def value(self) -> Fraction:
        rows = power_basis_rows(self.modulus)
        deg = len(rows[0])
        coords = [Fraction(0)] * deg
        for e, c in enumerate(self.coeffs):
            if c:
                row = rows[e]
                for i in range(deg):
                    coords[i] += c * row[i]
        if any(coords[1:]):
            raise ValueError("sum of roots of unity is not rational")
        return coords[0]
