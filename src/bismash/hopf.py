"""Structure maps of the bismash product Hopf algebra k^{S_{n-1}} # kC_n.

The algebra has basis {p_x # a^r : x in S_{n-1}, 0 <= r < n}, where p_x
is the dual basis of the group algebra of S_{n-1} and a is the standard
n-cycle.  On basis elements:

    (p_x # a^r)(p_y # a^s) = [y = x <| a^r] p_x # a^{r+s}
    eps(p_x # a^r)          = [x = 1]
    Delta(p_x # a^r)        = sum_y (p_{x y^{-1}} # a^{y(r)}) (x) (p_y # a^r)
    S(p_x # a^r)            = p_{(x <| a^r)^{-1}} # a^{-x(r)}

Coefficients are exact rationals throughout; the coproduct is dense
((n-1)! terms), so everything here is sized for the tiny degrees used
in axiom sanity checks, not for the indicator fast path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .matched_pair import act_left, act_right
from .perm import Permutation, compose, inverse

__all__ = [
    "BasisElement",
    "TensorSum",
    "multiply",
    "antipode",
    "comultiply",
    "counit",
    "basis_elements",
    "sym_fixing_top",
    "check_counit_axiom",
    "check_antipode_axiom",
    "check_multiplication_associative",
    "check_antipode_involutive",
]


@dataclass(frozen=True)
class BasisElement:
    """p_x # a^r with x fixing n and r reduced mod n."""

    x: Permutation
    r: int

    def __post_init__(self) -> None:
        if not self.x.fixes_top():
            raise ValueError("basis label must fix the top point n")
        object.__setattr__(self, "r", self.r % self.x.n)

    @property
    def n(self) -> int:
        return self.x.n

    def __str__(self) -> str:
        return f"p[{self.x}]#a^{self.r}"


@dataclass(frozen=True)
class TensorSum:
    """A finite sum of coef * (left (x) right) with exact coefficients.

    Terms are normalized: duplicate (left, right) pairs merged, zero
    coefficients dropped, and the order fixed by the labels so equal
    sums compare equal.
    """

    terms: tuple[tuple[Fraction, BasisElement, BasisElement], ...]

    @classmethod
    def of(
        cls, terms: Iterable[tuple[Fraction | int, BasisElement, BasisElement]]
    ) -> "TensorSum":
        acc: dict[tuple[BasisElement, BasisElement], Fraction] = {}
        for coef, left, right in terms:
            key = (left, right)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(coef)
        kept = [
            (coef, left, right) for (left, right), coef in acc.items() if coef != 0
        ]
        kept.sort(key=lambda term: (term[1].x.word, term[1].r, term[2].x.word, term[2].r))
        return cls(tuple(kept))


def sym_fixing_top(n: int) -> Iterator[Permutation]:
    """All (n-1)! permutations of degree n fixing n."""
    for images in itertools.permutations(range(1, n)):
        yield Permutation._unchecked((0,) + images)


def basis_elements(n: int) -> Iterator[BasisElement]:
    for x in sym_fixing_top(n):
        for r in range(n):
            yield BasisElement(x, r)


def multiply(e1: BasisElement, e2: BasisElement) -> BasisElement | None:
    """Product of basis elements; None encodes the zero of the algebra."""
    if e1.n != e2.n:
        raise ValueError(f"degree mismatch: {e1.n} != {e2.n}")
    if e2.x != act_left(e1.x, e1.r):
        return None
    return BasisElement(e1.x, e1.r + e2.r)


def counit(e: BasisElement) -> int:
    return 1 if e.x.is_identity() else 0


def antipode(e: BasisElement) -> BasisElement:
    return BasisElement(inverse(act_left(e.x, e.r)), -act_right(e.x, e.r))


def comultiply(e: BasisElement) -> TensorSum:
    """Delta(p_x # a^r): exactly (n-1)! terms, all with coefficient 1."""
    terms = []
    for y in sym_fixing_top(e.n):
        left = BasisElement(compose(e.x, inverse(y)), act_right(y, e.r))
        right = BasisElement(y, e.r)
        terms.append((Fraction(1), left, right))
    return TensorSum.of(terms)


# -- axiom checks ------------------------------------------------------
#
# Test-only utilities: each returns the list of offending basis elements
# (empty means the axiom holds).  The element-level representation is a
# dict {BasisElement: Fraction} so sums of products stay exact.

_Element = dict[BasisElement, Fraction]


def _add_scaled(acc: _Element, e: BasisElement | None, coef: Fraction) -> None:
    if e is None or coef == 0:
        return
    new = acc.get(e, Fraction(0)) + coef
    if new == 0:
        acc.pop(e, None)
    else:
        acc[e] = new


def _unit(n: int) -> _Element:
    # The unit 1 # 1 = sum_x p_x # a^0.
    return {BasisElement(x, 0): Fraction(1) for x in sym_fixing_top(n)}


def check_counit_axiom(n: int) -> list[BasisElement]:
    """(eps (x) id) Delta = id = (id (x) eps) Delta on every basis element."""
    bad = []
    for e in basis_elements(n):
        left: _Element = {}
        right: _Element = {}
        for coef, a, b in comultiply(e).terms:
            _add_scaled(left, b, coef * counit(a))
            _add_scaled(right, a, coef * counit(b))
        if left != {e: Fraction(1)} or right != {e: Fraction(1)}:
            bad.append(e)
    return bad


def check_antipode_axiom(n: int) -> list[BasisElement]:
    """m (S (x) id) Delta = eps * 1 = m (id (x) S) Delta on every basis element."""
    bad = []
    for e in basis_elements(n):
        want: _Element = _unit(n) if counit(e) else {}
        left: _Element = {}
        right: _Element = {}
        for coef, a, b in comultiply(e).terms:
            _add_scaled(left, multiply(antipode(a), b), coef)
            _add_scaled(right, multiply(a, antipode(b)), coef)
        if left != want or right != want:
            bad.append(e)
    return bad


def check_multiplication_associative(n: int) -> list[tuple[BasisElement, ...]]:
    """(e1 e2) e3 = e1 (e2 e3) over all basis triples.

    The product table of the basis is built once from ``multiply``, with
    one extra index for zero; both bracketings are then read from it as
    index arrays, one first factor at a time.  Offending triples come in
    the lexicographic order of their basis indices.
    """
    elements = list(basis_elements(n))
    index = {e: k for k, e in enumerate(elements)}
    zero = len(elements)
    table = np.full((zero + 1, zero + 1), zero, dtype=np.intp)
    for a, e1 in enumerate(elements):
        for b, e2 in enumerate(elements):
            p = multiply(e1, e2)
            if p is not None:
                table[a, b] = index[p]
    products = table[:zero, :zero]
    bad = []
    for a, e1 in enumerate(elements):
        lhs = table[products[a], :zero]  # [b, c]: (e1 e_b) e_c
        rhs = table[a, products]  # [b, c]: e1 (e_b e_c)
        for b, c in np.argwhere(lhs != rhs):
            bad.append((e1, elements[b], elements[c]))
    return bad


def check_antipode_involutive(n: int) -> list[BasisElement]:
    """S(S(e)) = e on every basis element (the algebra is semisimple)."""
    return [e for e in basis_elements(n) if antipode(antipode(e)) != e]
