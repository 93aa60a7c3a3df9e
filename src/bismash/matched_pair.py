"""The factorization S_n = C_n * S_{n-1} and its matched-pair actions.

Every lambda in S_n splits uniquely as a^r * x with a the standard
n-cycle, r = lambda(n) and x fixing n.  Refactorizing x * a^r the other
way round defines two mutual actions

    x <| a^r = a^{-x(r)} x a^r          (an action of C_n on the set S_{n-1})
    x |> a^r = a^{x(r)}                 (an action of S_{n-1} on the set C_n)

so that x a^r = (x |> a^r)(x <| a^r).  Pointwise, on residues mod n,

    (x <| a^r)(u) = x(u + r) - x(r).

This module computes those actions together with the derived data the
indicator machinery consumes: the stabilizer subgroup <a^t> of x, the
orbit {x <| a^l}, the smallest shift s carrying x^{-1} back to x, and
the exponent pair (u1, u2) with x(t) + t = u1*t and x(s) + s = u2*t.

All functions are pure; all modular integers are normalized to
{0..m-1}.
"""

from __future__ import annotations

from typing import NamedTuple

from .counting import divisors
from .perm import Permutation, inverse

__all__ = [
    "StabilizerInfo",
    "Orbit",
    "InversionData",
    "act_left",
    "act_right",
    "factorize",
    "stabilizer",
    "orbit",
    "inversion_data",
    "inv_transporter_set",
    "divisors",
]


class StabilizerInfo(NamedTuple):
    """The stabilizer <a^t> of x, with x(t) = j*t mod n.

    t is the smallest positive divisor of n whose shift power fixes x;
    j is reduced mod n/t and is coprime to n/t.
    """

    t: int
    j: int


class Orbit(NamedTuple):
    """The orbit of x under <|.

    ``members[l-1]`` is x <| a^l for l = 1..t, so the last member is x
    itself.  ``representative`` is the member with the lexicographically
    smallest one-line form; it is the canonical name of the orbit.
    """

    members: tuple[Permutation, ...]
    representative: Permutation


class InversionData(NamedTuple):
    """How (and whether) x^{-1} sits inside the orbit of x.

    ``in_orbit`` is True iff some shift carries x^{-1} to x; ``s`` is the
    smallest l in {1..t} with x^{-1} = x <| a^s, else None.  ``u1`` and
    ``u2`` are the reduced exponents with x(t)+t = u1*t and
    x(s)+s = u2*t (mod n), both taken mod n/t; u2 is None when x^{-1}
    is not in the orbit.
    """

    in_orbit: bool
    s: int | None
    u1: int
    u2: int | None


def _act_left_word(w: tuple[int, ...], r: int) -> tuple[int, ...]:
    # (x <| a^r)(u) = x(u+r) - x(r): the word rotated by r, less x(r).
    n = len(w)
    r %= n
    xr = w[r]
    return tuple([(v - xr) % n for v in w[r:] + w[:r]])


def act_left(x: Permutation, r: int) -> Permutation:
    """x <| a^r, computed pointwise as (x <| a^r)(u) = x(u+r) - x(r)."""
    return Permutation._unchecked(_act_left_word(x.word, r))


def act_right(x: Permutation, r: int) -> int:
    """The exponent of x |> a^r = a^{x(r)}."""
    return x.word[r % x.n]


def factorize(lam: Permutation) -> tuple[int, Permutation]:
    """Split lam in S_n as a^r * x with x fixing n; returns (r, x).

    r = lam(n) mod n, and x = a^{-r} * lam.
    """
    n = lam.n
    r = lam.word[0]
    x = Permutation(tuple((v - r) % n for v in lam.word))
    return r, x


def _stabilizer_order(w: tuple[int, ...]) -> int:
    n = len(w)
    for t in divisors(n):
        if t == n:
            return n
        xt = w[t]
        if all((w[(u + t) % n] - xt) % n == w[u] for u in range(n)):
            return t
    raise AssertionError("unreachable: n always stabilizes")


def stabilizer(x: Permutation) -> StabilizerInfo:
    """Minimal t | n with x <| a^t = x, plus j = x(t)/t mod n/t.

    Divisors are tested in increasing order with the pointwise shift
    test, so the cost is O(n * d(n)) with no intermediate permutations.
    """
    n = x.n
    t = _stabilizer_order(x.word)
    xt = x.word[t % n]
    if xt % t:
        raise AssertionError(f"x(t) = {xt} is not a multiple of t = {t}")
    return StabilizerInfo(t, (xt // t) % (n // t))


def orbit(x: Permutation) -> Orbit:
    """The orbit {x <| a^l : l = 1..t}, of size exactly t."""
    t = _stabilizer_order(x.word)
    members = tuple(act_left(x, l) for l in range(1, t + 1))
    # Every member fixes n, so residue-word order is one-line order.
    return Orbit(members, min(members, key=lambda y: y.word))


def inversion_data(x: Permutation) -> InversionData:
    """Scan l = 1..t for x^{-1} = x <| a^l and package (s, u1, u2)."""
    n = x.n
    t = _stabilizer_order(x.word)
    m = n // t
    u1 = _exact_multiple(x.word[t % n] + t, t) % m
    inv_word = inverse(x).word
    for l in range(1, t + 1):
        if _act_left_word(x.word, l) == inv_word:
            u2 = _exact_multiple(x.word[l % n] + l, t) % m
            return InversionData(True, l, u1, u2)
    return InversionData(False, None, u1, None)


def _exact_multiple(v: int, t: int) -> int:
    if v % t:
        raise AssertionError(f"{v} is not a multiple of {t}")
    return v // t


def inv_transporter_set(y: Permutation) -> list[int]:
    """Exponents b with y^{-1} <| a^b = y, by direct scan of all of C_n.

    Empty iff y^{-1} is not in the orbit of y; otherwise the set has
    exactly n/t elements, t being the stabilizer order of y.  The scan
    is deliberately definition-level so it can serve as an independent
    oracle for the parametrized description {a^{mt+l-s-x(l)}}.
    """
    yw = y.word
    yi = inverse(y).word
    return [b for b in range(y.n) if _act_left_word(yi, b) == yw]
