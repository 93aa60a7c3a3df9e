"""Frobenius-Schur indicators of the irreducible modules of k^{S_{n-1}} # kC_n.

Irreducible modules are induced from characters of the cyclic stabilizer
of a permutation: a module is named by (orbit representative x, t, i)
where <a^t> is the stabilizer of x and the inducing character sends a^t
to zeta^i for zeta a primitive (n/t)-th root of unity.  The module's
dimension is t, and its indicator lies in {-1, 0, +1}.

Two independent evaluation routes are provided:

``indicator_reduced``
    The fast path.  With s the smallest shift carrying x^{-1} to x and
    u1, u2 the reduced exponents of x(t)+t and x(s)+s, the indicator is
    0 unless i*u1 = 0 mod n/t; otherwise it is +1 when n/t is odd, and
    zeta^{-i*u2} = +-1 when n/t is even.  Everything is plain modular
    integer arithmetic; no complex numbers are ever touched.

``indicator_bruteforce``
    The oracle.  It evaluates the averaged character sum

        (1/n) sum_{y in orbit} sum_{b : y^{-1} <| a^b = y} chi(a^{y^{-1}(b)+b})

    literally, reading each member's transporters from the scan of all
    of C_n in ``matched_pair.inv_transporter_set`` and accumulating
    exact roots of unity, then reducing the sum to an integer.

The two must agree on every module; the test suite proves it
exhaustively for small degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bulk
from .counting import divisors
from .cyclotomic import CyclotomicAccumulator
from .matched_pair import inv_transporter_set, inversion_data, orbit, stabilizer
from .perm import Permutation, inverse

__all__ = [
    "IrrepDescriptor",
    "indicator_reduced",
    "indicator_bruteforce",
    "group_indicator_cn",
    "indicator_table",
    "tally_indicators",
]


@dataclass(frozen=True)
class IrrepDescriptor:
    """(orbit representative, stabilizer order t, character index i).

    The map (orbit, i) -> irreducible module is a bijection, so with the
    representative canonicalized these descriptors name each module
    exactly once.  The dimension of the module equals t.
    """

    orbit_rep: Permutation
    t: int
    i: int

    def __post_init__(self) -> None:
        n = self.orbit_rep.n
        if not self.orbit_rep.fixes_top():
            raise ValueError("orbit representative must fix the top point")
        if n % self.t:
            raise ValueError(f"t={self.t} does not divide n={n}")
        if not 0 <= self.i < n // self.t:
            raise ValueError(f"character index {self.i} out of range mod {n // self.t}")

    @property
    def n(self) -> int:
        return self.orbit_rep.n

    @property
    def dimension(self) -> int:
        return self.t

    @classmethod
    def from_permutation(cls, x: Permutation, i: int) -> "IrrepDescriptor":
        """Canonicalize x to its orbit representative and validate t."""
        orb = orbit(x)
        return cls(orb.representative, len(orb.members), i)


def indicator_reduced(d: IrrepDescriptor) -> int:
    """Indicator via the closed congruence conditions; exact and fast."""
    x = d.orbit_rep
    n = x.n
    t = stabilizer(x).t
    if t != d.t:
        raise ValueError(f"descriptor t={d.t} but stabilizer order is {t}")
    m = n // t
    inv = inversion_data(x)
    if not inv.in_orbit:
        return 0
    if (d.i * inv.u1) % m:
        return 0
    if m % 2:
        return 1
    k = (d.i * inv.u2) % m
    if k == 0:
        return 1
    if (2 * k) % m == 0:
        return -1
    # i*u1 = 0 mod m forces i*u2 into {0, m/2}; anything else would mean
    # the congruence data is inconsistent, so fail loudly.
    raise ArithmeticError(
        f"i*u2 = {k} mod {m} is not 0 or {m}/2 although i*u1 = 0 (x={x})"
    )


def indicator_bruteforce(d: IrrepDescriptor) -> int:
    """Indicator via the literal averaged character sum (the oracle).

    For each orbit member y, its transporters -- the b in {0..n-1} with
    y^{-1} <| a^b = y -- are read from the definition-level scan
    ``inv_transporter_set``; each contributes chi_i(a^{y^{-1}(b)+b}),
    which is zeta^{i e / t} when t divides the exponent e and 0
    otherwise.  The accumulated sum, divided by n, must land in
    {-1, 0, +1}.
    """
    x = d.orbit_rep
    n = x.n
    members = orbit(x).members
    t = len(members)
    if t != d.t:
        raise ValueError(f"descriptor t={d.t} but stabilizer order is {t}")
    m = n // t
    acc = CyclotomicAccumulator(m)
    for y in members:
        yi_word = inverse(y).word
        for b in inv_transporter_set(y):
            e = (yi_word[b] + b) % n
            if e % t == 0:
                acc.add(d.i * (e // t))
    total = acc.value() / n
    if total.denominator != 1 or total not in (-1, 0, 1):
        raise ArithmeticError(f"indicator sum {total} is not in {{-1, 0, 1}}")
    return int(total)


def group_indicator_cn(n: int, i: int) -> int:
    """Indicator of the C_n character a -> zeta_n^i: +1 iff n | 2i, else 0."""
    if not 0 <= i < n:
        raise ValueError(f"character index {i} out of range 0..{n - 1}")
    return 1 if (2 * i) % n == 0 else 0


def indicator_table(
    n: int,
    filter_t: int | None = None,
    max_work: int | None = None,
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """One (t, reps, values) entry per dimension t at degree n, t ascending,
    optionally restricted to dimension ``filter_t``.

    ``reps`` holds the canonical orbit representatives as residue-word
    rows and ``values[k, i]`` is the indicator of the module
    (reps[k], t, i), so each entry stands for len(reps) * n/t modules.
    Representatives are read window by window from ``bulk.rep_chunks``,
    whose workload guard also rejects a t that does not divide n, and
    the array congruence route evaluates each window.  The entry is then
    sorted once, lexicographically (the order of the one-line forms,
    column 0 being 0).
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    table = []
    for t in [filter_t] if filter_t is not None else divisors(n):
        reps, values = [], []
        for X in bulk.rep_chunks(n, t, max_work):
            reps.append(X)
            values.append(bulk.reduced_indicator_rows(X, t))
        reps, values = np.concatenate(reps), np.concatenate(values)
        # An a^t-stabilized row is determined by x(1..t), its seed, so the
        # rows differ there and a sort on columns 0..t orders them as the
        # sort on all columns does.
        order = np.lexsort(reps[:, t::-1].T)
        table.append((t, reps[order], values[order]))
    return table


def tally_indicators(
    table: list[tuple[int, np.ndarray, np.ndarray]],
) -> dict[int, int]:
    """Tally {+1, -1, 0} over a table in the census convention: each
    module counts once per orbit member, i.e. with multiplicity t, since
    the census bookkeeping is per (permutation, character) pair while a
    table row stands for a whole orbit."""
    tallies = [bulk._tally(values, t) for t, _reps, values in table]
    return {v: sum(tally[v] for tally in tallies) for v in (1, -1, 0)}
