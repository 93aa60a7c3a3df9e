"""Stabilizer-constrained generation of permutation families.

A permutation x fixing n whose stabilizer contains a^t is linear over
the residue classes mod t: writing x(t) = j*t and, for 0 < i < t,
x(i) = u_i*t + sigma(i) with sigma the permutation of {1..t-1} given by
reduction mod t, the whole of x is

    x(q*t + w) = q*j*t + x(w)   (mod n).

The triple (j, sigma, u) is a *seed*; seeds are in bijection with the
permutations stabilized by a^t, which is what lets these enumerators
replace (n-1)!-sized scans.  An involution corresponds exactly to a
seed with j^2 = 1 mod n/t, sigma an involution, and u_i = -j*u_sigma(i).

Streams come in lexicographic seed order (j ascending, sigma in one-line
lexicographic order, u as a big-endian odometer), so runs are
deterministic.  The iterators here are views over the rows ``bulk``
expands from the seeds; ``build_from_seed`` and ``extract_seed`` are the
scalar seed maps.  The workload guard checks a stratum's candidate count
before anything is expanded: the factorial growth of the problem makes
large (n, t) infeasible, and the guard turns that into a clean error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import bulk
from .guard import WorkloadExceeded, default_max_work
from .matched_pair import Orbit, orbit, stabilizer
from .perm import Permutation

__all__ = [
    "WorkloadExceeded",
    "default_max_work",
    "RemainderSeed",
    "build_from_seed",
    "extract_seed",
    "enumerate_stabilized",
    "enumerate_exact_stabilizer",
    "enumerate_involutions",
    "enumerate_involutions_fixed",
    "enumerate_orbit_reps",
]


@dataclass(frozen=True)
class RemainderSeed:
    """(n, t, j, sigma, u) determining one a^t-stabilized permutation.

    ``sigma`` is a permutation of degree t fixing t (the remainder
    permutation, embedded); ``u`` lists u_1..u_{t-1} reduced mod n/t;
    ``j`` is coprime to n/t.
    """

    n: int
    t: int
    j: int
    sigma: Permutation
    u: tuple[int, ...]

    def __post_init__(self) -> None:
        n, t = self.n, self.t
        if t < 1 or n % t:
            raise ValueError(f"t={t} must divide n={n}")
        m = n // t
        if math.gcd(self.j, m) != 1:
            raise ValueError(f"j={self.j} is not coprime to n/t={m}")
        if self.sigma.n != t or not self.sigma.fixes_top():
            raise ValueError("sigma must be a degree-t permutation fixing t")
        if len(self.u) != t - 1:
            raise ValueError(f"u must list t-1={t - 1} residues")
        object.__setattr__(self, "j", self.j % m)
        object.__setattr__(self, "u", tuple(v % m for v in self.u))


def build_from_seed(seed: RemainderSeed) -> Permutation:
    """The permutation with x(i) = u_i*t + sigma(i), x(qt) = q*j*t."""
    n, t, j = seed.n, seed.t, seed.j
    word = [0] * n
    base = [0] * t  # base[w] = x(w) for w = 0..t-1, with x(0) = 0
    for i in range(1, t):
        base[i] = (seed.u[i - 1] * t + seed.sigma.word[i]) % n
    jt = (j * t) % n
    for q in range(n // t):
        off = (q * jt) % n
        for w in range(t):
            word[q * t + w] = (off + base[w]) % n
    return Permutation(tuple(word))


def extract_seed(x: Permutation) -> RemainderSeed:
    """Recover (j, sigma, u) from x; inverse of build_from_seed."""
    n = x.n
    t, j = stabilizer(x)
    sigma_word = [0] + [x.word[i] % t for i in range(1, t)]
    u = tuple((x.word[i] - sigma_word[i]) // t % (n // t) for i in range(1, t))
    return RemainderSeed(n, t, j, Permutation(tuple(sigma_word)), u)


def _perms(X) -> Iterator[Permutation]:
    for row in X:
        yield Permutation(tuple(row.tolist()))


def enumerate_stabilized(
    n: int, t: int, max_work: int | None = None
) -> Iterator[Permutation]:
    """All x fixing n with a^t in the stabilizer (exactness not required)."""
    yield from _perms(bulk.stabilized_rows(n, t, max_work))


def enumerate_exact_stabilizer(
    n: int, t: int, max_work: int | None = None
) -> Iterator[Permutation]:
    """The x fixing n whose stabilizer is exactly <a^t>: the set counted
    by the stabilizer census.  Yields in deterministic seed order."""
    yield from _perms(bulk.exact_stabilizer_rows(n, t, max_work))


def enumerate_involutions(
    n: int, t: int, max_work: int | None = None
) -> Iterator[Permutation]:
    """Involutions with stabilizer exactly <a^t>, from seeds constrained
    at the source (see ``bulk.exact_involution_rows``)."""
    yield from _perms(bulk.exact_involution_rows(n, t, max_work))


def enumerate_involutions_fixed(
    n: int, t: int, r: int, max_work: int | None = None
) -> Iterator[Permutation]:
    """Involutions with stabilizer exactly <a^t> and exactly r fixed
    points, the point n included.  Empty when n - r is odd."""
    if (n - r) % 2 or r < 1:
        return
    X = bulk.exact_involution_rows(n, t, max_work)
    yield from _perms(X[(X == np.arange(n)).sum(axis=1) == r])


def enumerate_orbit_reps(
    n: int, t: int, r: int | None = None, max_work: int | None = None
) -> Iterator[Orbit]:
    """One Orbit per equivalence class with stabilizer order t, keyed by
    the canonical (lexicographically smallest) representative, in seed
    order; optionally only orbits containing exactly r involutions.
    Orbits come chunk by chunk of ``bulk.rep_chunks``, each chunk filtered
    by r on its own, so only one window of rows is held at a time."""
    for reps in bulk.rep_chunks(n, t, max_work):
        if r is not None:
            reps = reps[bulk.orbit_involution_counts(reps, t) == r]
        for x in _perms(reps):
            yield orbit(x)
