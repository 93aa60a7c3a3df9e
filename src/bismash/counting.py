"""Closed-form and recursive counts over the divisor lattice of n.

The quantities counted, for x ranging over permutations fixing n:

    M_{n/t}      x with stabilizer exactly <a^t>
    T_{n/t}      involutions among them
    R_{n/t,r}    ... with exactly r fixed points (point n included)
    X_{n/t,r}    involutions whose orbit contains exactly r involutions
    C_{n,t,s,r}  the overcount removed from X: involutions generated by a
                 degree-t remainder with r fixed points but actually of
                 stabilizer <a^s>, s | t
    O_{n/t,r}    orbits of length t containing r involutions
    O_{n/t,r,j}  ... restricted to orbits with y(t) = j*t

and, on top of those, census totals of indicator values: I_odd counts
the +1 / 0 split for odd dimensions, I_t2 the +1 / -1 / 0 split for
dimension 2.  Indicator censuses use the per-(permutation, character)
convention: every x with stabilizer <a^t> contributes n/t entries, so an
orbit is counted once per member.

M, T, R and C are each an "exact stabilizer" count got by one sieve,
``_exact``: count what a^d stabilizes, then subtract the exact counts of
the proper divisors of d, memoized in a CountContext.  Each count only
supplies its "stabilized by a^d" term, as a profile: a list indexed by
r (fixed points for R, involutions per orbit for C), filled only at
r = blocks * beta for each j and number of fixed-point blocks.  The
sieve subtracts profiles entry by entry, so one pass per (quantity, d)
answers every r; M and T are one-entry profiles.  X and r*O_j are the
top (s = t) of the C sieve.  All arithmetic is exact arbitrary-width integer
arithmetic ((n-1)! overflows 64 bits already at n = 22).  The residue
sets depend on (j, m) alone and are cached for the process; everything
that depends on n stays in the per-degree CountContext.

Every count here has an independent enumeration oracle in the
construction layer, and the test suite holds the two equal on all
parameters up to degree 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

from .matched_pair import divisors

__all__ = [
    "prime_factors",
    "units",
    "euler_phi",
    "omega",
    "involution_count",
    "e_set",
    "k_set",
    "alpha",
    "p_set",
    "p_c_set",
    "beta",
    "ebar_set",
    "k_prime_set",
    "delta_bar",
    "CountContext",
    "count_M",
    "count_T",
    "count_R",
    "count_C",
    "count_X",
    "count_O",
    "count_O_j",
    "count_I_odd",
    "count_I_t2",
    "ratio_report",
]


# -- elementary number theory -----------------------------------------


def prime_factors(m: int) -> dict[int, int]:
    """Prime factorization of m as {prime: exponent}, primes ascending."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def units(m: int) -> list[int]:
    """The residues 0..m-1 coprime to m, ascending; [0] for m = 1."""
    return [j for j in range(m) if gcd(j, m) == 1]


def euler_phi(m: int) -> int:
    """Count of residues coprime to m."""
    if m < 1:
        raise ValueError("m must be positive")
    out = 1
    for p, e in prime_factors(m).items():
        out *= p ** (e - 1) * (p - 1)
    return out


def omega(m: int) -> int:
    """Number of distinct prime divisors of m."""
    if m < 1:
        raise ValueError("m must be positive")
    return len(prime_factors(m))


def involution_count(m: int) -> int:
    """Number of self-inverse permutations of {1..m}, identity included."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    a, b = 1, 1  # counts for degrees k-2, k-1
    for k in range(2, m + 1):
        a, b = b, b + (k - 1) * a
    return b


# -- residue sets and gate values --------------------------------------
#
# All residues are normalized to {0..m-1}; sets are returned as sorted
# tuples so they are hashable and deterministic, and cached per (j, m).


@lru_cache(maxsize=None)
def e_set(m: int) -> tuple[int, ...]:
    """Square roots of 1 mod m: the legal values of x(t)/t for involutions."""
    return tuple(j for j in range(m) if (j * j) % m == 1 % m)


@lru_cache(maxsize=None)
def k_set(j: int, m: int) -> tuple[int, ...]:
    """u with u(j+1) = 0 mod m."""
    return tuple(u for u in range(m) if (u * (j + 1)) % m == 0)


def alpha(j: int, m: int) -> int:
    """gcd(j+1, m) = |k_set(j, m)|."""
    return gcd(j + 1, m)


def beta(j: int, m: int) -> int:
    """gcd(j-1, m): the fixed-point multiplicity attached to j."""
    return gcd(j - 1, m)


@lru_cache(maxsize=None)
def p_set(j: int, m: int) -> tuple[int, ...]:
    """Multiples q(j-1) mod m: the subgroup generated by beta(j, m)."""
    return tuple(range(0, m, beta(j, m)))


@lru_cache(maxsize=None)
def p_c_set(j: int, m: int) -> tuple[int, ...]:
    """k_set minus p_set (p_set always sits inside k_set)."""
    p = set(p_set(j, m))
    return tuple(u for u in k_set(j, m) if u not in p)


def ebar_set(j_sigma: int, n: int, t: int, s: int) -> tuple[int, ...]:
    """Values j' mod n/s over j_sigma + multiples of t/s that are square
    roots of 1 mod n/s: the possible x(s)/s compatible with a remainder
    permutation having sigma(s) = j_sigma * s."""
    ns = n // s
    ts = t // s
    legal = set(e_set(ns))
    seen = []
    for mb in range(1, n // t + 1):
        jp = (j_sigma + mb * ts) % ns
        if jp in legal and jp not in seen:
            seen.append(jp)
    return tuple(sorted(seen))


def k_prime_set(j: int, m: int) -> tuple[int, ...]:
    """u with (u+1)(j-1) = 0 mod m: the x(1) = 2u+1 giving non-involutions
    of stabilizer order 2 whose inverse still lies in the orbit."""
    return tuple(u for u in range(m) if ((u + 1) * (j - 1)) % m == 0)


def delta_bar(u: int, j: int, m: int) -> int:
    """1 iff j != 2u+1 mod m, i.e. the full-stabilizer case is excluded."""
    return 0 if (2 * u + 1) % m == j % m else 1


# -- the counting tower -------------------------------------------------


@dataclass
class CountContext:
    """Degree plus the memo store of the divisor-lattice sieve (every
    exact profile, keyed by its stabilized term and arguments) and of
    count_C's shift counts.

    Memoized values are written once and never mutated; use one context
    per thread, or share a finished one freely.
    """

    n: int
    memo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("degree must be positive")


@lru_cache(maxsize=None)
def _proper_divisors(t: int) -> tuple[int, ...]:
    return tuple(divisors(t)[:-1])


@lru_cache(maxsize=None)
def _pairings(k: int, l: int) -> int:
    """k! / ((k-2l)! 2^l l!): the ways to pick l disjoint transpositions
    among k points, the shape factor of every involution count."""
    return factorial(k) // (factorial(k - 2 * l) * 2**l * factorial(l))


def _check_t(ctx: CountContext, t: int) -> None:
    if t < 1 or ctx.n % t:
        raise ValueError(f"t={t} must divide n={ctx.n}")


def _exact(ctx: CountContext, stabilized, d: int, *args) -> list[int]:
    """The one sieve of the tower: of the objects stabilized by a^d,
    profiled by ``stabilized(ctx, d, *args)``, those of stabilizer exactly
    <a^d>.  Stabilized by a^d means stabilizer <a^e> for some e | d, so
    the exact profiles of the proper divisors e of d are subtracted,
    entry by entry.  Memoized in ctx.memo under (stabilized, d, *args)."""
    key = (stabilized, d, *args)
    value = ctx.memo.get(key)
    if value is None:
        value = stabilized(ctx, d, *args)
        for e in _proper_divisors(d):
            value = [a - b for a, b in zip(value, _exact(ctx, stabilized, e, *args))]
        ctx.memo[key] = value
    return value


def _fixed_point_terms(k: int, mr: int, p: int, pc: int, base: int) -> int:
    """Involutions built on a degree-k remainder involution with mr blocks
    of fixed points, summed over its number l of transpositions.

    Each transposed pair takes one of ``base`` shifts; of the k - 1 - 2l
    other fixed remainder points, mr - 1 carry a block of fixed points
    (one of p shifts each) and the rest carry none (one of pc each).
    With pc = 0 only the term leaving no point to the complement can be
    nonzero (0**0 == 1), so the sum starts at the largest l.
    """
    top = (k - mr) // 2
    total = 0
    for l in range(top if pc == 0 else 0, top + 1):
        total += (
            comb(k - 1 - 2 * l, mr - 1)
            * p ** (mr - 1)
            * pc ** (k - 2 * l - mr)
            * base**l
            * _pairings(k - 1, l)
        )
    return total


def _stabilized_M(ctx: CountContext, d: int) -> list[int]:
    # phi(n/d) choices of x(d) times the falling product of slot choices
    # for x(1)..x(d-1).
    m = ctx.n // d
    return [euler_phi(m) * m ** (d - 1) * factorial(d - 1)]


def count_M(ctx: CountContext, t: int) -> int:
    """|M_{n/t}|: permutations fixing n with stabilizer exactly <a^t>."""
    _check_t(ctx, t)
    return _exact(ctx, _stabilized_M, t)[0]


def _stabilized_T(ctx: CountContext, d: int) -> list[int]:
    # Square roots j of 1 mod n/d times remainder involutions with l
    # transpositions: fixed remainder points take alpha shifts each,
    # transposed pairs a free residue each.
    m = ctx.n // d
    return [
        sum(
            alpha(j, m) ** (d - 1 - 2 * l) * m**l * _pairings(d - 1, l)
            for j in e_set(m)
            for l in range((d - 1) // 2 + 1)
        )
    ]


def count_T(ctx: CountContext, t: int) -> int:
    """|T_{n/t}|: involutions with stabilizer exactly <a^t>."""
    _check_t(ctx, t)
    return _exact(ctx, _stabilized_T, t)[0]


def _stabilized_R(ctx: CountContext, d: int) -> list[int]:
    # Indexed by r = 0..n: the mr blocks of fixed points of a remainder
    # with x(d) = j*d give r = mr * beta(j, n/d) fixed points.
    m = ctx.n // d
    out = [0] * (ctx.n + 1)
    for j in e_set(m):
        b, p, pc = beta(j, m), len(p_set(j, m)), len(p_c_set(j, m))
        for mr in range(1, d + 1):
            out[mr * b] += _fixed_point_terms(d, mr, p, pc, m)
    return out


def count_R(ctx: CountContext, t: int, r: int) -> int:
    """|R_{n/t,r}|: involutions with stabilizer exactly <a^t> and exactly
    r fixed points, the point n included.  Zero when n - r is odd."""
    _check_t(ctx, t)
    if r < 1 or r > ctx.n or (ctx.n - r) % 2:
        return 0
    return _exact(ctx, _stabilized_R, t)[r]


def _coupled_shift_count(
    j_prime: int, j_sigma: int, n: int, t: int, s: int, complement: bool
) -> int:
    """Choices of the degree-s shift l_i at a fixed point of the degree-s
    remainder: l_i must satisfy the involution congruence
    l(1+j') = 0 mod n/s while its residue mod t/s lies in
    p_set(j_sigma, t/s) (or the complement).

    The residue and the shift are coupled by one congruence, so they are
    counted jointly; factoring the count as |p_set| times a set of u's
    overstates it whenever the compatible shifts differ between
    residues, and an empty compatible set must kill the term outright
    (0^k for k > 0) rather than be papered over by a placeholder 1.
    The congruence holds exactly on the gcd(1+j', n/s) multiples of
    g = (n/s) / gcd(1+j', n/s).  Their residues mod t/s repeat with
    period (t/s) / gcd(g, t/s), which divides their number (t/s divides
    n/s), so one period is scanned and scaled.
    """
    ns = n // s
    ts = t // s
    pool = set(p_c_set(j_sigma, ts) if complement else p_set(j_sigma, ts))
    g = ns // gcd(1 + j_prime, ns)
    period = ts // gcd(g, ts)
    return ns // g // period * sum(1 for k in range(period) if k * g % ts in pool)


def _shift_counts(ctx: CountContext, t: int, s: int, j_sigma: int) -> tuple:
    """(j', in_p, in_pc) for each j' in ebar_set(j_sigma, n, t, s): the
    part of count_C that does not depend on r or the gate, memoized."""
    key = ("C_shifts", t, s, j_sigma)
    if key not in ctx.memo:
        n = ctx.n
        ctx.memo[key] = tuple(
            (
                j_prime,
                _coupled_shift_count(j_prime, j_sigma, n, t, s, False),
                _coupled_shift_count(j_prime, j_sigma, n, t, s, True),
            )
            for j_prime in ebar_set(j_sigma, n, t, s)
        )
    return ctx.memo[key]


def _stabilized_C(ctx: CountContext, s: int, t: int, j_gate: int | None) -> list[int]:
    # Indexed by r = 0..t: mr fixed-point blocks of the degree-s remainder
    # with sigma(s) = j_sigma * s give r = mr * beta(j_sigma, t/s).
    ts, ns, nt = t // s, ctx.n // s, ctx.n // t
    out = [0] * (t + 1)
    for j_sigma in e_set(ts):
        b = beta(j_sigma, ts)
        for j_prime, in_p, in_pc in _shift_counts(ctx, t, s, j_sigma):
            if j_gate is None or (j_prime - j_gate) % nt == 0:
                for mr in range(1, s + 1):
                    out[mr * b] += _fixed_point_terms(s, mr, in_p, in_pc, ns)
    return out


def count_C(ctx: CountContext, t: int, s: int, r: int, j_gate: int | None = None) -> int:
    """|C_{n,t,s,r}|: the overcount term of the orbit-involution count.

    Counts involutions that a degree-t remainder with r fixed points
    would generate but whose stabilizer is exactly <a^s> for the proper
    divisor s of t.  With ``j_gate`` given, only those with
    x(t) = j_gate * t are kept (the per-j refinement); the sieve over
    the divisors of s carries the gate down unchanged.
    """
    _check_t(ctx, t)
    if s < 1 or t % s or s == t:
        raise ValueError(f"s={s} must be a proper divisor of t={t}")
    if r < 1 or r > t:
        return 0
    return _exact(ctx, _stabilized_C, s, t, j_gate)[r]


def count_X(ctx: CountContext, t: int, r: int) -> int:
    """|X_{n/t,r}|: involutions of stabilizer exactly <a^t> whose orbit
    contains exactly r involutions.  Zero when t - r is negative or odd.

    The top (s = t) of the overcount sieve: at s = t the remainder is
    trivial and the term sum collapses to sum_j alpha(j, n/t)^(r-1)
    (n/t)^h pairings(t-1, h), h = (t-r)/2, and the sieve takes the
    C_{n,t,s,r} of the proper divisors s off it.
    """
    _check_t(ctx, t)
    if r < 1 or t - r < 0 or (t - r) % 2:
        return 0
    return _exact(ctx, _stabilized_C, t, t, None)[r]


def count_O(ctx: CountContext, t: int, r: int) -> int:
    """|O_{n/t,r}|: orbits of length t containing exactly r involutions."""
    _check_t(ctx, t)
    if r:
        return _orbits(ctx, t, r, None)
    total = count_M(ctx, t)
    if total % t:
        raise ArithmeticError("M count not divisible by orbit length")
    return total // t - sum(count_O(ctx, t, rr) for rr in range(1, t + 1))


def count_O_j(ctx: CountContext, t: int, r: int, j: int) -> int:
    """|O_{n/t,r,j}|: orbits of length t, r involutions, and y(t) = j*t.

    Defined for 1 < t < n; the boundary dimensions have no j refinement
    (t = 1 orbits are singletons, t = n has a trivial character group).
    """
    _check_t(ctx, t)
    if not 1 < t < ctx.n:
        raise ValueError(f"per-j orbit counts need 1 < t < n, got t={t}")
    m = ctx.n // t
    if j % m not in e_set(m):
        raise ValueError(f"j={j} is not a square root of 1 mod {m}")
    return _orbits(ctx, t, r, j % m)


def _orbits(ctx: CountContext, t: int, r: int, j_gate: int | None) -> int:
    # |O_{n/t,r}|, or |O_{n/t,r,j}| with a gate j, for every t | n and r,
    # arguments unchecked: r times it is the top (s = t) of the C sieve,
    # X_{n/t,r} without a gate.
    if r < 1 or t - r < 0 or (t - r) % 2:
        return 0
    total = _exact(ctx, _stabilized_C, t, t, j_gate)[r]
    if total % r:
        raise ArithmeticError(f"r*O count {total} not divisible by r={r}")
    return total // r


def count_I_odd(ctx: CountContext, t: int) -> tuple[int, int]:
    """(plus, zero): indicator census for the odd dimension t.

    Odd-dimensional modules never have indicator -1; the +1 entries come
    exactly from orbits containing an involution, each orbit member
    contributing alpha(j, n/t) characters.  Census convention is
    per (permutation, character): totals add up to (n/t) * |M_{n/t}|.
    """
    if t % 2 == 0:
        raise ValueError(f"dimension t={t} must be odd")
    _check_t(ctx, t)
    m = ctx.n // t
    plus = t * sum(
        alpha(j, m) * _orbits(ctx, t, r, j)
        for j in e_set(m)
        for r in range(1, t + 1)
    )
    zero = m * count_M(ctx, t) - plus
    return plus, zero


def count_I_t2(ctx: CountContext) -> tuple[int, int, int]:
    """(plus, minus, zero): indicator census for dimension 2, n even.

    A permutation of stabilizer order 2 is pinned by x(2) = 2j and
    x(1) = 2u+1.  Involutions (u(j+1) = 0) contribute alpha(j, n/2)
    characters of indicator +1 each; non-involutions whose inverse sits
    in the orbit ((u+1)(j-1) = 0) split their alpha nonzero characters
    by i(u+1) = 0 into +1 versus -1.  Residues u with j = 2u+1 are full
    stabilizer and excluded.  The enumeration of u covers both members
    of every orbit, so the totals are already per (permutation,
    character).
    """
    n = ctx.n
    if n % 2:
        raise ValueError(f"dimension-2 census needs even n, got {n}")
    m = n // 2
    plus = minus = 0
    for j in e_set(m):
        a = alpha(j, m)
        k = k_set(j, m)
        plus += a * sum(delta_bar(u, j, m) for u in k_set(j, m))
        for u in k_prime_set(j, m):
            if not delta_bar(u, j, m):
                continue
            for i in k:
                ki = (i * (u + 1)) % m
                if ki == 0:
                    plus += 1
                elif (2 * ki) % m == 0:
                    minus += 1
                else:
                    raise ArithmeticError(
                        f"i*(u+1) = {ki} mod {m} escaped {{0, m/2}}"
                    )
    zero = m * count_M(ctx, 2) - plus - minus
    return plus, minus, zero


# -- asymptotic trend report -------------------------------------------


def ratio_report(t: int, m_values) -> list[dict]:
    """Empirical sparsity trends for dimension t across n = m*t.

    For each m, reports the fraction of dimension-t census entries with
    nonzero indicator, the involution share |T|/|M|, the stabilizer
    share |M|/i_{n-1}, and the analytic bound data (root-of-1 count
    against 2^(omega+2), omega against 1.3841 log m / log log m, phi
    against sqrt(m/2)).  Supported for odd t and t = 2, where censuses
    have closed forms.  Rows with an empty census (|M| = 0) are skipped.
    """
    if t != 2 and t % 2 == 0:
        raise ValueError("trend report needs odd t or t = 2")
    rows = []
    # i_(n-1) from one running recurrence, (k, a, b) = (k, i_(k-1), i_k):
    # the degrees ascend with m in every caller, and a smaller one
    # restarts it from k = 1.
    k, a, b = 1, 1, 1
    for m in m_values:
        if m < 2:
            raise ValueError("m must be at least 2")
        n = m * t
        if n - 1 < k:
            k, a, b = 1, 1, 1
        for k in range(k + 1, n):
            a, b = b, b + (k - 1) * a
        ctx = CountContext(n)
        m_count = count_M(ctx, t)
        if m_count == 0:
            continue
        total = (n // t) * m_count
        if t == 2:
            plus, minus, _zero = count_I_t2(ctx)
        else:
            plus, _zero = count_I_odd(ctx, t)
            minus = 0
        t_count = count_T(ctx, t)
        e_size = len(e_set(n // t))
        rows.append(
            {
                "m": m,
                "n": n,
                "plus": plus,
                "minus": minus,
                "total": total,
                "ratio_nonzero": Fraction(plus + minus, total),
                "t_over_m": Fraction(t_count, m_count),
                "m_over_inv": Fraction(m_count, b),
                "e_size": e_size,
                "e_bound": 2 ** (omega(n // t) + 2),
                "omega": omega(m),
                "omega_bound": (
                    1.3841 * math.log(m) / math.log(math.log(m)) if m >= 3 else None
                ),
                "phi": euler_phi(m),
                "phi_bound": math.sqrt(m / 2),
            }
        )
    return rows
