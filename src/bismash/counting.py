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
``_exact``.  Stabilized by a^d means stabilizer <a^e> for some e | d, so
by Moebius inversion the exact count at d is the signed sum
sum mu(d/e) * stabilized(e) over the e | d with d/e squarefree.  Each
count only supplies its "stabilized by a^d" term, as a profile: a list
indexed by r (fixed points for R, involutions per orbit for C), filled
only at r = blocks * beta for each j and number of fixed-point blocks.
The sieve adds profiles entry by entry, so one pass per (quantity, d)
answers every r; M and T are one-entry profiles.  The C terms are
profiled once per (s, t) for every gate at once, by the class of
x(t)/t mod n/t, and X and r*O_j are the top (s = t) of that sieve.
R, X, O and O_j are served as r-indexed profiles, one per t (per
(t, j) for O_j) with their zero rules applied; the per-r counts and
the CLI's row groups read the same lists.
Each stabilized term, each exact profile and each fixed-point profile
is built once per CountContext and shared by every quantity and gate
that reads it.  All arithmetic is exact arbitrary-width integer
arithmetic ((n-1)! overflows 64 bits already at n = 22).  The residue
sets depend on (j, m) alone and are cached for the process; everything
that depends on n stays in the per-degree CountContext.  The package's
elementary number theory (divisors, prime_factors, units, euler_phi,
omega) lives here too, so ``count`` needs no other layer.

Every count here has an independent enumeration oracle in the
construction layer, and the test suite holds the two equal on all
parameters up to degree 12.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb, factorial, gcd, lcm

__all__ = [
    "divisors",
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
    "profile_R",
    "count_C",
    "count_X",
    "profile_X",
    "count_O",
    "profile_O",
    "count_O_j",
    "profile_O_j",
    "profile_at",
    "count_I_odd",
    "count_I_t2",
    "ratio_report",
]


# -- elementary number theory -----------------------------------------


def divisors(m: int) -> list[int]:
    """Positive divisors of m in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


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
    permutation having sigma(s) = j_sigma * s.  Those multiples run over
    every residue mod n/s that is j_sigma mod t/s (t/s divides n/s), so
    these are the members of e_set(n/s) congruent to j_sigma mod t/s."""
    ts = t // s
    return tuple(j for j in e_set(n // s) if (j - j_sigma) % ts == 0)


def k_prime_set(j: int, m: int) -> tuple[int, ...]:
    """u with (u+1)(j-1) = 0 mod m: the x(1) = 2u+1 giving non-involutions
    of stabilizer order 2 whose inverse still lies in the orbit."""
    return tuple(u for u in range(m) if ((u + 1) * (j - 1)) % m == 0)


def delta_bar(u: int, j: int, m: int) -> int:
    """1 iff j != 2u+1 mod m, i.e. the full-stabilizer case is excluded."""
    return 0 if (2 * u + 1) % m == j % m else 1


# -- the counting tower -------------------------------------------------


class CountContext:
    """Degree plus the memo store of the counting tower.  ``memo`` holds
    the sieve's stabilized terms, keyed (stabilized, d, *args), and exact
    profiles, keyed (_exact, stabilized, d, *args); the fixed-point
    profiles, keyed (_fixed_point_profile, k, p, pc, base); count_C's
    shift counts, keyed ("C_shifts", t, s, j_sigma); the exact C
    profiles summed over the gate classes, keyed (_overcount, s, t); and
    the r-indexed profiles the per-r counts read, keyed (profile_R, t),
    (profile_X, t) and (_orbit_profile, t, j_gate).

    Memoized values are written once and never mutated; use one context
    per thread, or share a finished one freely.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("degree must be positive")
        self.n = n
        self.memo = {}


@lru_cache(maxsize=None)
def _pairings(k: int, l: int) -> int:
    """k! / ((k-2l)! 2^l l!): the ways to pick l disjoint transpositions
    among k points, the shape factor of every involution count."""
    return factorial(k) // (factorial(k - 2 * l) * 2**l * factorial(l))


def _check_t(ctx: CountContext, t: int) -> None:
    if t < 1 or ctx.n % t:
        raise ValueError(f"t={t} must divide n={ctx.n}")


def _moebius_terms(d: int) -> list[tuple[int, int]]:
    """(e, mu(d/e)) for the divisors e of d with d/e squarefree."""
    out = [(d, 1)]
    for p in prime_factors(d):
        out += [(e // p, -mu) for e, mu in out]
    return out


def _exact(ctx: CountContext, stabilized, d: int, *args) -> list[int]:
    """The one sieve of the tower: of the objects stabilized by a^d,
    profiled by ``stabilized(ctx, d, *args)``, those of stabilizer exactly
    <a^d>.  Stabilized by a^d means stabilizer <a^e> for some e | d, so
    by Moebius inversion the exact profile is the entry-by-entry sum of
    mu(d/e) * stabilized(ctx, e, *args) over the e | d with d/e
    squarefree; the e with mu(d/e) = 0 are never built.  Both the
    stabilized terms, under (stabilized, e, *args), and the exact
    profile, under (_exact, stabilized, d, *args), are memoized in
    ctx.memo, so a term serves every d above it."""
    key = (_exact, stabilized, d, *args)
    value = ctx.memo.get(key)
    if value is None:
        for e, mu in _moebius_terms(d):
            term_key = (stabilized, e, *args)
            term = ctx.memo.get(term_key)
            if term is None:
                term = ctx.memo[term_key] = stabilized(ctx, e, *args)
            if value is None:
                value = list(term)
            elif mu > 0:
                value = [a + b for a, b in zip(value, term)]
            else:
                value = [a - b for a, b in zip(value, term)]
        ctx.memo[key] = value
    return value


def _fixed_point_profile(ctx: CountContext, k: int, p: int, pc: int, base: int) -> list[int]:
    """Involutions built on a degree-k remainder involution with mr blocks
    of fixed points, summed over its number l of transpositions, as a
    list over mr = 1..k (entry mr - 1).  Memoized in ctx.memo.

    Each transposed pair takes one of ``base`` shifts; of the
    q = k - 1 - 2l other fixed remainder points, mr - 1 carry a block of
    fixed points (one of p shifts each) and the rest carry none (one of
    pc each): comb(q, mr - 1) p^(mr-1) pc^(q-mr+1) base^l pairings(k-1, l).
    A zero p or pc leaves one term per l (0**0 == 1).
    """
    key = (_fixed_point_profile, k, p, pc, base)
    out = ctx.memo.get(key)
    if out is None:
        out = [0] * k
        if pc:
            p_pow, pc_pow = [1] * k, [1] * k
            for i in range(1, k):
                p_pow[i] = p_pow[i - 1] * p
                pc_pow[i] = pc_pow[i - 1] * pc
        weight = 1  # base**l
        for l in range((k - 1) // 2 + 1):
            q = k - 1 - 2 * l
            w = weight * _pairings(k - 1, l)
            if pc:
                for i in range(q + 1 if p else 1):
                    out[i] += comb(q, i) * p_pow[i] * pc_pow[q - i] * w
            else:  # every other point carries a block: mr = q + 1
                out[q] = p**q * w
            weight *= base
        ctx.memo[key] = out
    return out


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
        for mr, term in enumerate(_fixed_point_profile(ctx, d, p, pc, m), 1):
            out[mr * b] += term
    return out


def profile_R(ctx: CountContext, t: int) -> list[int]:
    """|R_{n/t,r}| for r = 0..n: involutions with stabilizer exactly
    <a^t> and exactly r fixed points, the point n included.  Zero at
    r = 0 and where n - r is odd.  Memoized in ctx.memo."""
    _check_t(ctx, t)
    return _memoized(
        ctx, (profile_R, t), lambda: _involutive(_exact(ctx, _stabilized_R, t), ctx.n)
    )


def count_R(ctx: CountContext, t: int, r: int) -> int:
    """|R_{n/t,r}|: entry r of ``profile_R``, zero outside 1..n."""
    return profile_at(profile_R(ctx, t), r)


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
    g = (n/s) / gcd(1+j', n/s).  Their residues mod t/s are the
    multiples of h = gcd(g, t/s), each hit (n/s)/g/((t/s)/h) times (t/s
    divides n/s).  The pool is the multiples of beta = beta(j_sigma, t/s)
    (p_set), or those of (t/s)/alpha(j_sigma, t/s) (k_set) less p_set,
    and the multiples of h among the multiples of a divisor c of t/s are
    the (t/s)/lcm(c, h) multiples of lcm(c, h).
    """
    ns = n // s
    ts = t // s
    g = ns // gcd(1 + j_prime, ns)
    h = gcd(g, ts)
    hits = ts // lcm(beta(j_sigma, ts), h)
    if complement:
        hits = ts // lcm(ts // alpha(j_sigma, ts), h) - hits
    return ns // g // (ts // h) * hits


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


def _stabilized_C(ctx: CountContext, s: int, t: int) -> list[int]:
    # Indexed by c * (t+1) + r, one block of t+1 per gate class: c is the
    # position in e_set(n/t) of x(t)/t = j' mod n/t (j' is a square root
    # of 1 mod n/s, so j' mod n/t is one mod n/t), and mr fixed-point
    # blocks of the degree-s remainder with sigma(s) = j_sigma * s give
    # r = mr * beta(j_sigma, t/s).
    ts, ns, nt = t // s, ctx.n // s, ctx.n // t
    classes = e_set(nt)
    out = [0] * (len(classes) * (t + 1))
    for j_sigma in e_set(ts):
        b = beta(j_sigma, ts)
        for j_prime, in_p, in_pc in _shift_counts(ctx, t, s, j_sigma):
            at = classes.index(j_prime % nt) * (t + 1)
            for mr, term in enumerate(_fixed_point_profile(ctx, s, in_p, in_pc, ns), 1):
                out[at + mr * b] += term
    return out


def _overcount(ctx: CountContext, s: int, t: int, j_gate: int | None) -> list[int]:
    """The exact C profile at (s, t), indexed by r = 0..t, s = t the top:
    summed over the gate classes, or only x(t) = j_gate * t.  A gate is
    read mod n/t, so j_gate and j_gate + n/t agree, and one that is not
    a square root of 1 mod n/t reads zeros.  One sieve per (s, t) serves
    every gate; the ungated sum is memoized in ctx.memo."""
    flat = _exact(ctx, _stabilized_C, s, t)
    width, nt = t + 1, ctx.n // t
    if j_gate is None:
        key = (_overcount, s, t)
        total = ctx.memo.get(key)
        if total is None:
            total = ctx.memo[key] = [sum(flat[r::width]) for r in range(width)]
        return total
    classes = e_set(nt)
    if j_gate % nt not in classes:
        return [0] * width
    at = classes.index(j_gate % nt) * width
    return flat[at : at + width]


def count_C(ctx: CountContext, t: int, s: int, r: int, j_gate: int | None = None) -> int:
    """|C_{n,t,s,r}|: the overcount term of the orbit-involution count.

    Counts involutions that a degree-t remainder with r fixed points
    would generate but whose stabilizer is exactly <a^s> for the proper
    divisor s of t.  With ``j_gate`` given, only those with
    x(t) = j_gate * t are kept (the per-j refinement), the gate read
    mod n/t; the sieve over the divisors of s carries the gate down
    unchanged.
    """
    _check_t(ctx, t)
    if s < 1 or t % s or s == t:
        raise ValueError(f"s={s} must be a proper divisor of t={t}")
    if r < 1 or r > t:
        return 0
    return _overcount(ctx, s, t, j_gate)[r]


def profile_X(ctx: CountContext, t: int) -> list[int]:
    """|X_{n/t,r}| for r = 0..t: involutions of stabilizer exactly <a^t>
    whose orbit contains exactly r involutions.  Zero at r = 0 and where
    t - r is odd.  Memoized in ctx.memo.

    The top (s = t) of the overcount sieve: at s = t the remainder is
    trivial and the term sum collapses to sum_j alpha(j, n/t)^(r-1)
    (n/t)^h pairings(t-1, h), h = (t-r)/2, and the sieve takes the
    C_{n,t,s,r} of the proper divisors s off it.
    """
    _check_t(ctx, t)
    return _memoized(ctx, (profile_X, t), lambda: _involutive(_overcount(ctx, t, t, None), t))


def count_X(ctx: CountContext, t: int, r: int) -> int:
    """|X_{n/t,r}|: entry r of ``profile_X``, zero outside 1..t."""
    return profile_at(profile_X(ctx, t), r)


def profile_O(ctx: CountContext, t: int) -> list[int]:
    """|O_{n/t,r}| for r = 0..t: orbits of length t containing exactly
    r involutions.  Memoized in ctx.memo."""
    _check_t(ctx, t)
    return _orbit_profile(ctx, t, None)


def count_O(ctx: CountContext, t: int, r: int) -> int:
    """|O_{n/t,r}|: entry r of ``profile_O``, zero outside 0..t."""
    return profile_at(profile_O(ctx, t), r)


def profile_O_j(ctx: CountContext, t: int, j: int) -> list[int]:
    """|O_{n/t,r,j}| for r = 0..t: orbits of length t, r involutions,
    and y(t) = j*t.  Zero at r = 0.  Memoized in ctx.memo.

    Defined for 1 < t < n; the boundary dimensions have no j refinement
    (t = 1 orbits are singletons, t = n has a trivial character group).
    """
    _check_t(ctx, t)
    if not 1 < t < ctx.n:
        raise ValueError(f"per-j orbit counts need 1 < t < n, got t={t}")
    m = ctx.n // t
    if j % m not in e_set(m):
        raise ValueError(f"j={j} is not a square root of 1 mod {m}")
    return _orbit_profile(ctx, t, j % m)


def count_O_j(ctx: CountContext, t: int, r: int, j: int) -> int:
    """|O_{n/t,r,j}|: entry r of ``profile_O_j``, zero outside 1..t."""
    return profile_at(profile_O_j(ctx, t, j), r)


def profile_at(profile: list[int], r: int) -> int:
    """Entry r of an r-indexed profile; zero past either end, where no
    object has r."""
    return profile[r] if 0 <= r < len(profile) else 0


def _memoized(ctx: CountContext, key: tuple, build):
    value = ctx.memo.get(key)
    if value is None:
        value = ctx.memo[key] = build()
    return value


def _involutive(profile: list[int], total: int) -> list[int]:
    # A copy of an r-indexed profile of involutions on ``total`` points
    # (or with ``total`` orbit members), zero where r = 0 or total - r is
    # odd: an involution moves its points in pairs.
    return [v if r and (total - r) % 2 == 0 else 0 for r, v in enumerate(profile)]


def _orbit_profile(ctx: CountContext, t: int, j_gate: int | None) -> list[int]:
    # |O_{n/t,r}|, or |O_{n/t,r,j}| with a gate j, over r = 0..t,
    # arguments unchecked: r times entry r >= 1 is the top (s = t) of the
    # C sieve, X_{n/t,r} without a gate.  Ungated, entry 0 is the rest of
    # the M_{n/t}/t orbits; gated, it stays zero.
    def build() -> list[int]:
        prof = _involutive(_overcount(ctx, t, t, j_gate), t)
        for r in range(1, t + 1):
            if prof[r] % r:
                raise ArithmeticError(f"r*O count {prof[r]} not divisible by r={r}")
            prof[r] //= r
        if j_gate is None:
            total = count_M(ctx, t)
            if total % t:
                raise ArithmeticError("M count not divisible by orbit length")
            prof[0] = total // t - sum(prof)
        return prof

    return _memoized(ctx, (_orbit_profile, t, j_gate), build)


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
    plus = t * sum(alpha(j, m) * sum(_orbit_profile(ctx, t, j)) for j in e_set(m))
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
    from fractions import Fraction

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
