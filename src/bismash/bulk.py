"""Vectorized batch engine for indicator sweeps and censuses.

Rows are residue words stored as numpy arrays of shape (N, n): column u
holds x(u) mod n, column 0 is identically 0 (the fixed top point).  All
the scalar operations of the package (shift action, stabilizer order,
inverse, smallest inverting shift, both indicator routes) have
array-level counterparts here.  The seeded strata -- the rows stabilized
by a^t, those of stabilizer exactly <a^t>, and the involution stratum
among them -- come from one block expander over seed groups (j, sigmas,
U), every sigma with every u: for the a^t-stabilized rows, whole sigma
blocks of one unit j at a time, and one group per (j, sigma) for the
involutions, whose u depend on sigma.  At t = n the a^t-stabilized rows
are all of S_{n-1}, listed as lexicographic prefixes times one cached
table of the last min(n-1, 8) positions.  Every listing, the full sweep
included, passes one gate first: the workload guard on its stratum's
candidate count (``_stratum``), which refuses a stratum over the limit
before any row is built.  One stream, ``rep_chunks``, lists the
a^t-stabilized rows in windows of at most ``_CHUNK`` rows and keeps the
smallest member of each orbit of order t: the scan of the shifts
x <| a^l that finds it also reads off its exact stabilizer order, so no
exactness pass precedes it.  The stream lists candidates, not the
whole stratum, by the column-1 lemma: column 1 of x <| a^l is
d(l) = x(l+1) - x(l) mod n, so an orbit's smallest member has
x(1) <= d(l) for every l, the closing d(n-1) = -x(n-1) included.  For
t < n, d is t-periodic, so the test reads the first period of the seed
only, and each seed group writes just the rows that pass: 18.7% of the
stratum at (36, 6) (349,705 of 1,866,240 rows).  At t = n, rows with
x(1) = 1 all pass, and those with x(1) >= 2 come from a pruned
expansion; 14.0% of S_11 passes (5,593,455 of 39,916,800 rows at
n = 12).  The lemma is the first letter of the difference word
D(u) = x(u+1) - x(u) mod n, u = 0..n-1 (D(n-1) = -x(n-1)): under
x <| a^l it rotates by l, D'(u) = D(u+l), so an orbit is a necklace of
difference words, and the word of its smallest member starts with the
necklace's least letter, x(1) = D(0).  The census, the indicator
tables and the full sweep over S_{n-1} (split over every t at once)
all read that stream's windows, so the rows they list are bounded by
the window size.  The census reads them in place: each window's
representatives are moved to its front, so it holds one window of kept
rows, and its temporaries (the window's one lift of residue parts, the
scan's masks, the inverting search in the row type) are sized by that
window's rows; ``rep_chunks`` hands out copies.
The scan and the exactness filter compare shifted rows through one
lexicographic comparison: column 1, then column 2, then whole rows on
ties.  The search for the inverting shift of the reduced route tests an
equality, x o (x <| a^l) = 1, so it builds no inverse: it reads the last
column of the composition, then the one before it, then whole rows on
ties, a bounded block at a time.  Residue differences a - b mod n wrap
by adding n under a sign mask, in their own dtype, never by integer %.
The brute-force oracle works from one inverse per row, built a block
of rows at a time: the inverse of every orbit member x <| a^l is a
column rotation of x^{-1}, and the shift is an action, so the
transporter columns of member l are those of x itself, shifted by l.
One search per row finds the shifts c with x^{-1} <| a^c = x, its keys
the first ``_KEY_COLS`` letters of the difference words of
x^{-1} <| a^c, compared with those of x, and then the rest; each
is expanded to the t pairs (l, c + l mod n), and every pair is compared
with its member in full before it is counted.  The same pairs give the
involutions: a member y is one exactly when y^{-1} <| a^0 = y, that is,
when its transporter set contains b = 0.  Nothing here is
approximate: the work is integer array arithmetic, and the brute-force
route reduces its root-of-unity sums through the same integer
cyclotomic basis matrices as the scalar oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .counting import (
    CountContext,
    _stabilized_M,
    _stabilized_T,
    divisors,
    e_set,
    k_set,
    prime_factors,
    units,
)
from .cyclotomic import power_basis_rows
from .guard import WorkloadExceeded, default_max_work

__all__ = [
    "WorkloadExceeded",
    "default_max_work",
    "perm_block",
    "canonical_orders",
    "shift_rows",
    "inverse_rows",
    "inversion_rows",
    "reduced_indicator_rows",
    "transporter_classes",
    "bruteforce_indicator_rows",
    "stabilized_rows",
    "exact_stabilizer_rows",
    "exact_involution_rows",
    "rep_chunks",
    "census_by_dimension",
    "sweep",
    "SweepResult",
]


def _dtype(n: int):
    # The row type holds the modulus n too: NumPy rejects `int16 % 32768`.
    if n > 32767:
        raise ValueError(f"degree n={n} exceeds the row-width limit n <= 32767")
    return np.int8 if n <= 120 else np.int16


# Length of the suffix listed by the precomputed table: 8! rows of
# 8 columns, small enough to stay in cache while it is gathered.
_SUFFIX = 8

# The one window size: the a^t-stabilized rows are listed at most this
# many at a time (``_windows``).  At t = n it is a multiple of the suffix
# table's 8! rows, so no window splits a table block.  Between
# 2**18 and 2M rows the window hardly moves the time of sweep(10) and
# sweep(11); at this size sweep(12) peaks at 65 MB RSS (2-core VM), and
# it took 210 MB with 2M-row windows when the routes ran on whole windows.
_CHUNK = 16 * math.factorial(_SUFFIX)

# The pruned expansion of the t = n candidates grows a level at most
# this many nodes at a time: the levels it holds stay about 4 MB at
# n = 12, and larger slices were no faster.
_SLICE = 1 << 14

# The oracle compares every shift of x^{-1} with x on codes of this many
# letters of their difference words first, in blocks of _BLOCK rows: a
# block's inverse, its (rows, n) codes and comparison mask, and the t
# pairs expanded from each match, stay a few MB whatever the input's
# size.  The sweep runs both routes on one block of a window at a time,
# so its temporaries are sized by _BLOCK, not by the window.
_KEY_COLS = 3
_BLOCK = 1 << 16


@lru_cache(maxsize=None)
def _suffix_table(s: int) -> np.ndarray:
    # The s! permutations of range(s), in lexicographic order.
    table = np.array(list(permutations(range(s))), dtype=np.intp)
    table.flags.writeable = False
    return table


def perm_block(n: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the lexicographic listing of S_{n-1}.

    Row r is the r-th word (x(1), ..., x(n-1)) over symbols {1..n-1}.
    With s = min(n-1, 8) the listing falls into blocks of s! rows that
    share their first n-1-s symbols (the prefix).  Each prefix is decoded
    from its block index with Python integers, so windows past 2**63
    work as well; its block is the remaining symbols, sorted, gathered
    through the cached table of the s! permutations of range(s).
    Raises ValueError unless 0 <= start <= stop <= (n-1)!.
    """
    k = n - 1
    total = math.factorial(k)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"window [{start}, {stop}) outside [0, {total}] for n={n}")
    s = min(k, _SUFFIX)
    table = _suffix_table(s)
    size = len(table)
    out = np.zeros((stop - start, n), dtype=_dtype(n))
    for q in range(start // size, -(-stop // size)):
        # Block q, read in mixed radix (k, k-1, ..., s+1), picks the prefix.
        free = list(range(1, n))
        prefix = []
        rem = q
        for col in range(k - s):
            i, rem = divmod(rem, math.factorial(k - 1 - col) // size)
            prefix.append(free.pop(i))
        lo, hi = max(start, q * size), min(stop, (q + 1) * size)
        rows = slice(lo - start, hi - start)
        out[rows, 1 : 1 + k - s] = prefix
        out[rows, 1 + k - s :] = np.array(free, dtype=out.dtype)[
            table[lo - q * size : hi - q * size]
        ]
    return out


def _wrap(d: np.ndarray, n: int) -> np.ndarray:
    # d mod n, in place, for a difference d = a - b of residues in [0, n)
    # (so -n < d < n) in a signed dtype: n is added where d < 0.  The sign
    # mask d >> (bits - 1) is -1 there and 0 elsewhere, so mask & n is the
    # n to add, in one temporary of d's dtype.  Integer % costs about 30
    # times as much on int8 rows.
    wrap = d >> (8 * d.itemsize - 1)
    wrap &= n
    d += wrap
    return d


def shift_rows(X: np.ndarray, l: int) -> np.ndarray:
    """Row-wise x <| a^l: (x <| a^l)(u) = x(u+l) - x(l) mod n."""
    n = X.shape[1]
    cols = (np.arange(n) + l) % n
    return _wrap(X[:, cols] - X[:, [l % n]], n)


def _shift_cmp(X: np.ndarray, l: int) -> np.ndarray:
    # Per row: the sign of x <| a^l - x in lexicographic order.  Column 0
    # is 0 on both sides, so column 1, x(l+1) - x(l) against x(1), decides
    # unless it ties; then column 2, x(l+2) - x(l) against x(2), unless it
    # ties too; only rows tied on both are compared in full, at their
    # first differing column.
    n = X.shape[1]
    out = np.sign(_wrap(X[:, (l + 1) % n] - X[:, l % n], n) - X[:, 1])
    tie = np.flatnonzero(out == 0)
    if n > 2 and len(tie):
        out[tie] = np.sign(_wrap(X[tie, (l + 2) % n] - X[tie, l % n], n) - X[tie, 2])
        tie = tie[out[tie] == 0]
    if len(tie):
        A, B = shift_rows(X[tie], l), X[tie]
        first = np.argmax(A != B, axis=1)
        k = np.arange(len(tie))
        out[tie] = np.sign(A[k, first] - B[k, first])
    return out


def canonical_orders(X: np.ndarray, t: int | None = None) -> np.ndarray:
    """Per row: its stabilizer order if the row is the lexicographically
    smallest member of its orbit, else 0.  The rows must be stabilized by
    a^t (t = n, every row, by default).

    One scan compares x with x <| a^l for l = 1, ..., t-1: a row drops out
    (0) at the first shift that is smaller, and the first shift equal to
    it is its order s, since x <| a^l = x iff s | l and the orbit's s
    members are x <| a^l for l < s.  A row of order s < t ties at
    l = s <= t-1, so a row left after l = t-1 has every one of its t-1
    shifts larger: it is the smallest member of an orbit of order t, and
    is given t without the l = t comparison, which every a^t-stabilized
    row would tie.  Every l compares the whole window by column slices,
    with the rows left as a mask: on column-1 candidates column 1 is never
    smaller, so only ties drop rows, and few do (at n = 11 the 362,880
    rows with x(1) = 1 still hold 219,466 after l = 10); gathering the
    rows left would cost more than scanning them all.
    """
    t = X.shape[1] if t is None else t
    orders = np.zeros(len(X), dtype=np.int16)
    left = np.ones(len(X), dtype=bool)
    for l in range(1, t):
        if not left.any():
            break
        c = _shift_cmp(X, l)
        orders[left & (c == 0)] = l
        left &= c > 0
    orders[left] = t
    return orders


def inverse_rows(X: np.ndarray) -> np.ndarray:
    N, n = X.shape
    out = np.empty((N, n), dtype=X.dtype)
    flat, base = out.ravel(), np.arange(0, N * n, n)
    for u in range(n):
        flat[base + X[:, u]] = u
    return out


def _inverting_hits(X: np.ndarray, l: int) -> np.ndarray:
    # The rows with x <| a^l = x^{-1}, tested as x((x <| a^l)(u)) = u for
    # every u.  An equality may start from any column: the last, u = n-1,
    # then u = n-2 on its ties, each read through one flat gather
    # x(y) = X.ravel()[base + y]; only rows that pass both are composed
    # in full, in blocks of at most _BLOCK entries, so the index matrix of
    # the composition stays bounded however many rows tie.  The last
    # columns also avoid the ties of the first ones: at l = n the test is
    # x = x^{-1}, which every row with x(1), x(2) = 1, 2 passes on
    # columns 1 and 2.
    N, n = X.shape
    flat, base = X.ravel(), np.arange(0, N * n, n)
    xl = X[:, l % n]
    hit = np.flatnonzero(flat[base + _wrap(X[:, (l - 1) % n] - xl, n)] == n - 1)
    if n > 2:
        y = _wrap(X[hit, (l - 2) % n] - xl[hit], n)
        hit = hit[flat[base[hit] + y] == n - 2]
    whole = np.empty(len(hit), dtype=bool)
    step = max(1, _BLOCK // n)
    for lo in range(0, len(hit), step):
        h = hit[lo : lo + step]
        y = shift_rows(X[h], l)
        whole[lo : lo + step] = (flat[base[h, None] + y] == np.arange(n)).all(axis=1)
    return hit[whole]


def inversion_rows(X: np.ndarray, t: int):
    """(in_orbit, s, u1, u2) per row; all rows must have stabilizer order t.

    s is the shift l in 1..t with x <| a^l = x^{-1}, found without building
    x^{-1}: the composition x o (x <| a^l) is compared with the identity
    on its last column, then on the one before it, and only rows that
    match on both are composed in full.  s and u2 are 0 on rows whose
    inverse is outside the orbit (u2 is unused there).  u1 and u2 come in
    the row type: u1 and the multiple-of-t check on x(t) are read through
    n-entry tables indexed by x(t), and u2 is computed on the found rows
    only.
    """
    n = X.shape[1]
    m = n // t
    points = np.arange(n)
    xt = X[:, t % n]
    if (points % t != 0)[xt].any():
        raise AssertionError("x(t) not a multiple of t; wrong t for these rows")
    u1 = (((points + t) // t) % m).astype(X.dtype)[xt]
    s = np.zeros(len(X), dtype=np.int16)
    for l in range(1, t + 1):
        hits = _inverting_hits(X, l)
        # x <| a^l = x^{-1} = x <| a^l' gives x <| a^(l-l') = x, so a row
        # of order t inverts at one l in 1..t at most.
        if s[hits].any():
            raise AssertionError("x <| a^l = x^{-1} at two shifts l in 1..t; wrong t for these rows")
        s[hits] = l
    found = s > 0
    f = np.flatnonzero(found)
    vals = X[f, s[f] % n].astype(np.intp) + s[f]
    if (vals % t).any():
        raise AssertionError("x(s)+s not a multiple of t")
    u2 = np.zeros(len(X), dtype=X.dtype)
    u2[f] = (vals // t) % m
    return found, s, u1, u2


def reduced_indicator_rows(X: np.ndarray, t: int) -> np.ndarray:
    """(N, n/t) matrix of indicators via the congruence conditions."""
    n = X.shape[1]
    m = n // t
    found, _s, u1, u2 = inversion_rows(X, t)
    # All characters i at once: (x, i) is nonzero where i*u1 = 0 mod m,
    # and there 2*i*u2 = 0 mod m, so the sign is +1 where i*u2 = 0 and -1
    # where i*u2 = m/2 (odd m leaves only +1).  Row u of one (m, m) table
    # holds i*u mod m for every i, gathered by u1 and u2 only for the rows
    # whose inverse lies in the orbit, the only rows that can be nonzero.
    table = np.outer(np.arange(m), np.arange(m)) % m
    f = np.flatnonzero(found)
    nz = table[u1[f]] == 0
    k = table[u2[f]]
    if ((2 * k[nz]) % m).any():
        raise ArithmeticError("i*u2 escaped {0, m/2} although i*u1 = 0")
    signs = nz.astype(np.int8)
    signs[nz & (k != 0)] = -1
    out = np.zeros((len(X), m), dtype=np.int8)
    out[f] = signs
    return out


def _difference_codes(A: np.ndarray, n: int, dtype, width: int) -> np.ndarray:
    # Per column c < width, the consecutive differences D[c+j] =
    # A(c+j+1) - A(c+j) mod n for j < _KEY_COLS, packed base n into one
    # integer of `dtype`.  The differences stay in the row type; only the
    # packed (rows, width) code is widened, and it is built in place.
    ext = A[:, np.arange(width + _KEY_COLS) % n]
    D = _wrap(ext[:, 1:] - ext[:, :-1], n)
    del ext
    code = D[:, :width].astype(dtype)
    for j in range(1, _KEY_COLS):
        code *= n
        code += D[:, j : j + width]
    return code


def transporter_classes(X: np.ndarray, t: int):
    """(counts, rows, ls): every transporter of every orbit member, found
    by one search per row.

    A transporter of the member y = x <| a^l, l = 1..t, is a b with
    y^{-1} <| a^b = y.  ``counts`` is the (N, n/t) tally, per row, of the
    exponent classes e/t over all pairs (l, b).  ``rows`` and ``ls`` list
    the members whose transporter set contains b = 0, that is, the
    involutions y^{-1} = y: at most t per row.

    With y^{-1}(v) = x^{-1}(v + x(l)) - l and c = b + x(l) the test reads
    x^{-1} <| a^c = x <| a^l, with exponent e = x^{-1}(c) - l + b, so one
    inverse per row serves every member.  The shift is an action,
    (x^{-1} <| a^c) <| a^l = x^{-1} <| a^(c+l), so x^{-1} <| a^c = x holds
    exactly when x^{-1} <| a^(c+l) = x <| a^l: the transporter columns of
    member l are the columns c of x itself, shifted by l.  The rows are
    taken _BLOCK at a time, with one inverse per block.  The search
    compares the codes of columns 1.._KEY_COLS of x^{-1} <| a^c, for
    every c, with the one code of x, and the matches on the remaining
    columns one by one.  Since the difference word rotates under the
    shift (module docstring), the code of x^{-1} <| a^c packs letters
    c..c+_KEY_COLS-1 of the difference word of x^{-1}: the first
    _KEY_COLS letters of that of x^{-1} <| a^c, which fix its columns
    1.._KEY_COLS.  The c found are the shifts carrying x^{-1} onto x:
    none, or the n/t of a coset of the stabilizer when x^{-1} lies in
    the orbit of x's t members.  So a row has either 0 or n transporter
    pairs (l, c + l mod n).  Every pair is compared with y on all n
    columns before it is tallied; a mismatch raises ArithmeticError.
    """
    n = X.shape[1]
    m = n // t
    kt = np.min_scalar_type(-(n**_KEY_COLS))
    counts = np.zeros((len(X), m), dtype=np.intp)
    inv_rows, inv_ls = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    # Matched rows are read twice over, columns u and u + n alike, so the
    # column c + l + u of a pair needs no reduction mod n.
    twice = np.arange(2 * n) % n
    members = np.arange(1, t + 1)
    for lo in range(0, len(X), _BLOCK):
        A = X[lo : lo + _BLOCK]
        Ai = inverse_rows(A)
        key = _difference_codes(Ai, n, kt, n)
        r, c = np.divmod(np.flatnonzero(key == _difference_codes(A, n, kt, 1)), n)
        xflat, iflat = A[r[:, None], twice].ravel(), Ai[r[:, None], twice].ravel()
        base = np.arange(0, len(r) * 2 * n, 2 * n)
        # Code matches are confirmed on the remaining columns:
        # x^{-1}(c + u) - x^{-1}(c) = x(u).
        xic = iflat[base + c]
        for u in range(_KEY_COLS + 1, n):
            ok = _wrap(iflat[base + c + u] - xic, n) == xflat[base + u]
            r, c, base, xic = r[ok], c[ok], base[ok], xic[ok]
        # Member l of each row takes c + l mod n (c < n, l <= t <= n).
        l = np.tile(members, len(r))
        c = _wrap(np.repeat(c, t) + l - n, n)
        r, base = np.repeat(r, t), np.repeat(base, t)
        at_c, at_l = base + c, base + l
        xic, xl = iflat[at_c], xflat[at_l]
        # Every pair in full: (y^{-1} <| a^b)(u) = x^{-1}(c + u) - x^{-1}(c)
        # against y(u) = x(l + u) - x(l), column 0 being 0 on both sides.
        for u in range(1, n):
            if (_wrap(iflat[at_c + u] - xic, n) != _wrap(xflat[at_l + u] - xl, n)).any():
                raise ArithmeticError("a shifted transporter fails the full comparison")
        # Residue sums leave the int8/int16 row type, so they run in intp.
        xl, xic = xl.astype(np.intp), xic.astype(np.intp)
        inv = c == xl  # b = c - x(l) = 0: y^{-1} = y
        inv_rows.append(lo + r[inv])
        inv_ls.append(l[inv])
        e = (xic - l + c - xl) % n
        ok = e % t == 0
        tally = np.bincount(r[ok] * m + (e[ok] // t) % m, minlength=len(A) * m)
        counts[lo : lo + _BLOCK] = tally.reshape(len(A), m)
    return counts, np.concatenate(inv_rows), np.concatenate(inv_ls)


def _class_indicators(counts: np.ndarray, n: int) -> np.ndarray:
    # The indicators, per row and character i, from the exponent-class
    # tallies of ``transporter_classes``: the root-of-unity sums are
    # reduced exactly through the integer cyclotomic basis matrix.
    N, m = counts.shape
    basis = np.array(power_basis_rows(m), dtype=np.int64)
    out = np.empty((N, m), dtype=np.int8)
    for i in range(m):
        # Class c carries zeta^(i*c): gather its basis row per class.
        coords = counts @ basis[(i * np.arange(m)) % m]
        if coords[:, 1:].any():
            raise ArithmeticError("indicator sum is not a rational integer")
        v = coords[:, 0]
        if (v % n).any():
            raise ArithmeticError("indicator sum is not divisible by |C_n|")
        v //= n
        if ((v < -1) | (v > 1)).any():
            raise ArithmeticError("indicator outside {-1, 0, +1}")
        out[:, i] = v
    return out


def bruteforce_indicator_rows(X: np.ndarray, t: int) -> np.ndarray:
    """(N, n/t) matrix of indicators via the literal averaged character sum.

    Transporters are every power of the n-cycle that carries an orbit
    member's inverse onto it (``transporter_classes``: one search per
    row, expanded over the members and compared in full); exponent
    classes are tallied and the resulting root-of-unity sums reduced
    exactly through the integer cyclotomic basis matrix.
    """
    return _class_indicators(transporter_classes(X, t)[0], X.shape[1])


def orbit_involution_counts(X: np.ndarray, t: int) -> np.ndarray:
    """Per-row count of involutions among the t orbit members: the members
    whose transporter set contains b = 0, read off the pairs of
    ``transporter_classes`` (so a call pays for the whole search, the
    full comparison of every pair and the class tallies included)."""
    _counts, rows, _ls = transporter_classes(X, t)
    return np.bincount(rows, minlength=len(X)).astype(np.int16)


def _odometer(sizes: list[int]) -> np.ndarray:
    # Every tuple c with 0 <= c[i] < sizes[i], one per row, in big-endian
    # odometer order (the last entry turns fastest).
    return np.indices(sizes).reshape(len(sizes), math.prod(sizes)).T


def _involution_words(points: tuple[int, ...]):
    # The involutions of `points` as {point: image}, in one-line lexicographic
    # order: the smallest point goes to itself, then to each larger partner.
    if not points:
        yield {}
        return
    p, rest = points[0], points[1:]
    for image in _involution_words(rest):
        yield {p: p, **image}
    for i, q in enumerate(rest):
        for image in _involution_words(rest[:i] + rest[i + 1 :]):
            yield {p: q, q: p, **image}


def _stratum(n: int, t: int, stabilized, max_work: int | None) -> int:
    # A stratum's candidate count, the tower's term stabilized(ctx, t),
    # under the workload guard, the one gate of every listing: a stratum
    # of more candidates than the limit (default_max_work() unless given)
    # is refused before anything is built.
    if t < 1 or n % t:
        raise ValueError(f"t={t} must divide n={n}")
    size = stabilized(CountContext(n), t)[0]
    limit = default_max_work() if max_work is None else max_work
    if size > limit:
        raise WorkloadExceeded(
            f"workload guard: stratum (n={n}, t={t}) has {size} candidates, limit {limit}"
        )
    return size


def _column1_keep(t: int, m: int, j: int, sigmas: np.ndarray, U: np.ndarray) -> np.ndarray:
    # keep[s, k]: whether the row of sigma s and u row k passes the
    # column-1 lemma, x(1) <= d(l) = x(l+1) - x(l) mod n for l = 1..t-1;
    # d is t-periodic, so these are all.  With x(w) = t*u_w + sigma(w),
    # u_t = j and sigma(t) = 0, write sigma(l+1) - sigma(l) = c*t + r,
    # c in {-1, 0}, 0 <= r < t: then d(l) = t*delta + r with
    # delta = u_{l+1} - u_l + c mod m, and x(1) <= d(l) reads
    # u_1 + [sigma(1) > r] <= delta.  The sigma part is a code
    # 2*(c < 0) + [sigma(1) > r] in 0..3 per (sigma, l); the u part a
    # (4, len(U)) table of the four outcomes per l, gathered by code.
    nxt = np.arange(2, t + 1) % t  # sigma(l+1), sigma(t) = sigma(0) = 0
    ds = sigmas[:, nxt].astype(np.intp) - sigmas[:, 1:]
    code = 2 * (ds < 0) + (sigmas[:, 1:2] > _wrap(ds.copy(), t))
    du = np.empty((t - 1, len(U)), dtype=np.intp)  # u_{l+1} - u_l
    du[:-1] = (U[:, 1:] - U[:, :-1]).T
    du[-1] = j - U[:, -1]
    d0, d1, u1 = _wrap(du.copy(), m), _wrap(du - 1, m), U[:, 0]
    ok = np.array([u1 <= d0, u1 < d0, u1 <= d1, u1 < d1]).transpose(1, 0, 2)
    keep = ok[0][code[:, 0]]
    for l in range(1, t - 1):
        keep &= ok[l][code[:, l]]
    return keep


def _lift(t: int, m: int, j: int, U: np.ndarray, dtype) -> np.ndarray:
    # Row k: the residue part t*((q*j + u_w) mod m) of u row k at column
    # q*t + w, u_0 = 0, built in the row type: q*j mod m is subtracted as
    # m - (q*j mod m), which leaves u_w - m + (q*j mod m) in (-m, m) and
    # wraps to (q*j + u_w) mod m, so no entry leaves the row type.
    lift = np.zeros((len(U), m, t), dtype=dtype)
    lift[:, :, 1:] = U[:, None, :]
    lift -= (m - (np.arange(m) * j) % m).astype(dtype)[:, None]
    _wrap(lift, m)
    lift *= t
    return lift.reshape(len(U), m * t)


def _write_group(view: np.ndarray, lift: np.ndarray, tiled: np.ndarray, keep) -> None:
    # Writes the rows lift[k] + tiled[s] of one seed group into `view`,
    # sigma-major: every (s, k), or with `keep` only the kept ones.  The
    # sigma rows, tiled m times, are added along whole rows (an add over
    # a (sigma, u, m, t) view, inner axis t, ran 2-3x slower at (36, 6)).
    # The kept rows take their residue rows, then each sigma's run of
    # kept rows adds its one sigma row, so no sigma row is gathered per
    # kept row.
    if keep is None:
        np.add(lift, tiled[:, None, :], out=view.reshape(len(tiled), len(lift), -1))
        return
    k = np.flatnonzero(keep)
    k %= len(lift)
    # mode="clip" lets take write straight into the buffer (the default
    # mode buffers).
    np.take(lift, k, axis=0, out=view, mode="clip")
    del k
    lo = 0
    for sigma, hi in zip(tiled, np.cumsum(keep.sum(axis=1)).tolist()):
        if hi > lo:
            view[lo:hi] += sigma
        lo = hi


def _expand(n: int, t: int, groups, size: int, window: int, column1: bool = False):
    # Yields the rows x(q*t + w) = t*((q*j + u_w) mod m) + sigma(w),
    # m = n/t and u_0 = 0, of the seed groups (j, sigmas, U): every sigma
    # row of the block with every u row of U, sigma-major, in group order.
    # With `column1`, only the rows that pass the column-1 lemma
    # (``_column1_keep``), still in seed order.
    # Groups are packed by their seeds into windows of `window` seeds
    # (one group's, if more), and a window is yielded once the next
    # group's seeds do not fit, so small groups share one window and one
    # pass over it; `window` = `size` yields the whole stratum as one
    # array.  The windows are the same with or without `column1`; the
    # workload guard and the count below check seeds, not rows written.
    # Every window is written into one buffer, replaced only by a larger
    # one, so a consumer must be done with a window before it asks for
    # the next (and may rewrite it in place).  One buffer per stratum
    # keeps the peak RSS steady: an array per window left census runs at
    # one of three peaks, up to 20 MB apart, as the heap happened to
    # fragment.  The buffer holds a window's seeds, or with `column1`
    # only its kept rows (a fifth of the seeds at (36, 6)), grown as
    # groups add to the window.  Beside it only the residue part
    # (``_lift``) outlives a group: it is built once per run of groups of
    # the same (j, U), U compared by identity while the reference is
    # held, so a yield holds one window and one lift.
    # The groups must fill the `size` candidates exactly.
    m = n // t
    out, at, filled, cap, listed = np.empty((0, n), dtype=_dtype(n)), 0, 0, 0, 0
    lifted = None  # (j, U, lift) of the last group
    for j, sigmas, U in groups:
        seeds = len(sigmas) * len(U)
        if filled + seeds > cap:
            if at:
                yield out[:at]
            if seeds > cap:
                cap = max(seeds, min(window, size - listed))
            at = filled = 0
        if lifted is None or lifted[0] != j or lifted[1] is not U:
            lifted = j, U, _lift(t, m, j, U, out.dtype)
        # At t = 1 there is no l to test: every row is its own orbit.
        keep = _column1_keep(t, m, j, sigmas, U) if column1 and t > 1 else None
        rows = seeds if keep is None else int(np.count_nonzero(keep))
        if at + rows > len(out):
            grown = np.empty((cap if keep is None else at + rows, n), dtype=out.dtype)
            grown[:at] = out[:at]
            out = grown
        _write_group(out[at : at + rows], lifted[2], np.tile(sigmas, m), keep)
        del keep
        at += rows
        filled += seeds
        listed += seeds
    if at:
        yield out[:at]
    if listed != size:
        raise ArithmeticError(f"{listed} seeds listed for {size} candidates")


def _seed_groups(n: int, t: int):
    # The seed groups of the a^t-stabilized rows, t < n, in seed order:
    # per unit j, the sigma rows of S_{t-1} in blocks of whole sigmas, each
    # with every u row, at most _CHUNK rows a group when one sigma's
    # m^(t-1) rows fit (under the default guard they always do).
    m = n // t
    sigmas = perm_block(t, 0, math.factorial(t - 1))
    U = _odometer([m] * (t - 1))
    step = max(1, _CHUNK // len(U))
    for j in units(m):
        for lo in range(0, len(sigmas), step):
            yield j, sigmas[lo : lo + step], U


def _pruned_blocks(n: int) -> Iterator[np.ndarray]:
    # The rows of S_{n-1} with x(1) = k >= 2 and every difference
    # d(l) = x(l+1) - x(l) mod n >= k, the closing d(n-1) = -x(n-1)
    # included, in lexicographic order, in blocks of at most
    # min(_CHUNK, _SLICE) rows.  The prefixes grow one position per level,
    # for every k at once: a node holds its symbol and a pointer to its
    # parent, and the level being grown also its k and the bitmask of the
    # symbols used so far.  A level is grown in slices of parents whose
    # children fit one block, depth first, so every level held and every
    # block stays bounded.
    if n > 64:
        raise ValueError(f"degree n={n} exceeds the used-set bitmask limit n <= 64")
    # Little-endian masks: bit c of a mask is bit c of its unpacked bytes.
    bits = np.min_scalar_type(2**n - 1).newbyteorder("<")
    c = np.arange(n)
    bit = np.left_shift(np.ones(n, dtype=bits), c.astype(bits))
    gap = (c[None, :] - c[:, None]) % n  # gap[a, b] = b - a mod n
    # allowed[a, k]: the symbols 1..n-1 at least k past a; closing[k]: those
    # at least k before 0, as the last symbol must be.
    allowed = ((gap[:, None, 1:] >= c[None, :, None]) * bit[1:]).sum(axis=2, dtype=bits)
    closing = ((gap[None, 1:, 0] >= c[:, None]) * bit[1:]).sum(axis=1, dtype=bits)
    cap = min(_CHUNK, _SLICE)
    row_type = _dtype(n)

    def grow(levels, k, used):
        # levels[d-1] = (symbols, parents) of the nodes at depth d.
        avail = (allowed[levels[-1][0], k] & ~used).astype(bits, copy=False)
        if len(levels) == n - 2:
            # One symbol is left, the one bit of its mask (its index is the
            # popcount of mask - 1): the row ends with it if it also closes.
            # The rows are rebuilt from the pointers, one column per level.
            at = np.flatnonzero(avail & closing[k])
            rows = np.zeros((len(at), n), dtype=row_type)
            rows[:, n - 1] = np.bitwise_count(avail[at] - 1)
            for col in range(n - 2, 0, -1):
                sym, parent = levels[col - 1]
                rows[:, col] = sym[at]
                at = parent[at]
            yield rows
            return
        ends = np.cumsum(np.bitwise_count(avail))
        lo = 0
        while lo < len(avail):
            hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + cap, "right"))
            # Bit c of a parent's mask is one child: the set bits, read off
            # in order, give the children in lexicographic order.
            b = np.unpackbits(avail[lo:hi].view(np.uint8), bitorder="little")
            p, sym = np.divmod(np.flatnonzero(b), 8 * bits.itemsize)
            p += lo
            yield from grow([*levels, (sym, p)], k[p], used[p] | bit[sym])
            lo = hi

    roots = np.arange(2, n)
    yield from grow([(roots, np.zeros(len(roots), dtype=np.intp))], roots, bit[roots])


def _windows(n: int, t: int, size: int):
    # The a^t-stabilized rows of a stratum of `size` candidates that can
    # be an orbit's smallest member, by the column-1 lemma those with
    # x(1) <= d(l) for every l, in windows of at most _CHUNK rows.  For
    # t < n, the kept rows of the seed groups in seed order, the groups
    # packed into windows of _CHUNK seeds, each window overwriting the
    # last.  For t = n (a^n = 1 stabilizes everything), in lexicographic
    # order: rows with x(1) = 1 all pass, the first (n-2)! rows of the
    # listing of S_{n-1}; the rest come from the pruned expansion, its
    # blocks packed into windows.
    if t < n:
        yield from _expand(n, t, _seed_groups(n, t), size, _CHUNK, column1=True)
        return
    ones = math.factorial(n - 2)
    for lo in range(0, ones, _CHUNK):
        yield perm_block(n, lo, min(lo + _CHUNK, ones))
    # A pruned window holds neither its blocks nor the last window across
    # a yield, so the next one is built with only the consumer's window
    # alive.
    blocks, rows = [], 0
    for block in _pruned_blocks(n):
        if rows + len(block) > _CHUNK:
            window, blocks, rows = np.concatenate(blocks), [], 0
            yield window
            del window
        blocks.append(block)
        rows += len(block)
    if rows:
        window = np.concatenate(blocks)
        del blocks, block
        yield window


def _compact(X: np.ndarray, keep: np.ndarray) -> np.ndarray:
    # The rows X[keep], moved to the front of X in place, block by block,
    # so the kept rows are never held twice; returns the view of them.
    # A block is written at or before where it was read.
    at = 0
    for lo in range(0, len(X), _BLOCK):
        block = X[lo : lo + _BLOCK][keep[lo : lo + _BLOCK]]
        X[at : at + len(block)] = block
        at += len(block)
    return X[:at]


def _exact_rows(X: np.ndarray, t: int) -> np.ndarray:
    # The rows of an a^t-stabilized stratum whose stabilizer is exactly
    # <a^t>: no shift by t/p, p a prime factor of t, fixes them.  Each
    # shift is compared on every row (a slice reads faster than gathered
    # rows), and the survivors are moved to the front of X in place
    # (``_compact``), so the stratum is never held twice; X is the
    # caller's own fresh array.
    keep = np.ones(len(X), dtype=bool)
    for p in prime_factors(t):
        keep &= _shift_cmp(X, t // p) != 0
    return X if keep.all() else _compact(X, keep)


def stabilized_rows(n: int, t: int, max_work: int | None = None) -> np.ndarray:
    """All rows stabilized by a^t, built directly from (j, sigma, u) seeds.

    Rows come in lexicographic seed order: j ascending over the units
    mod n/t, sigma in one-line lexicographic order, u as a big-endian
    odometer -- row k is ``build_from_seed`` of the k-th seed.  The
    workload guard counts the phi(n/t) * (n/t)^(t-1) * (t-1)! candidates
    and refuses more than its limit.  It does not bound memory here: this
    view, like ``exact_stabilizer_rows`` and ``exact_involution_rows``,
    holds the whole stratum at once, n bytes per candidate in the int8
    row type, and a pass over it adds its own temporaries (tracemalloc
    at (36, 6), 1.87M candidates: building the rows peaks at 65 MiB, and
    the representative scan over the whole stratum and the congruence
    route over its representatives raise the peak to 81 MiB, about 45
    bytes per candidate).
    ``rep_chunks`` lists only their column-1 candidates, in windows of at
    most ``_CHUNK`` rows.
    """
    size = _stratum(n, t, _stabilized_M, max_work)
    if t == n:
        # a^n = 1 stabilizes everything.  The one seed group, j = 0 with
        # every sigma of S_{n-1} and one empty u, would only copy the
        # listing of S_{n-1} into a second array.
        return perm_block(n, 0, size)
    (X,) = _expand(n, t, _seed_groups(n, t), size, size)
    return X


def exact_stabilizer_rows(n: int, t: int, max_work: int | None = None) -> np.ndarray:
    """Rows whose stabilizer is exactly <a^t> (the degree-t census set)."""
    return _exact_rows(stabilized_rows(n, t, max_work), t)


def exact_involution_rows(n: int, t: int, max_work: int | None = None) -> np.ndarray:
    """The involutions whose stabilizer is exactly <a^t>, in seed order.

    Seeds are constrained at the source: j is a square root of 1 mod
    n/t, sigma an involution of {1..t-1} (in one-line lexicographic
    order), and u a big-endian odometer over u_i in k_set(j, n/t) at the
    fixed points i of sigma, then over u_i at its 2-cycles (i, sigma(i)),
    i < sigma(i), which set u_sigma(i) = -j*u_i.
    """
    size, m = _stratum(n, t, _stabilized_T, max_work), n // t
    row_type = _dtype(n)

    def groups():
        if t == n:
            # m = 1 leaves j = 0 and one zero u row for every sigma, so
            # one group holds every involution word.
            words = _involution_words(tuple(range(1, n)))
            sigmas = np.array([[0] + [w[i] for i in range(1, n)] for w in words], dtype=row_type)
            yield 0, sigmas, np.zeros((1, n - 1), dtype=np.intp)
            return
        for j in e_set(m):
            kernel = np.array(k_set(j, m))
            # Per number l of 2-cycles: u at fixed points, 2-cycles, partners.
            shapes = {}
            for image in _involution_words(tuple(range(1, t))):
                fixed = [i for i in range(1, t) if image[i] == i]
                pairs = [i for i in range(1, t) if image[i] > i]
                l, f = len(pairs), len(fixed)
                if l not in shapes:
                    C = _odometer([len(kernel)] * f + [m] * l)
                    shapes[l] = np.hstack([kernel[C[:, :f]], C[:, f:], -j * C[:, f:] % m])
                sigma = np.array([[0] + [image[i] for i in range(1, t)]], dtype=row_type)
                cols = fixed + pairs + [image[i] for i in pairs]
                # u depends on sigma here, so each (j, sigma) is its own group.
                yield j, sigma, shapes[l][:, sorted(range(t - 1), key=cols.__getitem__)]

    (X,) = _expand(n, t, groups(), size, size)
    return _exact_rows(X, t)


def rep_chunks(n: int, t: int, max_work: int | None = None) -> Iterator[np.ndarray]:
    """The canonical (lexicographically smallest) member of every orbit of
    stabilizer order t, in the seed order of ``stabilized_rows``, as a
    stream of row arrays: the one stream of representatives.  The
    indicator tables and ``construct.enumerate_orbit_reps`` read it; the
    census reads the same windows in place (``_rep_windows``).

    The workload guard runs on the call, before any row is built, and
    counts seeds: every a^t-stabilized row, (n-1)! at t = n.  The stream
    then lists the stratum's candidates of the column-1 lemma (module
    docstring), x(1) <= x(l+1) - x(l) mod n for every l, in windows of at
    most ``_CHUNK`` rows, and yields each window's rows
    X[canonical_orders(X, t) == t], so memory is bounded by the window
    size: the window, and the copy of its representatives the caller
    keeps.  For t < n a window covers up to ``_CHUNK`` seeds (seed groups
    of whole sigma blocks of one unit j, consecutive small groups sharing
    a window) and holds those that pass, in seed order; for t = n the
    windows hold the candidates in lexicographic order.  Either way they
    hold every orbit's smallest member, but not the whole stratum.
    ``canonical_orders`` judges each row alone, so the windows change no
    result.  No exactness pass is needed: told t, the scan stops at
    l = t - 1, and a row of exact order s < t (s | t) ties at l = s, so it
    gets s or 0, never t; its value t picks the canonical rows of exact
    order t.  Each yielded array is fresh, the caller's to keep (the
    indicator tables keep every window): the representatives of
    ``_rep_windows``, copied.
    """
    size = _stratum(n, t, _stabilized_M, max_work)
    return (reps.copy() for reps in _rep_windows(n, t, size))


def _rep_windows(n: int, t: int, size: int) -> Iterator[np.ndarray]:
    # The representatives of each window of ``_windows``, moved to the
    # window's front in place (``_compact``): each view is valid until
    # the next window is requested.  The stratum must have passed the
    # guard (`size` is its candidate count).
    for X in _windows(n, t, size):
        yield _compact(X, canonical_orders(X, t) == t)


def _tally(values: np.ndarray, t: int) -> dict[int, int]:
    # {+1, -1, 0} over indicator rows of order-t representatives, per
    # (permutation, character): orbit members share indicators, so each
    # representative counts t times.
    return {v: t * int((values == v).sum()) for v in (1, -1, 0)}


def census_by_dimension(n: int, t: int, max_work: int | None = None) -> tuple[int, int, int]:
    """(plus, minus, zero) tallies over all (x, i) pairs of dimension t:
    x of stabilizer exactly <a^t>, i one of the n/t characters.  Each
    orbit is evaluated on its representative and counted per member,
    window by window of the stream behind ``rep_chunks``, read in place:
    one window of kept rows, its representatives moved to its front, is
    all the stream holds."""
    size = _stratum(n, t, _stabilized_M, max_work)
    tally = Counter()
    for reps in _rep_windows(n, t, size):
        tally.update(_tally(reduced_indicator_rows(reps, t), t))
    return tally[1], tally[-1], tally[0]


@dataclass
class SweepResult:
    """Exhaustive verification data for one degree n."""

    n: int
    mismatches: int = 0
    permutations: int = 0
    m_counts: dict[int, int] = field(default_factory=dict)  # |{x : stab t}|
    orbit_counts: dict[int, int] = field(default_factory=dict)
    tallies: dict[int, dict[int, int]] = field(default_factory=dict)  # per-(x,i)
    # t -> {r: number of orbits containing exactly r involutions}
    orbit_involutions: dict[int, dict[int, int]] = field(default_factory=dict)
    # t -> {r: number of involutions with exactly r fixed points, n included}
    involution_fixed_points: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def irrep_classes(self) -> int:
        return sum(c * (self.n // t) for t, c in self.orbit_counts.items())

    @property
    def dim_squared_sum(self) -> int:
        return sum(
            c * (self.n // t) * t * t for t, c in self.orbit_counts.items()
        )


def sweep(n: int, max_work: int | None = None) -> SweepResult:
    """Verify the two indicator routes against each other over every
    orbit of S_{n-1} and collect census tallies.

    Reads the t = n windows behind ``rep_chunks``, of at most ``_CHUNK``
    rows (16 * 8! = 645,120): one ``canonical_orders`` scan per window
    keeps one canonical representative per orbit.  The window and its
    orders are then split into blocks of ``_BLOCK`` rows, and each block
    over every t: both indicator routes run on the block's
    representatives for every character index.  The windows list only
    the candidates of the column-1 lemma (module docstring), 14-15% of
    S_{n-1} at n = 11, 12; each orbit's canonical member is one of them
    and lies in exactly one window, and every row is judged alone, so
    neither windows nor blocks change a tally, and a candidate the
    listing missed would leave sum(m_counts) short of ``permutations``.
    Memory is bounded by one window plus one block: a window is released
    before the next is built, and the routes' temporaries are sized by
    the block (tracemalloc peak of sweep(11) 8.8 MiB, against 20.3 MiB
    when the routes ran on a whole window's representatives).
    The workload guard counts the (n-1)! permutations as the stratum
    t = n and refuses more than ``max_work`` (default
    ``default_max_work()``) before any window is built.  Tallies use the
    per-(permutation, character) convention (orbit rows weighted by t).
    The oracle's transporter scan also lists the orbit members whose
    transporter set contains b = 0, the involutions, so the sweep also
    histograms, per t, the orbits by their number of involutions and the
    involutions by their fixed points.
    """
    total = _stratum(n, n, _stabilized_M, max_work)
    res = SweepResult(n=n, permutations=total)
    for t in divisors(n):
        res.m_counts[t] = 0
        res.orbit_counts[t] = 0
        res.tallies[t] = {1: 0, -1: 0, 0: 0}
        res.orbit_involutions[t] = {}
        res.involution_fixed_points[t] = {}

    for X in _windows(n, n, total):
        orders = canonical_orders(X)
        for lo in range(0, len(X), _BLOCK):
            _sweep_block(res, X[lo : lo + _BLOCK], orders[lo : lo + _BLOCK])
        # The next window is built with this one released.
        del X, orders
    return res


def _sweep_block(res: SweepResult, X: np.ndarray, orders: np.ndarray) -> None:
    # Both routes and the histograms on one block of a window, split over
    # every t by the block's orbit orders; every row is judged alone.
    n = res.n
    for t in divisors(n):
        reps = X.take(np.flatnonzero(orders == t), axis=0)
        # Orbit-stabilizer: each orbit holds t permutations.
        res.m_counts[t] += t * len(reps)
        if not len(reps):
            continue
        res.orbit_counts[t] += len(reps)
        red = reduced_indicator_rows(reps, t)
        classes, rows, ls = transporter_classes(reps, t)
        res.mismatches += int((red != _class_indicators(classes, n)).sum())
        for v, c in _tally(red, t).items():
            res.tallies[t][v] += c
        _add_histogram(res.orbit_involutions[t], np.bincount(rows, minlength=len(reps)))
        for l in range(1, t + 1):
            fixed = (shift_rows(reps[rows[ls == l]], l) == np.arange(n)).sum(axis=1)
            _add_histogram(res.involution_fixed_points[t], fixed)


def _add_histogram(hist: dict[int, int], values: np.ndarray) -> None:
    for v, c in zip(*np.unique(values, return_counts=True)):
        hist[int(v)] = hist.get(int(v), 0) + int(c)
