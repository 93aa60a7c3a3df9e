"""Exact permutation arithmetic on {1..n}, viewed as bijections of Z/nZ.

Conventions
-----------
A permutation x of degree n is stored as a *residue word*: a tuple ``w``
of length n with ``w[i] = x(i) mod n``, so the point n is represented by
the residue 0 and ``w[0] = x(n) mod n``.  All public semantics (one-line
forms, cycle notation, ``fixed_points``) are 1-indexed with the point n
written as n; only the internal storage is 0-indexed.  This keeps the
modular shift arithmetic used throughout the package free of off-by-one
adjustments while fixtures stay readable.

Composition is function composition: ``(f * g)(i) = f(g(i))``, i.e. the
right factor acts first.

Elements of S_{n-1} are embedded in S_n as the permutations fixing n
(equivalently ``w[0] == 0``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Permutation",
    "compose",
    "inverse",
    "from_cycles",
    "to_cycles",
    "cycle_notation",
    "fixed_points",
    "is_involution",
    "parse_permutation",
]


def _check_word(word: Sequence[int]) -> tuple[int, ...]:
    n = len(word)
    if n == 0:
        raise ValueError("degree must be positive")
    w = tuple(int(v) % n for v in word)
    if sorted(w) != list(range(n)):
        raise ValueError(f"not a bijection of Z/{n}Z: {word!r}")
    return w


@dataclass(frozen=True)
class Permutation:
    """A bijection of Z/nZ, wrapping an immutable residue word.

    Values are immutable and hashable, hence freely shareable; every
    operation on them is pure.
    """

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", _check_word(self.word))

    @classmethod
    def _unchecked(cls, word: tuple[int, ...]) -> "Permutation":
        # A word derived from valid permutations (a product, an inverse, a
        # shift), already a tuple of residues mod n, wrapped without a
        # second check: _check_word guards every word from outside data.
        x = object.__new__(cls)
        object.__setattr__(x, "word", word)
        return x

    # -- constructors --------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def standard_cycle(cls, n: int) -> "Permutation":
        """The n-cycle a = (1 2 ... n), i.e. the shift i -> i+1 mod n."""
        return cls(tuple((i + 1) % n for i in range(n)))

    @classmethod
    def shift_power(cls, n: int, r: int) -> "Permutation":
        """a^r: the shift i -> i+r mod n."""
        return cls(tuple((i + r) % n for i in range(n)))

    @classmethod
    def from_one_line(cls, images: Sequence[int]) -> "Permutation":
        """Build from the 1-indexed one-line form [x(1), ..., x(n)]."""
        n = len(images)
        word = [0] * n
        for i, v in enumerate(images, start=1):
            word[i % n] = v % n
        return cls(tuple(word))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        return from_cycles(n, cycles)

    # -- basic queries ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Image of the 1-indexed point i (result in {1..n})."""
        if not 1 <= i <= self.n:
            raise ValueError(f"point {i} out of range 1..{self.n}")
        v = self.word[i % self.n]
        return v if v else self.n

    def fixes_top(self) -> bool:
        """True iff x(n) = n, i.e. x lies in the embedded S_{n-1}."""
        return self.word[0] == 0

    def one_line(self) -> tuple[int, ...]:
        """1-indexed one-line form (x(1), ..., x(n))."""
        n = self.n
        return tuple(self.word[i % n] or n for i in range(1, n + 1))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.word))

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return inverse(self)

    def __str__(self) -> str:
        return cycle_notation(self.word)

    def __repr__(self) -> str:
        return f"Permutation.from_one_line({list(self.one_line())!r})"


def compose(f: Permutation, g: Permutation) -> Permutation:
    """f*g with (f*g)(i) = f(g(i)): apply g first, then f."""
    if f.n != g.n:
        raise ValueError(f"degree mismatch: {f.n} != {g.n}")
    return Permutation._unchecked(tuple(map(f.word.__getitem__, g.word)))


def inverse(x: Permutation) -> Permutation:
    inv = [0] * x.n
    for i, v in enumerate(x.word):
        inv[v] = i
    return Permutation._unchecked(tuple(inv))


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    """Build a permutation of degree n from disjoint cycles of 1-indexed points.

    Fixed points are omitted; overlapping cycles or out-of-range entries
    raise ValueError.
    """
    word = list(range(n))
    seen: set[int] = set()
    for cycle in cycles:
        pts = [int(p) for p in cycle]
        for p in pts:
            if not 1 <= p <= n:
                raise ValueError(f"cycle entry {p} out of range 1..{n}")
            if p in seen:
                raise ValueError(f"cycles are not disjoint at {p}")
            seen.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            word[a % n] = b % n
    return Permutation(tuple(word))


def to_cycles(x: Permutation) -> tuple[tuple[int, ...], ...]:
    """Canonical cycle decomposition: 1-indexed, fixed points omitted,
    each cycle starting at its minimum, cycles ordered by minimum."""
    return _word_cycles(x.word)


def _word_cycles(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    n = len(word)
    done = [False] * n
    cycles = []
    for start in range(1, n + 1):
        if done[start % n]:
            continue
        cycle = [start]
        done[start % n] = True
        p = word[start % n] or n
        while p != start:
            cycle.append(p)
            done[p % n] = True
            p = word[p % n] or n
        if len(cycle) > 1:
            cycles.append(tuple(cycle))
    return tuple(cycles)


def cycle_notation(word: Sequence[int]) -> str:
    """The cycle notation of a residue word, e.g. ``(1 2)(3 5 4)``, or
    ``()`` for the identity; the word is trusted to be a bijection."""
    cycles = _word_cycles(word)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def fixed_points(x: Permutation) -> list[int]:
    """Sorted 1-indexed fixed points, including n when x(n) = n."""
    return [i for i in range(1, x.n + 1) if x.word[i % x.n] == i % x.n]


def is_involution(x: Permutation) -> bool:
    """True iff x composed with itself is the identity (identity included)."""
    w = x.word
    return all(w[v] == i for i, v in enumerate(w))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_SEP_RE = re.compile(r"[,\s]+")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse either cycle notation ``(1 5 9 13)(3 7 11 15)`` or a one-line
    form ``[5,2,7,...]``.

    Cycle notation needs the degree n (it cannot be inferred from the
    cycles alone); one-line forms carry their own degree.
    """
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated one-line form: {text!r}")
        entries = [s for s in _SEP_RE.split(text[1:-1].strip()) if s]
        images = [int(s) for s in entries]
        x = Permutation.from_one_line(images)
        if n is not None and x.n != n:
            raise ValueError(f"one-line form has degree {x.n}, expected {n}")
        return x
    if text == "()" or text == "":
        if n is None:
            raise ValueError("degree n required to parse cycle notation")
        return Permutation.identity(n)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"could not parse permutation: {text!r}")
    if n is None:
        raise ValueError("degree n required to parse cycle notation")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        entries = [s for s in _SEP_RE.split(body.strip()) if s]
        if entries:
            cycles.append([int(s) for s in entries])
    return from_cycles(n, cycles)
