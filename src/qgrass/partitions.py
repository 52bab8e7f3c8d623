"""Partitions in a k x (n-k) box, 01-words, and the statistics built on them.

Everything here is immutable and pure.  Partitions are stored canonically
(weakly decreasing, no trailing zeros), so they can be used as dict keys
everywhere else in the package.  masked_step is the one determinant kernel:
masked_det folds it over the rows for the Giambelli classes and the e
determinants of the nil-Temperley-Lieb backend, and the toric and nil-TL h
walks call it row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import (
    DoesNotFitBox,
    IndexOutOfRange,
    NegativePart,
    NonIntegerPart,
    NotWeaklyDecreasing,
    QGrassError,
)


class Partition:
    """A partition: weakly decreasing nonnegative integers, trailing zeros dropped."""

    __slots__ = ("parts",)

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        prev = parts[0] if parts else 0
        for p in parts:
            # type(), not isinstance(): bool is an int subclass and is refused.
            if type(p) is not int:
                raise NonIntegerPart(f"parts {parts} contain the non-integer {p!r}")
            if p > prev:
                raise NotWeaklyDecreasing(f"parts {parts} are not weakly decreasing")
            prev = p
        if parts and parts[-1] < 0:
            raise NegativePart(f"parts {parts} contain a negative entry")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        """Number of boxes, written |.| in the docstrings below."""
        return sum(self.parts)

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains(self, other: "Partition") -> bool:
        """Containment of Young diagrams."""
        return all(self.part(i) >= other.part(i) for i in range(1, len(other.parts) + 1))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts!r}"


EMPTY_PARTITION = Partition()


@dataclass(frozen=True)
class GrassContext:
    """The pair (k, n) fixing the box: k rows, n-k columns."""

    k: int
    n: int

    def __post_init__(self):
        if not (1 <= self.k < self.n):
            raise QGrassError(f"context requires 1 <= k < n, got k={self.k}, n={self.n}")

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
    def num_classes(self) -> int:
        return math.comb(self.n, self.k)

    def fits(self, lam: Partition) -> bool:
        return len(lam) <= self.k and (not lam.parts or lam.parts[0] <= self.cols)

    def require_fits(self, lam: Partition) -> None:
        if not self.fits(lam):
            raise DoesNotFitBox(f"{lam!r} does not fit the {self.k} x {self.cols} box")


@dataclass(frozen=True)
class Word01:
    """Binary boundary word of a box partition: 0 = right step, 1 = up step."""

    bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]


def make_partition(parts: Sequence[int]) -> Partition:
    """Validating constructor; canonicalizes trailing zeros."""
    return Partition(parts)


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text format; "" and "0" denote the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return EMPTY_PARTITION
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise QGrassError(f"cannot parse partition from {text!r}") from exc
    return Partition(parts)


def format_partition(lam: Partition) -> str:
    """Inverse of parse_partition."""
    return ",".join(str(p) for p in lam.parts) if lam.parts else "0"


def format_terms(terms: Iterable[tuple[int, int, tuple[int, ...]]]) -> str:
    """Text of a sum of terms c * q^d * s[parts], given as (c, d, parts), in order.

    A factor q^0 or s[] is left out, and so is a coefficient of magnitude 1
    unless it stands alone; the empty sum is "0".
    """
    chunks = []
    for c, d, parts in terms:
        factors = []
        if d:
            factors.append("q" if d == 1 else f"q^{d}")
        if parts:
            factors.append(f"s[{','.join(str(p) for p in parts)}]")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        text = "*".join(factors)
        if chunks:
            text = ("- " if c < 0 else "+ ") + text
        elif c < 0:
            text = "-" + text
        chunks.append(text)
    return " ".join(chunks) or "0"


@lru_cache(maxsize=None)
def _word_bits(parts: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    bits = [0] * n
    for j in range(1, k + 1):
        row = k + 1 - j
        pos = (parts[row - 1] if row <= len(parts) else 0) + j
        bits[pos - 1] = 1
    return tuple(bits)


def _bits_to_parts(bits: Sequence[int], k: int) -> tuple[int, ...]:
    ones = [pos for pos, b in enumerate(bits, start=1) if b]
    parts = [0] * k
    for j, pos in enumerate(ones, start=1):
        parts[k - j] = pos - j
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def to_word01(lam: Partition, ctx: GrassContext) -> Word01:
    """Boundary word of lam inside the box; the j-th one sits at lam_{k+1-j} + j."""
    ctx.require_fits(lam)
    return Word01(_word_bits(lam.parts, ctx.k, ctx.n))


def from_word01(word: Word01, ctx: GrassContext) -> Partition:
    """Decode a boundary word back into a box partition."""
    bits = tuple(word.bits)
    if len(bits) != ctx.n or sum(bits) != ctx.k or any(b not in (0, 1) for b in bits):
        raise QGrassError(f"not a length-{ctx.n} word with {ctx.k} ones: {bits}")
    return Partition(_bits_to_parts(bits, ctx.k))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam.parts:
        return EMPTY_PARTITION
    return Partition(sum(1 for p in lam.parts if p >= j) for j in range(1, lam.parts[0] + 1))


def complement(lam: Partition, ctx: GrassContext) -> Partition:
    """Complement inside the box, rotated; reverses the boundary word."""
    ctx.require_fits(lam)
    return Partition(ctx.cols - lam.part(ctx.k + 1 - i) for i in range(1, ctx.k + 1))


def cyclic_shift(lam: Partition, ctx: GrassContext, a: int) -> Partition:
    """Partition whose boundary word is lam's rotated left by a (a may be negative)."""
    ctx.require_fits(lam)
    a %= ctx.n
    if a == 0:
        return lam
    bits = _word_bits(lam.parts, ctx.k, ctx.n)
    return Partition(_bits_to_parts(bits[a:] + bits[:a], ctx.k))


@lru_cache(maxsize=None)
def _phi_table(parts: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    bits = _word_bits(parts, k, n)
    table = [0]
    for b in bits:
        table.append(table[-1] + b)
    return tuple(table)


def phi(lam: Partition, ctx: GrassContext, i: int) -> int:
    """Number of up steps among the first i steps of the boundary word.

    Extended to all integers i by phi(i + n) = phi(i) + k.
    """
    ctx.require_fits(lam)
    q, r = divmod(i, ctx.n)
    return _phi_table(lam.parts, ctx.k, ctx.n)[r] + q * ctx.k


@lru_cache(maxsize=None)
def _diag_table(parts: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    # Row r holds the diagonals 1 - r .. parts[r] - r: one difference-array
    # interval each, stored at index diagonal + k.
    steps = [0] * (n + 2)
    for r, p in enumerate(parts, start=1):
        steps[k + 1 - r] += 1
        steps[k + 1 - r + p] -= 1
    return tuple(accumulate(steps[: n + 1]))


def diag(lam: Partition, ctx: GrassContext, i: int) -> int:
    """Number of cells (r, c) of lam with c - r = i, for -k <= i <= n-k."""
    ctx.require_fits(lam)
    if not (-ctx.k <= i <= ctx.cols):
        raise IndexOutOfRange(f"diagonal index {i} outside [{-ctx.k}, {ctx.cols}]")
    return _diag_table(lam.parts, ctx.k, ctx.n)[i + ctx.k]


def graded_key(parts: tuple[int, ...]) -> tuple:
    """Sort key: by size, then lexicographic with larger first parts first."""
    return (sum(parts), tuple(-p for p in parts))


@lru_cache(maxsize=None)
def _partitions_into(total: int, max_parts: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of total into at most max_parts parts, each at most max_part.

    Lexicographic with larger first parts first, as graded_key orders them.
    """
    if total == 0:
        return ((),)
    if max_parts == 0 or max_part == 0:
        return ()
    found = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions_into(total - first, max_parts - 1, first):
            found.append((first,) + rest)
    return tuple(found)


def enumerate_pkn(ctx: GrassContext) -> list[Partition]:
    """All box partitions in graded lexicographic order (by size, then parts)."""
    table = basis_table(ctx)
    return [table.partition[t] for t in table.parts]


class _Interned(dict):
    """parts -> the one Partition of those parts, built on first lookup."""

    def __missing__(self, parts: tuple[int, ...]) -> Partition:
        lam = self[parts] = Partition(parts)
        return lam


class BasisTable:
    """The box partitions of one context as indices 0..N-1, in enumerate_pkn order.

    Kernels that sweep the whole basis run on these integers; the
    statistics of each index are computed once, from the boundary words,
    on first use, so a context that is never swept is never enumerated.
    """

    def __init__(self, ctx: GrassContext):
        self.k, self.n = ctx.k, ctx.n
        # partition[parts]: the shared, immutable Partition of a box partition,
        # which products and enumerations hand out instead of new objects.
        self.partition: dict[tuple[int, ...], Partition] = _Interned()

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        """Every box partition, in graded_key order."""
        k, cols = self.k, self.n - self.k
        return tuple(p for m in range(k * cols + 1) for p in _partitions_into(m, k, cols))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {p: i for i, p in enumerate(self.parts)}

    @cached_property
    def size(self) -> tuple[int, ...]:
        return tuple(sum(p) for p in self.parts)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        k, n, index = self.k, self.n, self.index
        return tuple(index[_bits_to_parts(_word_bits(p, k, n)[::-1], k)] for p in self.parts)

    @cached_property
    def shift(self) -> tuple[tuple[int, ...], ...]:
        """shift[i][a]: index of the word of i rotated left by a, for a in 0..n-1."""
        k, n, index = self.k, self.n, self.index
        words = [_word_bits(p, k, n) for p in self.parts]
        return tuple(
            tuple(index[_bits_to_parts(w[a:] + w[:a], k)] for a in range(n)) for w in words
        )

    @cached_property
    def phi(self) -> tuple[tuple[int, ...], ...]:
        """phi[i][r]: up steps among the first r steps of the word of i, r in 0..n."""
        return tuple(_phi_table(p, self.k, self.n) for p in self.parts)


@lru_cache(maxsize=None)
def basis_table(ctx: GrassContext) -> BasisTable:
    """The integer-indexed basis of ctx, one per (k, n)."""
    return BasisTable(ctx)


def box_partitions_by_size(ctx: GrassContext, m: int) -> list[Partition]:
    """Box partitions with exactly m cells, in lexicographic order."""
    interned = basis_table(ctx).partition
    return [interned[t] for t in _partitions_into(m, ctx.k, ctx.cols)]


def masked_step(states: dict, i: int, columns: Iterable[int], need: int, entry, add) -> dict:
    """Row i of the Laplace expansion: extend every state by one entry of row i.

    states[mask] is the signed sum of the partial products whose rows
    1..i-1 took the columns in mask.  Each takes every free column j of
    columns, through entry(value, i, j, sign) with sign -1 when an odd number
    of used columns lie right of j; a new mask that misses a column of need
    is dropped, and so is a term that entry returns as None.
    """
    nxt = {}
    for mask, value in states.items():
        for j in columns:
            bit = 1 << (j - 1)
            key = mask | bit
            if mask & bit or (key & need) != need:
                continue
            term = entry(value, i, j, -1 if (mask >> j).bit_count() & 1 else 1)
            if term is None:
                continue
            nxt[key] = add(nxt[key], term) if key in nxt else term
    return nxt


def masked_det(m: int, start, entry, add, first: Sequence[int]):
    """The m x m determinant, sum over w of sgn(w) * a[1, w(1)] * ... * a[m, w(m)].

    A fold of masked_step over the rows, so permutations that share a
    column set share their prefix.  entry(value, i, j, sign) extends a
    partial product by the entry at (i, j), 1-based, times sign, or returns
    None for a zero term; add sums two of them.  The entries of row i left
    of column first[i - 1] are zero and are never asked for.  So no row
    below i can take a column left of all their firsts, and a column set of
    rows 1..i that leaves one free is dropped.  Returns None if every term
    is zero.
    """
    # needed[i]: the columns that rows 1..i must have used between them.
    needed = [0] * (m + 1)
    low = m + 1
    for i in range(m, 0, -1):
        needed[i] = (1 << (low - 1)) - 1
        low = max(1, min(low, first[i - 1]))
    states = {0: start}
    for i in range(1, m + 1):
        columns = range(max(1, first[i - 1]), m + 1)
        states = masked_step(states, i, columns, needed[i], entry, add)
    return states.get((1 << m) - 1)
