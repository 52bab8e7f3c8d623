"""Cylindric loops, shapes and tableaux on the k x (n-k) cylinder and torus.

A loop is a box partition plus an integer offset r, standing for the
(k, n)-periodic sequence whose value at index i+r is part_i + r for
i = 1..k and which drops by n-k every k indices.  A shape lam/d/mu is
the region between the loops lam[d] (above) and mu[0] (below), and a
tableau a chain of loops, each one horizontal strip above the one before.
This object model is outside every route: the toric route counts the same
chains on ints, in tableaux, and only the package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

from .errors import ContextMismatch, NotToric, QGrassError
from .partitions import GrassContext, Partition, _partition, cyclic_shift, diag, require_int
from .tableaux import _strip_successors_raw

Direction = Literal["horizontal", "vertical"]


@dataclass(frozen=True)
class CylindricLoop:
    """A (k, n)-periodic weakly decreasing sequence, stored as base partition + offset."""

    base: Partition
    offset: int
    ctx: GrassContext

    def __post_init__(self):
        self.ctx.require_fits(self.base)
        require_int(self.offset, "loop offset")

    def value(self, i: int) -> int:
        """Sequence value at an arbitrary integer index."""
        k, cols = self.ctx.k, self.ctx.cols
        q, i0 = divmod(i - self.offset - 1, k)
        return self.base.part(i0 + 1) + self.offset - q * cols

    def last_row_at_least(self, j: int) -> int:
        """Largest index i with value(i) >= j; finite since values decrease."""
        k, cols = self.ctx.k, self.ctx.cols
        best = None
        for i0 in range(1, k + 1):
            q = (self.base.part(i0) + self.offset - j) // cols
            i = self.offset + q * k + i0
            if best is None or i > best:
                best = i
        return best


def loop_leq(lower: CylindricLoop, upper: CylindricLoop) -> bool:
    """Pointwise comparison; one period of indices decides it."""
    if lower.ctx != upper.ctx:
        raise ContextMismatch("loops live over different contexts")
    return all(lower.value(i) <= upper.value(i) for i in range(1, lower.ctx.k + 1))


def down_transform(loop: CylindricLoop) -> CylindricLoop:
    """Shift the loop k steps South: rotate the word by k, bump the offset.

    The image traces the same loop on the torus.
    """
    ctx = loop.ctx
    return CylindricLoop(
        cyclic_shift(loop.base, ctx, ctx.k),
        loop.offset + diag(loop.base, ctx, 0),
        ctx,
    )


def up_transform(loop: CylindricLoop) -> CylindricLoop:
    """Inverse of down_transform."""
    ctx = loop.ctx
    base = cyclic_shift(loop.base, ctx, -ctx.k)
    return CylindricLoop(base, loop.offset - diag(base, ctx, 0), ctx)


def torus_equivalent(a: CylindricLoop, b: CylindricLoop) -> bool:
    """True when the two loops trace the same closed loop on the torus.

    Equivalent loops differ by iterating down_transform; n steps in either
    direction suffice because the base returns to itself by then.
    """
    if a.ctx != b.ctx:
        raise ContextMismatch("loops live over different contexts")
    cur = a
    for _ in range(a.ctx.n + 1):
        if cur == b:
            return True
        cur = down_transform(cur)
    cur = a
    for _ in range(a.ctx.n):
        cur = up_transform(cur)
        if cur == b:
            return True
    return False


class EmptyShape:
    """Marker for a shape whose region is empty because containment fails."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "EmptyShape()"


EMPTY = EmptyShape()


@dataclass(frozen=True)
class CylindricShape:
    """The region between the loops lam[d + shift] and mu[shift].

    The normalized data (lam, d, mu) determines every counting statistic;
    shift records a whole-shape South-East translation and only moves the
    embedding into the cylinder and torus.  Complements produce nonzero
    shifts so that their cells are literally complementary.
    """

    lam: Partition
    d: int
    mu: Partition
    ctx: GrassContext
    shift: int = 0

    def __post_init__(self):
        self.ctx.require_fits(self.lam, self.mu)
        require_int(self.d, "offset difference d", nonnegative=True)
        require_int(self.shift, "shape shift")

    @property
    def upper(self) -> CylindricLoop:
        return CylindricLoop(self.lam, self.d + self.shift, self.ctx)

    @property
    def lower(self) -> CylindricLoop:
        return CylindricLoop(self.mu, self.shift, self.ctx)

    @property
    def size(self) -> int:
        return self.lam.size - self.mu.size + self.d * self.ctx.n

    def row_length(self, i: int) -> int:
        return self.upper.value(i) - self.lower.value(i)

    def column_count(self, j: int) -> int:
        """Cells in cylinder column j; periodic in j with period n-k."""
        return self.upper.last_row_at_least(j) - self.lower.last_row_at_least(j)

    def cells(self) -> Iterator[tuple[int, int]]:
        """One fundamental-domain cell per cylinder cell, rows 1..k."""
        for i in range(1, self.ctx.k + 1):
            for j in range(self.lower.value(i) + 1, self.upper.value(i) + 1):
                yield (i, j)


def make_shape(
    lam: Partition, d: int, mu: Partition, ctx: GrassContext
) -> CylindricShape | EmptyShape:
    """Build lam/d/mu, or the empty marker when the loops are not nested."""
    shape = CylindricShape(lam, d, mu, ctx)
    return shape if loop_leq(shape.lower, shape.upper) else EMPTY


def is_toric(shape: CylindricShape) -> bool:
    """True when the region embeds injectively in the torus.

    The upper loop must stay below the South-shifted copy of the lower loop.
    """
    return loop_leq(shape.upper, down_transform(shape.lower))


def _toric_by_columns(shape: CylindricShape) -> bool:
    return all(shape.column_count(j) <= shape.ctx.k for j in range(1, shape.ctx.cols + 1))


def _toric_by_rows(shape: CylindricShape) -> bool:
    return all(shape.row_length(i) <= shape.ctx.cols for i in range(1, shape.ctx.k + 1))


def is_strip(shape: CylindricShape, direction: Direction) -> bool:
    """Horizontal: every column holds at most one cell; vertical: every row does."""
    if direction == "horizontal":
        return all(shape.column_count(j) <= 1 for j in range(1, shape.ctx.cols + 1))
    if direction == "vertical":
        return all(shape.row_length(i) <= 1 for i in range(1, shape.ctx.k + 1))
    raise QGrassError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")


def torus_cells(shape: CylindricShape) -> set[tuple[int, int]]:
    """Image of the region in the k x (n-k) torus; injective only for toric shapes."""
    k, cols = shape.ctx.k, shape.ctx.cols
    return {((i - 1) % k, (j - 1) % cols) for i, j in shape.cells()}


def complement_shape(shape: CylindricShape) -> CylindricShape:
    """The toric shape covering exactly the torus cells the input leaves free.

    The upper loop is the South-shifted copy of the input's lower loop and
    the lower loop is the input's upper loop, so the result is anchored at
    shift d + shift rather than renormalized.
    """
    if not is_toric(shape):
        raise NotToric(f"{shape!r} does not embed in the torus")
    ctx = shape.ctx
    new_lam = cyclic_shift(shape.mu, ctx, ctx.k)
    new_d = diag(shape.mu, ctx, 0) - shape.d
    result = CylindricShape(new_lam, new_d, shape.lam, ctx, shape.d + shape.shift)
    assert loop_leq(result.lower, result.upper)
    return result


def render_ascii(shape: CylindricShape) -> str:
    """Draw the torus projection of the region; digits mark overlapping cells."""
    k, cols = shape.ctx.k, shape.ctx.cols
    grid = [[0] * cols for _ in range(k)]
    for i, j in shape.cells():
        grid[(i - 1) % k][(j - 1) % cols] += 1
    def mark(c):
        return "." if c == 0 else "#" if c == 1 else str(c % 10)
    return "\n".join("".join(mark(c) for c in row) for row in grid)


def strip_successors(
    loop: CylindricLoop, size: int, direction: Direction
) -> list[CylindricLoop]:
    """All loops above the given one whose quotient is a strip of the given size.

    The offset increase is 0 or 1: a strip meets each diagonal at most once.
    QGrassError once the enumeration passes tableaux.TORIC_BUDGET strip steps.
    """
    if direction not in ("horizontal", "vertical"):
        raise QGrassError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")
    ctx = loop.ctx
    raw = _strip_successors_raw(loop.base.parts, ctx.k, ctx.cols, size, direction)
    return [CylindricLoop(_partition(parts), loop.offset + dinc, ctx) for parts, dinc in raw]


@dataclass(frozen=True)
class TableauChain:
    """A semi-standard cylindric tableau, as its chain of horizontal strips."""

    loops: tuple[CylindricLoop, ...]
    weights: tuple[int, ...]


def enumerate_tableaux(shape: CylindricShape, max_entry: int) -> Iterator[TableauChain]:
    """Stream every tableau chain of the given shape with entries 1..max_entry."""
    ctx = shape.ctx
    target = CylindricLoop(shape.lam, shape.d, ctx)
    start = CylindricLoop(shape.mu, 0, ctx)

    def walk(chain: list[CylindricLoop], weights: list[int]) -> Iterator[TableauChain]:
        if len(weights) == max_entry:
            if chain[-1] == target:
                yield TableauChain(tuple(chain), tuple(weights))
            return
        placed = sum(weights)
        for step in range(shape.size - placed + 1):
            for succ in strip_successors(chain[-1], step, "horizontal"):
                if succ.offset > shape.d:
                    continue
                chain.append(succ)
                weights.append(step)
                yield from walk(chain, weights)
                chain.pop()
                weights.pop()

    yield from walk([start], [])
