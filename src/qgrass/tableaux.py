"""Strip growth of cylindric loops, tableau chains, and quantum Kostka numbers.

Semi-standard cylindric tableaux are encoded as chains of loops where each
consecutive quotient is a horizontal strip; the entry i occupies the i-th
strip.  Counting tableaux therefore reduces to counting chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .cylindric import EMPTY, CylindricLoop, CylindricShape, Direction, make_shape
from .errors import QGrassError
from .partitions import GrassContext, Partition


def _canonical(parts: list[int]) -> tuple[int, ...]:
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _h_successors_d0(mu: list[int], k: int, cols: int, size: int):
    """Horizontal strips inside the box: row r may grow up to row r-1's old value."""
    out = []
    new = mu[:]

    def grow(r, remaining):
        if r > k:
            if remaining == 0:
                out.append((_canonical(new[:]), 0))
            return
        hi = min(cols if r == 1 else mu[r - 2], mu[r - 1] + remaining)
        for v in range(mu[r - 1], hi + 1):
            new[r - 1] = v
            grow(r + 1, remaining - (v - mu[r - 1]))
        new[r - 1] = mu[r - 1]

    grow(1, size)
    return out


def _h_successors_d1(mu: list[int], k: int, cols: int, size: int):
    """Horizontal strips that wrap once: the new loop sits strictly below the old.

    Row bounds: new_i <= mu_i - 1 (no shared columns after the wrap) and
    new_i >= mu_{i+1} - 1 (nesting of the shifted loops).
    """
    n = k + cols
    total = sum(mu) + size - n
    if total < 0 or mu[k - 1] < 1:
        return []
    out = []
    new = [0] * k

    def grow(r, remaining):
        if r > k:
            if remaining == 0:
                out.append((_canonical(new[:]), 1))
            return
        lo = max(mu[r] - 1, 0) if r < k else 0
        hi = min(mu[r - 1] - 1, remaining)
        for v in range(lo, hi + 1):
            new[r - 1] = v
            grow(r + 1, remaining - v)

    grow(1, total)
    return out


def _v_successors_d0(mu: list[int], k: int, cols: int, size: int):
    """Vertical strips inside the box: each row grows by zero or one."""
    out = []
    new = mu[:]

    def grow(r, remaining):
        if r > k:
            if remaining == 0:
                out.append((_canonical(new[:]), 0))
            return
        for add in (0, 1):
            v = mu[r - 1] + add
            if add > remaining:
                continue
            if r == 1 and v > cols:
                continue
            if r > 1 and v > new[r - 2]:
                continue
            new[r - 1] = v
            grow(r + 1, remaining - add)
        new[r - 1] = mu[r - 1]

    grow(1, size)
    return out


def _v_successors_d1(mu: list[int], k: int, cols: int, size: int):
    """Vertical strips that wrap once; only loops with a full first row admit them.

    The wrapped row contributes exactly one cell and forces new_k = 0; row i+1
    of the region holds 0 or 1 cells via new_i in {mu_{i+1} - 1, mu_{i+1}}.
    """
    if mu[0] != cols or size < 1:
        return []
    out = []
    new = [0] * k

    def grow(r, remaining):
        if r > k - 1:
            if remaining == 0:
                new[k - 1] = 0
                out.append((_canonical(new[:]), 1))
            return
        for add in (0, 1):
            v = mu[r] - 1 + add
            if v < 0 or add > remaining:
                continue
            if r > 1 and v > new[r - 2]:
                continue
            new[r - 1] = v
            grow(r + 1, remaining - add)

    grow(1, size - 1)
    return out


@lru_cache(maxsize=None)
def _strip_successors_raw(
    base: tuple[int, ...], k: int, cols: int, size: int, direction: str
) -> tuple[tuple[tuple[int, ...], int], ...]:
    mu = list(base) + [0] * (k - len(base))
    if direction == "horizontal":
        if size > cols:
            return ()
        found = _h_successors_d0(mu, k, cols, size) + _h_successors_d1(mu, k, cols, size)
    else:
        if size > k:
            return ()
        found = _v_successors_d0(mu, k, cols, size) + _v_successors_d1(mu, k, cols, size)
    return tuple(found)


def strip_successors(
    loop: CylindricLoop, size: int, direction: Direction
) -> list[CylindricLoop]:
    """All loops above the given one whose quotient is a strip of the given size.

    The offset increase is 0 or 1: a strip meets each diagonal at most once.
    """
    if direction not in ("horizontal", "vertical"):
        raise QGrassError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")
    if size < 0:
        return []
    if size == 0:
        return [loop]
    ctx = loop.ctx
    return [
        CylindricLoop(Partition(parts), loop.offset + dinc, ctx)
        for parts, dinc in _strip_successors_raw(
            loop.base.parts, ctx.k, ctx.cols, size, direction
        )
    ]


@dataclass(frozen=True)
class TableauChain:
    """A semi-standard cylindric tableau, as its chain of horizontal strips."""

    loops: tuple[CylindricLoop, ...]
    weights: tuple[int, ...]


def grow_chains(chains: dict, size: int, d: int, k: int, cols: int, sign: int = 1) -> dict:
    """One step of the strip-chain DP: add a horizontal strip of the given size.

    chains maps a chain's last loop, as (base parts, offset), to a signed
    count of chains; each count, times sign, passes to every loop one strip
    above whose offset stays at most d.
    """
    out = {}
    for (base, off), count in chains.items():
        count *= sign
        for parts, dinc in _strip_successors_raw(base, k, cols, size, "horizontal"):
            if off + dinc <= d:
                key = (parts, off + dinc)
                out[key] = out.get(key, 0) + count
    return out


def quantum_kostka(
    lam: Partition,
    d: int,
    mu: Partition,
    beta: Sequence[int],
    ctx: GrassContext,
) -> int:
    """Number of semi-standard cylindric tableaux of shape lam/d/mu and weight beta.

    Compositions with negative entries, entries above n-k, or the wrong total
    count zero tableaux.
    """
    ctx.require_fits(lam)
    ctx.require_fits(mu)
    beta = tuple(beta)
    if any(b < 0 or b > ctx.cols for b in beta):
        return 0
    shape = make_shape(lam, d, mu, ctx)
    if shape is EMPTY or sum(beta) != shape.size:
        return 0
    chains = {(mu.parts, 0): 1}
    for size in beta:
        chains = grow_chains(chains, size, d, ctx.k, ctx.cols)
    return chains.get((lam.parts, d), 0)


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
