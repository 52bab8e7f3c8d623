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


@lru_cache(maxsize=None)
def _strip_successors_raw(
    base: tuple[int, ...], k: int, cols: int, size: int, direction: str
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(parts, offset increase) of every loop one strip of the given size above base.

    The new loop's row values u_1..u_k are listed over the old values
    m_1..m_k.  A horizontal strip interlaces, m_i <= u_i <= m_(i-1), with
    m_0 = m_k + (n-k) from the period; a vertical strip has
    m_i <= u_i <= m_i + 1 with u weakly decreasing.  The loop closes when
    u_1 <= u_k + (n-k).  The offset grows by 1 exactly when u_1 > n-k, and
    the base is then (u_2-1, ..., u_k-1, u_1-1-(n-k)).  Sizes below 0 or
    above the strip bound give no loop, size 0 gives base itself.
    """
    m = base + (0,) * (k - len(base))
    if direction == "horizontal":
        rows = [(m[i], m[i - 1] if i else m[-1] + cols) for i in range(k)]
    else:
        rows = [(p, p + 1) for p in m]
    # (u_1..u_i, cells of the strip still to place) for every admissible prefix.
    grown = [((), size)]
    for lo, hi in rows:
        grown = [
            (u + (v,), left - v + lo)
            for u, left in grown
            for v in range(lo, min(hi, lo + left, u[-1] if u else hi) + 1)
        ]
    found = []
    for u, left in grown:
        if left or u[0] > u[-1] + cols:
            continue
        if u[0] > cols:
            u, dinc = tuple(v - 1 for v in u[1:]) + (u[0] - 1 - cols,), 1
        else:
            dinc = 0
        # Weakly decreasing, so the nonzero parts are a prefix.
        found.append((tuple(v for v in u if v), dinc))
    return tuple(found)


def strip_successors(
    loop: CylindricLoop, size: int, direction: Direction
) -> list[CylindricLoop]:
    """All loops above the given one whose quotient is a strip of the given size.

    The offset increase is 0 or 1: a strip meets each diagonal at most once.
    """
    if direction not in ("horizontal", "vertical"):
        raise QGrassError(f"direction must be 'horizontal' or 'vertical', got {direction!r}")
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
