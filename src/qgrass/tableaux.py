"""Strip growth of cylindric loops, the strip-chain DP, and quantum Kostka numbers, on ints.

A semi-standard cylindric tableau is a chain of loops, each one horizontal
strip above the one before, so counting tableaux reduces to counting chains.
A loop here is its base parts and offset, and the chain DP keeps it as one
int: its offset above an id interned per (k, n-k).  The objects are in cylindric.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .partitions import GrassContext, Meter, Partition, require_int


def _strip_successors_raw(
    base: tuple[int, ...], k: int, cols: int, size: int, direction: str, meter=None
) -> list[tuple[tuple[int, ...], int]]:
    """(parts, offset increase) of every loop one strip of the given size above base.

    The new loop's row values u_1..u_k are listed over the old values
    m_1..m_k.  A horizontal strip interlaces, m_i <= u_i <= m_(i-1), with
    m_0 = m_k + (n-k) from the period; a vertical strip has
    m_i <= u_i <= m_i + 1 with u weakly decreasing.  The loop closes when
    u_1 <= u_k + (n-k).  The offset grows by 1 exactly when u_1 > n-k, and
    the base is then (u_2-1, ..., u_k-1, u_1-1-(n-k)).  Sizes below 0 or
    above the strip bound give no loop, size 0 gives base itself.  A strip
    enters at most one row (horizontal) or size rows below base, so only rows
    1..top are walked: if top < k, u_top and every row below it hold 0.
    meter is charged each row's work, one step and, per prefix, two plus
    one per four cells, so it can stop the enumeration part way; without
    one, the call runs under a meter of its own of TORIC_BUDGET strip steps,
    read at call time, so quantum_pieri and strip_successors are bounded too.
    """
    if meter is None:
        meter = Meter(TORIC_BUDGET, TORIC_REFUSAL)
    top = min(k, len(base) + size + 1)
    m = base + (0,) * (top - len(base))
    if direction == "horizontal":
        last = base[-1] if len(base) == k else 0
        rows = [(m[i], m[i - 1] if i else last + cols) for i in range(top)]
    else:
        rows = [(p, p + 1) for p in m[:top]]
    # (u_1..u_i, cells of the strip still to place) for every admissible prefix.
    grown = [((), size)]
    for i, (lo, hi) in enumerate(rows, 1):
        grown = [
            (u + (v,), left - v + lo)
            for u, left in grown
            for v in range(lo, min(hi, lo + left, u[-1] if u else hi) + 1)
        ]
        meter.check(1 + len(grown) * (2 + i // 4))
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
    return found


# A chain state is one int, offset << _ID_BITS | loop id.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1
# The strip steps (see grow_chains) that one walk may spend, a toric walk or a Kostka count.
TORIC_BUDGET = 2**22
TORIC_REFUSAL = "toric walk: over the budget of {} strip steps"


class LoopIds:
    """The loops of one (k, n-k) as interned ids, in the order first reached.

    Only the loops some chain reaches get an id, so a context too large to
    enumerate costs what its chains visit.  successors[size][id] holds, for
    each loop one horizontal strip of that size above the loop, the state of
    that loop at its offset increase, so a state steps to a successor by one
    addition.  The rows come from _strip_successors_raw on first use.
    """

    def __init__(self, k: int, cols: int):
        self.k, self.cols = k, cols
        self.id: dict[tuple[int, ...], int] = {}
        self.parts: list[tuple[int, ...]] = []
        self.successors: list[dict[int, tuple[int, ...]]] = [{} for _ in range(cols + 1)]

    def state(self, parts: tuple[int, ...], offset: int) -> int:
        """The state of the loop parts[offset]."""
        found = self.id.get(parts)
        if found is None:
            found = self.id[parts] = len(self.parts)
            self.parts.append(parts)
        return offset << _ID_BITS | found

    def loop(self, state: int) -> tuple[tuple[int, ...], int]:
        """(base parts, offset) of a state."""
        return self.parts[state & _ID_MASK], state >> _ID_BITS

    def fill(self, loop: int, size: int, meter: Meter) -> tuple[int, ...]:
        raw = _strip_successors_raw(self.parts[loop], self.k, self.cols, size, "horizontal", meter)
        row = self.successors[size][loop] = tuple(self.state(p, dinc) for p, dinc in raw)
        return row


@lru_cache(maxsize=None)
def loop_ids(k: int, cols: int) -> LoopIds:
    return LoopIds(k, cols)


def grow_chains(chains: dict, size: int, d: int, loops: LoopIds, sign: int, meter: Meter) -> dict:
    """One step of the strip-chain DP: add a horizontal strip of the given size.

    chains maps a chain's last loop, as a state int, to a signed count of
    chains; each count, times sign, passes to every loop one strip above
    whose offset stays at most d.  A count that has cancelled to 0 passes
    nothing.  The size is between 0 and n-k.  meter counts the step's work,
    16 strip steps and one per successor a count passes to, and checks it
    every 4096; a successor row filled on the way charges its own.
    """
    out = {}
    table = loops.successors[size]
    limit = (d + 1) << _ID_BITS
    work = 16
    for state, count in chains.items():
        if not count:
            continue
        loop = state & _ID_MASK
        row = table.get(loop)
        if row is None:
            row = loops.fill(loop, size, meter)
        work += len(row)
        if work > 4096:
            meter.check(work)
            work = 0
        state -= loop
        if sign < 0:
            count = -count
        for step in row:
            t = state + step
            if t < limit:
                out[t] = out.get(t, 0) + count
    meter.pending += work
    if meter.pending > 4096:
        meter.check()
    return out


def quantum_kostka(
    lam: Partition, d: int, mu: Partition, beta: Sequence[int], ctx: GrassContext
) -> int:
    """Number of semi-standard cylindric tableaux of shape lam/d/mu and weight beta.

    Compositions with negative entries, entries above n-k, or the wrong total
    count zero tableaux; so does an empty shape, which no chain reaches.
    QGrassError once the chain DP passes TORIC_BUDGET strip steps, read at call time.
    """
    ctx.require_fits(lam, mu)
    require_int(d, "offset difference d", nonnegative=True)
    beta = tuple(beta)
    for b in beta:
        require_int(b, "weight entry")
    if any(b < 0 or b > ctx.cols for b in beta):
        return 0
    if sum(beta) != lam.size + d * ctx.n - mu.size:
        return 0
    loops = loop_ids(ctx.k, ctx.cols)
    chains, meter = {loops.state(mu.parts, 0): 1}, Meter(TORIC_BUDGET, TORIC_REFUSAL)
    for size in beta:
        chains = grow_chains(chains, size, d, loops, 1, meter)
    meter.check()
    return chains.get(loops.state(lam.parts, d), 0)
