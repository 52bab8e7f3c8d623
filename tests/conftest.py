"""Shared independent oracles for the test suite.

Everything here recomputes quantities by direct definition-level
enumeration, deliberately avoiding the code paths under test.
"""

from __future__ import annotations

from itertools import product

from qgrass import GrassContext, Partition, complement, lr_coefficient


def brute_conjugate(lam: Partition) -> Partition:
    """Transpose by building the cell set."""
    cells = {(r, c) for r, p in enumerate(lam.parts) for c in range(p)}
    flipped = {(c, r) for r, c in cells}
    rows = {}
    for r, _ in flipped:
        rows[r] = rows.get(r, 0) + 1
    return Partition(sorted(rows.values(), reverse=True))


def planar_kostka(lam: Partition, mu: Partition, beta) -> int:
    """Count semi-standard fillings of the plane skew shape lam/mu, weight beta."""
    beta = tuple(beta)
    if sum(beta) != lam.size - mu.size or not lam.contains(mu):
        return 0
    cells = []
    for r in range(len(lam.parts)):
        for c in range(mu.part(r + 1), lam.parts[r]):
            cells.append((r, c))
    counts = [0] * len(beta)
    entry: dict[tuple[int, int], int] = {}
    total = 0

    def fill(pos: int) -> None:
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        r, c = cells[pos]
        lo = entry.get((r, c - 1), 1)
        above = entry.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, len(beta) + 1):
            if counts[v - 1] >= beta[v - 1]:
                continue
            entry[(r, c)] = v
            counts[v - 1] += 1
            fill(pos + 1)
            counts[v - 1] -= 1
        entry.pop((r, c), None)

    fill(0)
    return total


def schur_monomials(lam: Partition, nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of one Schur polynomial by direct SSYT enumeration."""
    out: dict[tuple[int, ...], int] = {}
    for beta in product(range(lam.size + 1), repeat=nvars):
        if sum(beta) != lam.size:
            continue
        count = planar_kostka(lam, Partition(), beta)
        if count:
            out[beta] = count
    return out


def poly_multiply(f: dict, g: dict) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
            if out[e] == 0:
                del out[e]
    return out


def poly_to_schur(poly: dict, nvars: int) -> dict[Partition, int]:
    """Re-expand a symmetric polynomial in the Schur basis by leading terms."""
    rest = dict(poly)
    out: dict[Partition, int] = {}
    while rest:
        lead = max(rest)
        assert all(a >= b for a, b in zip(lead, lead[1:])), "leading term not a partition"
        lam = Partition(lead)
        coeff = rest[lead]
        out[lam] = coeff
        for mono, c in schur_monomials(lam, nvars).items():
            e = rest.get(mono, 0) - coeff * c
            if e:
                rest[mono] = e
            else:
                rest.pop(mono, None)
    return out


def classical_triple(a: Partition, b: Partition, c: Partition, ctx: GrassContext) -> int:
    """Triple intersection number on the classical ring."""
    if a.size + b.size + c.size != ctx.k * ctx.cols:
        return 0
    return lr_coefficient(a, b, complement(c, ctx))


def _border_strip_removals(parts: tuple[int, ...], n: int):
    """All ways to peel one size-n border strip off a diagram, with heights."""
    rows = len(parts)

    def subparts(i, prefix, removed):
        """Sub-partitions mu of parts with exactly n cells removed."""
        if i == rows:
            if removed == n:
                yield tuple(prefix)
            return
        hi = parts[i] if i == 0 else min(parts[i], prefix[-1])
        for v in range(hi + 1):
            now = removed + parts[i] - v
            if now > n or now + sum(parts[i + 1:]) < n:
                continue
            prefix.append(v)
            yield from subparts(i + 1, prefix, now)
            prefix.pop()

    for mu in subparts(0, [], 0):
        cells = {
            (r, c) for r in range(rows) for c in range(mu[r], parts[r])
        }
        if any(
            (r + 1, c) in cells and (r, c + 1) in cells and (r + 1, c + 1) in cells
            for (r, c) in cells
        ):
            continue
        start = next(iter(cells))
        seen, stack = {start}, [start]
        while stack:
            r, c = stack.pop()
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != cells:
            continue
        yield Partition(mu), len({r for r, _ in cells}) - 1


def geometric_rimhook_reduce(tau: Partition, n: int):
    """Greedy geometric reduction: (core, removals, total height)."""
    cur, d, hsum = tau, 0, 0
    while True:
        first = next(_border_strip_removals(cur.parts, n), None)
        if first is None:
            return cur, d, hsum
        mu, h = first
        cur, d, hsum = mu, d + 1, hsum + h
