"""Littlewood-Richardson arithmetic and Schur-basis expansions.

Two independent code paths compute the same structure constants:

* ``lr_coefficient`` reads one cached free-content enumeration of lattice-word
  skew tableaux per shape, paying for all of it on a cold call; it is the
  auditable reference rule.
* products expand a whole row of coefficients at once by growing the larger
  factor through horizontal strips of the smaller one, with the ballot
  condition enforced between consecutive strips.

The test suite checks the two against each other exhaustively on small
inputs; the product path is the one fast enough for large boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

from . import tableaux
from .errors import NotContained, VarMismatch
from .partitions import (
    GrassContext,
    Meter,
    Partition,
    _partition,
    _partitions_into,
    format_terms,
    graded_key,
    masked_walk,
    require_int,
    require_partitions,
)
from .tableaux import TORIC_REFUSAL, grow_chains, loop_ids


@dataclass(frozen=True)
class SchurExpansion:
    """Finite integer combination of Schur polynomials in nvars variables."""

    nvars: int
    terms: Mapping[Partition, int] = field(default_factory=dict)

    def __post_init__(self):
        require_partitions(*self.terms)
        clean = {nu: c for nu, c in self.terms.items() if c != 0}
        for nu in clean:
            if len(nu) > self.nvars:
                raise VarMismatch(f"{nu!r} has more than {self.nvars} rows")
        object.__setattr__(self, "terms", clean)

    def coefficient(self, nu: Partition) -> int:
        require_partitions(nu)
        return self.terms.get(nu, 0)

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        return sorted(self.terms.items(), key=lambda t: graded_key(t[0].parts))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchurExpansion)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"partition": list(nu.parts), "coeff": c} for nu, c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        return format_terms((c, 0, nu.parts) for nu, c in self.sorted_terms())


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The multiplicity of s_nu in s_lam * s_mu, by the lattice-word rule.

    Counts fillings of the skew diagram nu/lam with content mu that weakly
    increase along rows, strictly increase down columns, and whose reverse
    reading word is a ballot sequence.  Returns 0 whenever sizes or
    containment rule the coefficient out.  A cold call enumerates nu/lam
    for every content at once, several times the cost of content mu alone.
    """
    require_partitions(lam, mu, nu)
    return _lr_count(lam.parts, mu.parts, nu.parts)


def _lr_count(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    return _lr_by_content(lam, nu).get(mu, 0)


@lru_cache(maxsize=None)
def _lr_by_content(lam: tuple[int, ...], nu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{mu: number of lattice-word fillings of nu/lam with content mu}; {} unless lam <= nu.

    The ballot rule lets a value exceed the largest one placed so far by at most one.
    """
    rows = len(nu)
    if len(lam) > rows or any(part > nu[i] for i, part in enumerate(lam)):
        return {}
    # Reverse reading order: top to bottom, right to left within a row.
    cells = []
    for r in range(rows):
        lo = lam[r] if r < len(lam) else 0
        for c in range(nu[r] - 1, lo - 1, -1):
            cells.append((r, c))
    entry: dict[tuple[int, int], int] = {}
    counts = [0] * (len(cells) + 2)
    out: dict[tuple[int, ...], int] = {}

    def fill(pos: int, top: int) -> None:
        if pos == len(cells):
            mu = tuple(counts[1 : top + 1])
            out[mu] = out.get(mu, 0) + 1
            return
        r, c = cells[pos]
        hi = min(top + 1, entry.get((r, c + 1), top + 1))
        for v in range(entry.get((r - 1, c), 0) + 1, hi + 1):
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            entry[(r, c)] = v
            counts[v] += 1
            fill(pos + 1, max(top, v))
            counts[v] -= 1
        entry.pop((r, c), None)

    fill(0, 0)
    return out


@lru_cache(maxsize=None)
def _mult_basis(
    lam: tuple[int, ...], mu: tuple[int, ...], cap: int
) -> dict[tuple[int, ...], int]:
    """Expand s_lam * s_mu keeping at most cap rows.

    Grows lam by horizontal strips of sizes mu_1, mu_2, ... subject to the
    ballot condition between consecutive strips; each completed chain is one
    lattice-word tableau, so the leaf count at nu equals the coefficient.

    The chains are enumerated by an odometer over the (strip i, row j)
    positions, without recursion.  Each position gets its range of added
    cells directly, as in the strip growth of Buch's lrcalc: at most the
    cells left in the strip, the room under the old row above and the
    ballot slack; at least what the rows below cannot hold under their old
    rows.  So the last row of a strip is forced, and a position left with an
    empty range (by the ballot slack, or a strip longer than the rows it may
    enter) backs up at once.
    """
    m = len(mu)
    # nu contains both factors, so neither may have more than cap rows.
    if len(lam) > cap or m > cap:
        return {}

    out: dict[tuple[int, ...], int] = {}
    p = list(lam) + [0] * (cap - len(lam))
    last = cap - 1
    # The ballot condition keeps strip i out of the rows above row i.
    pos_i = [i for i in range(m) for _ in range(i, cap)]
    pos_j = [j for i in range(m) for j in range(i, cap)]
    end = len(pos_i)
    least = [0] * end
    chosen = [0] * end
    # base[i]: the shape before strip i, taken when strip i starts;
    # cum[i][j]: cells of strip i in rows < j.
    base = [p] * m
    cum = [[0] * (cap + 1) for _ in range(m)]
    t = 0
    while True:
        if t < end:
            i = pos_i[t]
            j = pos_j[t]
            if j == i:
                b = base[i] = p[:]
            else:
                b = base[i]
            placed = cum[i][j]
            budget = mu[i] - placed
            a = budget
            if j:
                room = b[j - 1] - b[j]
                if room < a:
                    a = room
            if i:
                slack = cum[i - 1][j] - placed
                if slack < a:
                    a = slack
            low = budget - b[j] + b[last]
            if low < 0:
                low = 0
            if a >= low:
                least[t] = low
                chosen[t] = a
                p[j] = b[j] + a
                cum[i][j + 1] = placed + a
                t += 1
                continue
        else:
            nu = tuple(p)
            while nu and nu[-1] == 0:
                nu = nu[:-1]
            out[nu] = out.get(nu, 0) + 1
        # Back up to the latest position that can still take one cell less.
        t -= 1
        while t >= 0 and chosen[t] == least[t]:
            p[pos_j[t]] = base[pos_i[t]][pos_j[t]]
            t -= 1
        if t < 0:
            break
        i = pos_i[t]
        j = pos_j[t]
        a = chosen[t] = chosen[t] - 1
        p[j] = base[i][j] + a
        cum[i][j + 1] = cum[i][j] + a
        t += 1
    return out


def _mult_basis_canonical(
    a: tuple[int, ...], b: tuple[int, ...], cap: int
) -> dict[tuple[int, ...], int]:
    # The product is symmetric; keep one cache entry per unordered pair and
    # let the factor with fewer cells supply the strips.  No term has more than
    # len(a) + len(b) rows, so a larger cap only lengthens the odometer.
    if (sum(a), len(a), a) < (sum(b), len(b), b):
        a, b = b, a
    return _mult_basis(a, b, min(cap, len(a) + len(b)))


def schur_product(
    f: SchurExpansion, g: SchurExpansion, row_cap: int | None = None
) -> SchurExpansion:
    """Bilinear product of expansions; rows beyond row_cap (or nvars) vanish."""
    if f.nvars != g.nvars:
        raise VarMismatch(f"cannot multiply expansions in {f.nvars} and {g.nvars} variables")
    cap = f.nvars if row_cap is None else min(row_cap, f.nvars)
    acc: dict[Partition, int] = {}
    for lam, a in f.terms.items():
        for mu, b in g.terms.items():
            for nu, c in _mult_basis_canonical(lam.parts, mu.parts, cap).items():
                key = _partition(nu)
                acc[key] = acc.get(key, 0) + a * b * c
    return SchurExpansion(f.nvars, acc)


def skew_expand(lam: Partition, mu: Partition, nvars: int) -> SchurExpansion:
    """Schur expansion of the skew polynomial for lam/mu in nvars variables."""
    require_int(nvars, "nvars", nonnegative=True, error=VarMismatch)
    require_partitions(lam, mu)
    if not lam.contains(mu):
        raise NotContained(f"{mu!r} is not contained in {lam!r}")
    row = _lr_by_content(mu.parts, lam.parts)
    return SchurExpansion(nvars, {_partition(nu): c for nu, c in row.items() if len(nu) <= nvars})


def _merge_counts(acc: dict, more: dict) -> dict:
    for key, c in more.items():
        acc[key] = acc.get(key, 0) + c
    return acc


def _toric_walk(
    k: int, cols: int, mu: tuple[int, ...], dmax: int, nus, size: int, nvars: int, budget
):
    """Yield (nu, chains) for each nu of nus, in order.

    nus holds partitions of size into at most nvars parts of at most cols, in
    _partitions_into order: that whole stream, or one nu.

    The coefficient of s_nu in lam/d/mu is the sum over w of
    sgn(w) * K(lam/d/mu, beta_w), beta_w,i = nu_i - i + w(i): the
    len(nu) x len(nu) determinant whose entry (i, j) grows every chain by a
    horizontal strip of nu_i - i + j cells.  (In more variables a row
    i > len(nu) is the empty strip on the diagonal and zero left of it, so
    only permutations fixing it survive.)  chains is that determinant's
    full-mask chain DP from mu at offset 0, keeping offsets up to dmax, or
    None if it is zero; its count at the state of lam[d] is the
    coefficient, for every lam and every d <= dmax at once.  It raises
    QGrassError once the strip steps grow_chains spends and 16 per row of a
    nu, checked every 4096 and at the end, pass budget: never mid-LoopIds row.

    The nu come in lexicographic order, so masked_walk expands each prefix
    once for all its extensions.  Row r with nu_r = v takes column j from
    r - v (a strip of at least 0 cells) to cols + r - v (at most n-k cells),
    and no further than nvars or r plus the cells left, as nu has at most
    that many rows.  Later rows have parts at most v, so they start at
    column r + 1 - v or right of it: row r leaves no column left of that free.
    One nu walked with nvars = len(nu) thus expands no column outside its
    full mask.
    """
    loops = loop_ids(k, cols)
    meter = Meter(budget, TORIC_REFUSAL)

    def row(nu, i):
        v = nu[i - 1]
        meter.pending += 16  # the row's Laplace step, which runs over no states too
        if meter.pending > 4096:
            meter.check()

        def entry(chains, i, j, sign):
            return grow_chains(chains, v - i + j, dmax, loops, sign, meter) or None

        columns = range(max(1, i - v), min(nvars, i + size - sum(nu[:i]), cols + i - v) + 1)
        return columns, (1 << max(0, i - v)) - 1, entry

    start = {loops.state(mu, 0): 1}
    yield from masked_walk(nus, start, row, _merge_counts)
    meter.check()


@lru_cache(maxsize=None)
def _toric_rows(
    k: int, n: int, mu: tuple[int, ...], size: int, nvars: int
) -> dict[tuple[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """{(lam, d): {nu: nonzero coefficient of s_nu in lam/d/mu}, in walk order}, |nu| = size.

    A horizontal strip has at most n-k cells, so for nu_1 > n-k every entry
    of the first determinant row is zero.  Only nu with nu_1 <= n-k are
    visited, at most the partitions in an nvars x (n-k) box, whatever d is:
    in k variables, the box partitions.

    Offsets never decrease along a chain, and a loop at offset e after
    |nu| cells has |mu| + |nu| - e*n cells, so every chain of the walk ends
    at an offset up to (|mu| + |nu|) // n.  One walk therefore serves every
    (lam, d) with the same mu and |nu|: each key has lam in the box and
    |lam| + d*n = |mu| + |nu|.  An empty shape lam/d/mu needs no test: no
    chain reaches lam[d], so it has no key.  Every walk, verify's too, spends
    at most tableaux.TORIC_BUDGET strip steps, read at call time; a refused
    walk raises, so the memo stores nothing for it.
    """
    loops = loop_ids(k, n - k)
    rows: dict[int, dict[tuple[int, ...], int]] = {}
    nus, dmax = _partitions_into(size, nvars, n - k), (sum(mu) + size) // n
    for nu, chains in _toric_walk(k, n - k, mu, dmax, nus, size, nvars, tableaux.TORIC_BUDGET):
        for state, c in (chains or {}).items():
            if c:
                rows.setdefault(state, {})[nu] = c
    return {loops.loop(state): row for state, row in rows.items()}


@lru_cache(maxsize=None)
def _toric_query(
    k: int, n: int, mu: tuple[int, ...], nu: tuple[int, ...], d: int
) -> dict[tuple[int, ...], int]:
    """{lam: nonzero coefficient of s_nu in lam/d/mu in k variables}, for this nu alone.

    The walk of the one key nu, its chains capped at offset d: the count at the
    state of lam[d] is the coefficient.  It spends at most tableaux.TORIC_BUDGET
    strip steps, read at call time; a refused walk raises, so the memo stores
    nothing for it.
    """
    loops, out = loop_ids(k, n - k), {}
    for _, chains in _toric_walk(k, n - k, mu, d, (nu,), sum(nu), len(nu), tableaux.TORIC_BUDGET):
        for state, c in (chains or {}).items():
            lam, e = loops.loop(state)
            if c and e == d:
                out[lam] = c
    return out


def toric_schur_expand(
    lam: Partition, d: int, mu: Partition, ctx: GrassContext, nvars: int
) -> SchurExpansion:
    """Schur expansion of the cylindric weight generating function in nvars variables.

    For nvars = k and a toric shape the coefficients are the structure
    constants of the quantum product; for a valid non-toric shape with
    nvars = k the expansion is identically zero.  QGrassError once the walk
    passes its budget of strip steps of work (rows earlier walks filled are free).
    """
    require_int(nvars, "nvars", nonnegative=True, error=VarMismatch)
    ctx.require_fits(lam, mu)
    require_int(d, "offset difference d", nonnegative=True)
    size = lam.size + d * ctx.n - mu.size
    if size < 0:
        return SchurExpansion(nvars)
    row = _toric_rows(ctx.k, ctx.n, mu.parts, size, nvars).get((lam.parts, d), {})
    return SchurExpansion(nvars, {_partition(nu): c for nu, c in row.items()})
