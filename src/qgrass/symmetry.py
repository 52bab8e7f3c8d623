"""Cyclic symmetry, the q-inverting duality, and the q-power interval.

The two involutions act on the localization of the ring (negative powers of
q allowed).  The interval of q-powers appearing in a product of two basis
classes is computed from prefix statistics of the boundary words in two
independent ways and cross-checked.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product
from operator import add, itemgetter, sub

from .errors import FormMismatch
from .partitions import (
    GrassContext,
    Partition,
    _bits_to_parts,
    _diag_table,
    _phi_table,
    _word_bits,
    basis_table,
    complement,
    cyclic_shift,
    diag,
    phi,
)
from .quantum import QuantumClass, _basis_qprod

TripleShift = tuple[int, int, int]


@dataclass(frozen=True)
class PowerInterval:
    """Closed integer interval of q-exponents."""

    dmin: int
    dmax: int

    def members(self) -> list[int]:
        return list(range(self.dmin, self.dmax + 1))

    def to_json_dict(self) -> dict:
        return {"dmin": self.dmin, "dmax": self.dmax}


@dataclass(frozen=True)
class EssentialInterval:
    """Feasible q-exponent window of a triple, with shifts achieving each end.

    At either endpoint the structure constant degenerates to a classical
    coefficient of the shifted triple.
    """

    dmin: int
    dmax: int
    argmin: TripleShift
    argmax: TripleShift


def duality_map(f: QuantumClass) -> QuantumClass:
    """q^d sigma_lam -> q^(-d) sigma_(complement of lam); an involution."""
    ctx = f.ctx
    terms = {
        (complement(lam, ctx), -d): c for (lam, d), c in f.terms.items()
    }
    return QuantumClass(ctx, terms, localized=True)


def strange_duality(f: QuantumClass) -> QuantumClass:
    """The normalized duality: a ring involution of the localization.

    Sends q^d sigma_lam to q^(-d - diag_0(lam)) times the class of the
    shifted complement, and q to 1/q.
    """
    ctx = f.ctx
    terms = {}
    for (lam, d), c in f.terms.items():
        image = cyclic_shift(complement(lam, ctx), ctx, ctx.cols)
        terms[(image, -d - diag(lam, ctx, 0))] = c
    return QuantumClass(ctx, terms, localized=True)


def dmin_dmax(lam: Partition, mu: Partition, ctx: GrassContext) -> PowerInterval:
    """Endpoints of the q-power interval of sigma_lam * sigma_mu.

    Computed from the prefix-sum form and the overlapping-diagonals form;
    the two must agree.
    """
    ctx.require_fits(lam)
    ctx.require_fits(mu)
    n, k = ctx.n, ctx.k
    # phi(i + n) = phi(i) + k makes both objective functions n-periodic in i,
    # so scanning one window of n consecutive shifts is exhaustive.  It also gives
    # phi(mu, m) for m in 0..2n from the table of 0..n, and so phi(mu, -i) =
    # ext[n - i] - k and phi(mu, k - n - i) = ext[k + n - i] - 2k for i in 0..n-1.
    phi_lam, phi_mu = _phi_table(lam.parts, k, n), _phi_table(mu.parts, k, n)
    ext = phi_mu + tuple(p + k for p in phi_mu[1:])
    lo = k - min(map(add, phi_lam, ext[n:0:-1]))
    hi = 2 * k - max(map(add, phi_lam, ext[k + n:k:-1]))

    # The complement of mu reverses its word; the shift of lam by k rotates it left by k.
    # Diagonal tables run over the indices -k..n-k.
    word = _word_bits(lam.parts, k, n)
    diag_lam = _diag_table(lam.parts, k, n)
    diag_mu_c = _diag_table(_bits_to_parts(_word_bits(mu.parts, k, n)[::-1], k), k, n)
    diag_lam_s = _diag_table(_bits_to_parts(word[k:] + word[:k], k), k, n)
    lo_diag = max(map(sub, diag_lam, diag_mu_c))
    hi_diag = diag_lam[k] - max(map(sub, diag_mu_c, diag_lam_s))
    if (lo, hi) != (lo_diag, hi_diag):
        raise FormMismatch(
            f"prefix form ({lo},{hi}) and diagonal form ({lo_diag},{hi_diag}) disagree"
        )
    return PowerInterval(lo, hi)


def essential_interval(
    lam: Partition, mu: Partition, nu: Partition, ctx: GrassContext
) -> EssentialInterval:
    """Feasible window for the triple, scanning shifts over one period each."""
    for p in (lam, mu, nu):
        ctx.require_fits(p)
    n = ctx.n
    # Shifting a (or b) by n adds k to its prefix term and removes k from the
    # term of c = -a-b (or c = k-n-a-b), so both objectives are n-periodic in
    # each of a and b; one n-window per shift is exhaustive.
    best_lo = None
    best_hi = None
    arg_lo = arg_hi = (0, 0, 0)
    for a in range(n):
        pa = phi(lam, ctx, a)
        for b in range(n):
            pb = phi(mu, ctx, b)
            v = pa + pb + phi(nu, ctx, -a - b)
            if best_lo is None or v < best_lo:
                best_lo, arg_lo = v, (a, b, -a - b)
            w = pa + pb + phi(nu, ctx, ctx.k - n - a - b)
            if best_hi is None or w > best_hi:
                best_hi, arg_hi = w, (a, b, ctx.k - n - a - b)
    return EssentialInterval(-best_lo, -best_hi, arg_lo, arg_hi)


def q_power_set(lam: Partition, mu: Partition, ctx: GrassContext) -> set[int]:
    """All q-exponents with nonzero coefficient in sigma_lam * sigma_mu."""
    ctx.require_fits(lam)
    ctx.require_fits(mu)
    return {d for (_, d) in _basis_qprod(ctx, lam.parts, mu.parts)}


def gw_triple(
    lam: Partition, mu: Partition, nu: Partition, ctx: GrassContext
) -> tuple[int, int]:
    """The triple invariant as a monomial (q-degree, coefficient).

    The degree is pinned by the sizes; when it is not a nonnegative integer
    the invariant is zero and the returned degree is 0.
    """
    for p in (lam, mu, nu):
        ctx.require_fits(p)
    num = lam.size + mu.size + nu.size - ctx.k * ctx.cols
    d, rem = divmod(num, ctx.n)
    if rem != 0 or d < 0:
        return (0, 0)
    coeff = _basis_qprod(ctx, lam.parts, mu.parts).get(
        (complement(nu, ctx).parts, d), 0
    )
    return (d, coeff)


def hidden_symmetry_check(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    a: int,
    b: int,
    c: int,
    ctx: GrassContext,
) -> bool:
    """Cyclic shifting the triple by (a, b, c) with a+b+c = 0 rescales by a q power."""
    if a + b + c != 0:
        raise FormMismatch(f"shifts must sum to zero, got {a}+{b}+{c}")
    d0, c0 = gw_triple(lam, mu, nu, ctx)
    d1, c1 = gw_triple(
        cyclic_shift(lam, ctx, a),
        cyclic_shift(mu, ctx, b),
        cyclic_shift(nu, ctx, c),
        ctx,
    )
    if c0 != c1:
        return False
    if c0 == 0:
        return True
    shift = phi(lam, ctx, a) + phi(mu, ctx, b) + phi(nu, ctx, c)
    return d1 == d0 + shift


def product_rows(ctx: GrassContext) -> list[tuple[int, ...]]:
    """Row i*N + j holds, at basis index l, the coefficient of q^d sigma_l in sigma_i * sigma_j.

    Equal rows are one object; FormMismatch unless every term has d*n = |i| + |j| - |l|.
    """
    table = basis_table(ctx)
    n, parts, size, index = ctx.n, table.parts, table.size, table.index
    rows, pool = [], {}
    for i, j in product(range(len(parts)), repeat=2):
        row = [0] * len(parts)
        for (nu, d), c in _basis_qprod(ctx, parts[i], parts[j]).items():
            l = index[nu]
            if d * n != size[i] + size[j] - size[l]:
                raise FormMismatch(f"q^{d} sigma_{nu} in {parts[i]} * {parts[j]}: wrong degree")
            row[l] = c
        row = tuple(row)
        rows.append(pool.setdefault(row, row))
    return rows


def row_pool(rows: list[tuple[int, ...]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each distinct row object of a table, mapped to itself: a pool that more rows can join."""
    return {row: row for row in {id(row): row for row in rows}.values()}


def s3_symmetry_sweep(ctx: GrassContext, rows: list[tuple[int, ...]]) -> tuple | None:
    """gw_triple(i, j, l) = rows[i*N + j][complement[l]] is invariant under permuting the triple.

    Returns the first failing (lam, mu, nu) as parts tuples, or None.
    """
    table = basis_table(ctx)
    dim, comp = len(table.parts), table.complement
    for i, j, l in combinations_with_replacement(range(dim), 3):
        base = rows[i * dim + j][comp[l]]
        for x, y, z in permutations((i, j, l)):
            if rows[x * dim + y][comp[z]] != base:
                return (table.parts[i], table.parts[j], table.parts[l])
    return None


def hidden_symmetry_sweep(ctx: GrassContext, rows: list[tuple[int, ...]]) -> tuple | None:
    """hidden_symmetry_check for every ordered basis triple and every a, b in 0..n-1.

    Its degree half holds by the sizes once |shift_a(x)| - |x| = n*phi(x, a) - k*a for every
    class x and a, checked first (FormMismatch); then row (i, j) must equal the moved row of
    (shift_a i, shift_b j).  Gives the first failing (lam, mu, nu, a, b) as parts tuples, or None.
    """
    table = basis_table(ctx)
    n, k, dim = ctx.n, ctx.k, len(table.parts)
    shift, prefix, size, comp = table.shift, table.phi, table.size, table.complement
    for x, a in product(range(dim), range(n)):
        if size[shift[x][a]] - size[x] != n * prefix[x][a] - k * a:
            raise FormMismatch(f"shifting {table.parts[x]} by {a} disagrees with phi")
    # Entry m of a row moved by c is entry comp(shift_c(comp m)); 1 <= k < n gives N >= 2, so
    # the gather returns a tuple, as the rows are.  Each distinct row moves once per c, to its
    # equal row or None, so a match is an identity.
    pool = row_pool(rows)
    gathers = [itemgetter(*[comp[shift[x][c]] for x in comp]) for c in range(n)]
    movers = [(g, {id(row): pool.get(g(row)) for row in pool.values()}) for g in gathers]
    for a, b in product(range(n), repeat=2):
        gather, moved = movers[(-a - b) % n]
        for i, base in enumerate(s[a] * dim for s in shift):
            for j in range(dim):
                row0, source = rows[i * dim + j], rows[base + shift[j][b]]
                if moved.get(id(source)) is not row0 and (row1 := gather(source)) != row0:
                    l = next(l for l in range(dim) if row1[comp[l]] != row0[comp[l]])
                    return (table.parts[i], table.parts[j], table.parts[l], a, b)
    return None


def _duality_sweep(
    ctx: GrassContext,
    rows: list[tuple[int, ...]],
    pair: Sequence[int],
    entry: Sequence[int],
    defect: Sequence[int],
    offset: Callable[[int, int], int],
) -> tuple | None:
    """Row (pair[i], pair[j]) must be row (i, j) with entry l moved to entry[l], for i <= j.

    The q-degrees of the two sides agree at a nonzero entry l exactly when
    defect[l] == offset(i, j).  When defect is zero on every class, so is offset, and only
    rows are compared, each distinct row moved once; otherwise every pair also tests the
    degrees of its nonzero entries.  Gives the first failing (lam, mu) as parts tuples, or None.
    """
    table = basis_table(ctx)
    dim = len(table.parts)
    source = [0] * dim
    for l, m in enumerate(entry):
        source[m] = l
    # 1 <= k < n gives N >= 2, so the gather returns a tuple, as the rows are.
    gather = itemgetter(*source)
    pool = row_pool(rows)
    moved = {id(row): pool.get(gather(row)) for row in pool.values()}
    exact = not any(defect)
    for i in range(dim):
        for j in range(i, dim):
            row, target = rows[i * dim + j], rows[pair[i] * dim + pair[j]]
            if (moved.get(id(row)) is not target and gather(row) != target) or (
                not exact and any(c and defect[l] != offset(i, j) for l, c in enumerate(row))
            ):
                return (table.parts[i], table.parts[j])
    return None


def strange_transport_sweep(ctx: GrassContext, rows: list[tuple[int, ...]]) -> tuple | None:
    """check_strange_duality_pair on every pair i <= j, read off the product rows.

    Entry p of row (i, j) moves to entry comp(nu), nu = shift_(-k)(p), of row (comp i, comp j).
    The degrees agree when n*diag_0(nu) = k(n-k) + |nu| - |p| for every class p; where that
    fails, every pair with a nonzero entry at p fails as well.  Gives the first failing
    (lam, mu), or None.
    """
    table = basis_table(ctx)
    n, size, comp = ctx.n, table.size, table.complement
    nu = [shift[-ctx.k % n] for shift in table.shift]
    d0 = [diag(table.partition[table.parts[x]], ctx, 0) for x in nu]
    top = ctx.k * ctx.cols
    defect = [n * d0[p] - top - size[nu[p]] + size[p] for p in range(len(nu))]
    return _duality_sweep(ctx, rows, comp, [comp[x] for x in nu], defect, lambda i, j: 0)


def strange_multiplicative_sweep(ctx: GrassContext, rows: list[tuple[int, ...]]) -> tuple | None:
    """strange_duality(a * b) = strange_duality(a) * strange_duality(b) on every basis pair i <= j.

    The duality sends sigma_x to q^(-diag_0(x)) sigma_(t x), t(x) = shift_(n-k)(comp x), so
    row (t i, t j) must be row (i, j) moved by t.  The degrees agree at a nonzero entry p when
    g(i) + g(j) = g(p), g(x) = |t x| + |x| - n*diag_0(x), which the shift identity of the
    hidden sweep turns into n*(phi(comp x, n-k) - diag_0(x)).  Gives the first failing
    (lam, mu), or None.
    """
    table = basis_table(ctx)
    n, size = ctx.n, table.size
    image = [table.shift[c][ctx.cols] for c in table.complement]
    defect = [
        size[image[x]] + size[x] - n * diag(table.partition[p], ctx, 0)
        for x, p in enumerate(table.parts)
    ]
    return _duality_sweep(ctx, rows, image, image, defect, lambda i, j: defect[i] + defect[j])


def check_strange_duality_pair(lam: Partition, mu: Partition, ctx: GrassContext) -> bool:
    """Term-by-term transport between a product and the product of complements.

    The coefficient of q^d sigma_(nu complement) in the product of the two
    complemented classes must equal the coefficient of
    q^(diag_0(nu) - d) sigma_(nu shifted by k) in the original product.
    """
    table = basis_table(ctx)
    back = -ctx.k % ctx.n
    moved = {}
    for (p, e), c in _basis_qprod(ctx, lam.parts, mu.parts).items():
        nu = table.shift[table.index[p]][back]
        d0 = diag(table.partition[table.parts[nu]], ctx, 0)
        moved[(table.parts[table.complement[nu]], d0 - e)] = c
    return moved == _basis_qprod(
        ctx, complement(lam, ctx).parts, complement(mu, ctx).parts
    )
