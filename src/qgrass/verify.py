"""Exhaustive identity suites over the whole basis of one context.

The product table is N^2 integer row ids and the one dict that interns its rows: equal
rows have one id, and the dict's keys, in insertion order, are the distinct rows.  Every
check maps a context and the table to None when its identity holds on every item, and
otherwise to its first counterexample, built from parts tuples and ints.  N and the relation
suite are bounded from (k, n) before any work; each toric and nil-TL walk meters its own.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain, combinations_with_replacement, product
from operator import itemgetter

from .errors import FormMismatch, QGrassError
from .niltl import schubert_op, verify_relations
from .partitions import (
    GrassContext,
    _partition,
    _partitions_into,
    basis_table,
    binomial,
    diag,
    enumerate_pkn,
)
from .quantum import _basis_qprod, giambelli_class, schubert_class
from .schur import _lr_by_content, _toric_rows as _walk_rows
from .symmetry import dmin_dmax

# Bounds the basis size N.
MAX_CLASSES = 500
# Bounds the relation suite, about n^2 products of N-row operators, by n^2 * N.
MAX_RELATION_WORK = 2**20

Ids = list[int]
Pool = dict[tuple[int, ...], int]


def product_rows(ctx: GrassContext) -> tuple[Ids, Pool]:
    """Row i*N + j holds, at basis index l, the coefficient of q^d sigma_l in sigma_i * sigma_j.

    Returns the id of every row and the dict that interns them; FormMismatch unless every
    term has d*n = |i| + |j| - |l|.
    """
    table = basis_table(ctx)
    n, parts, size, index = ctx.n, table.parts, table.size, table.index
    ids, pool = [], {}
    for i, j in product(range(len(parts)), repeat=2):
        row = [0] * len(parts)
        for (lam, d), c in _basis_qprod(ctx, parts[i], parts[j]).items():
            nu = lam.parts
            l = index[nu]
            if d * n != size[i] + size[j] - size[l]:
                raise FormMismatch(f"q^{d} sigma_{nu} in {parts[i]} * {parts[j]}: wrong degree")
            row[l] = c
        ids.append(pool.setdefault(tuple(row), len(pool)))
    return ids, pool


def _toric_rows(ctx: GrassContext, pool: Pool) -> list:
    """Row i*N + j holds, at l, the coefficient of s_(nu_j) in lam_l/d/mu_i in k variables,
    for |nu_j| >= |mu_i|, with d fixed by the sizes.

    One block per mu, scattered from the toric walks of every size |nu| >= |mu|; the rows
    with |nu_j| < |mu_i| are None.  Returns the row ids, interned in pool.
    """
    table = basis_table(ctx)
    parts, size, index, k, dim = table.parts, table.size, table.index, ctx.k, len(table.parts)
    zero = [0] * dim
    out = [None] * (dim * dim)
    for i, mu in enumerate(parts):
        block: dict[tuple[int, ...], list[int]] = {}
        for m in range(size[i], k * ctx.cols + 1):
            for (lam, d), row in _walk_rows(k, ctx.n, mu, m, k).items():
                l = index[lam]
                for nu, c in row.items():
                    block.setdefault(nu, [0] * dim)[l] = c
        for j in range(dim):
            if size[j] >= size[i]:
                out[i * dim + j] = pool.setdefault(tuple(block.get(parts[j], zero)), len(pool))
    return out


def _niltl_rows(ctx: GrassContext, pool: Pool) -> list:
    """Row i*N + j holds schubert_op(nu_j).rows[l][i] at each l where |mu_i| + |nu_j| - |lam_l|
    is a nonnegative multiple of n, and zero elsewhere.

    As in gw_invariant, an operator whose degree is not |nu_j| gives a zero block.  One block
    per nu; returns the row ids, interned in pool.
    """
    table = basis_table(ctx)
    size, n, dim = table.size, ctx.n, len(table.parts)
    out = [None] * (dim * dim)
    for j, nu in enumerate(enumerate_pkn(ctx)):
        op = schubert_op(nu, ctx)
        block = [[0] * dim for _ in range(dim)]
        if op.degree == size[j]:
            for l, entries in enumerate(op.rows):
                for i, c in entries.items():
                    excess = size[i] + size[j] - size[l]
                    if excess >= 0 and excess % n == 0:
                        block[i][l] = c
        for i, row in enumerate(block):
            out[i * dim + j] = pool.setdefault(tuple(row), len(pool))
    return out


def check_backends(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
    """The three backends agree and are nonnegative: (mu, nu, lam, d, (bcf, toric, niltl)).

    All three tables intern into one pool, so two rows agree when their ids do.  Only a
    pair whose ids differ, or whose row is negative, is searched for its first (d, lam).
    The pairs i <= j come first.  Then each pair i > j compares the nil-TL row (i, j),
    sigma_(nu_j) acting on sigma_(mu_i), which is computed apart from row (j, i), with the
    bcf row, and with the toric row (i, j), or (j, i) where (i, j) is None.
    """
    table = basis_table(ctx)
    parts, size, index, n, dim = table.parts, table.size, table.index, ctx.n, len(table.parts)
    toric, niltl = _toric_rows(ctx, pool), _niltl_rows(ctx, pool)
    rows = list(pool)
    negative = [min(row) < 0 for row in rows]
    below = ((i, j) for i in range(dim) for j in range(i))
    for i, j in chain(combinations_with_replacement(range(dim), 2), below):
        p = i * dim + j
        found = (ids[p], toric[p] if toric[p] is not None else toric[j * dim + i], niltl[p])
        if found[0] == found[1] == found[2] and not negative[found[0]]:
            continue
        total = size[i] + size[j]
        for d in range(total // n + 1):
            for lam in _partitions_into(total - d * n, ctx.k, ctx.cols):
                values = tuple(rows[t][index[lam]] for t in found)
                if len(set(values)) != 1 or values[0] < 0:
                    return (parts[i], parts[j], lam, d, values)
    return None


def check_intervals(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
    """Both interval forms agree with the q-powers of the product row: (lam, mu).

    A nonzero entry at l has q-power (|i| + |j| - |l|) / n, so the sizes of a row's
    nonzero entries, read once per distinct row, give every q-power of its products.
    """
    table = basis_table(ctx)
    basis, size, n, dim = enumerate_pkn(ctx), table.size, ctx.n, len(table.parts)
    sizes = [{size[l] for l, c in enumerate(row) if c} for row in pool]
    for i, lam in enumerate(basis):
        for j in range(i, dim):
            try:
                interval = dmin_dmax(lam, basis[j], ctx)
            except QGrassError:
                return (lam.parts, basis[j].parts)
            lo, hi, total = interval.dmin, interval.dmax, size[i] + size[j]
            powers = set(range(total - hi * n, total - lo * n + 1, n))
            if lo > hi or sizes[ids[i * dim + j]] != powers:
                return (lam.parts, basis[j].parts)
    return None


def check_classical(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
    """Degree-0 entries are LR coefficients and all entries nonnegative: (lam, mu)."""
    table = basis_table(ctx)
    parts, size, dim = table.parts, table.size, len(table.parts)
    by_size: dict[int, list[int]] = {}
    for l, s in enumerate(size):
        by_size.setdefault(s, []).append(l)
    rows = list(pool)
    negative = [min(row) < 0 for row in rows]
    for i in range(dim):
        for j in range(i, dim):
            row = rows[ids[i * dim + j]]
            if negative[ids[i * dim + j]] or any(
                row[l] != _lr_by_content(parts[i], parts[l]).get(parts[j], 0)
                for l in by_size.get(size[i] + size[j], ())
            ):
                return (parts[i], parts[j])
    return None


def s3_symmetry_sweep(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
    """gw_triple(i, j, l) = row (i, j) at complement[l] is invariant under permuting the triple.

    Checks the generating swaps, (i j) by row id and (j l) as the symmetry of the block of rows
    (i, comp m); returns the least failing sorted (lam, mu, nu) as parts tuples, or None.
    """
    table = basis_table(ctx)
    dim, comp = len(table.parts), table.complement
    rows, failures = list(pool), []
    for i in range(dim):
        row, column = ids[i * dim : (i + 1) * dim], ids[i::dim]
        swapped = ((j, rows[y]) for j, (x, y) in enumerate(zip(row, column)) if x != y)
        for j, other in chain(swapped, zip(comp, zip(*(rows[row[j]] for j in comp)))):
            if other != rows[row[j]]:
                diff = (comp[m] for m, (u, v) in enumerate(zip(rows[row[j]], other)) if u != v)
                failures.append(min(sorted((i, j, l)) for l in diff))
    return itemgetter(*min(failures))(table.parts) if failures else None


def hidden_symmetry_sweep(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
    """hidden_symmetry_check for every ordered basis triple and every a, b in 0..n-1.

    Its degree half holds by the sizes once |shift_a(x)| - |x| = n*phi(x, a) - k*a for all x, a;
    that is checked first, with shift_0 = id, shift_a o shift_1 = shift_(a+1) and comp o comp =
    id (FormMismatch).  Moved rows then compose, so the generators (a, b) = (0, 1) and (1, 0)
    give the first failing (lam, mu, nu, a, b) of a scan over every (a, b), or None.
    """
    table = basis_table(ctx)
    n, k, dim = ctx.n, ctx.k, len(table.parts)
    shift, prefix, size, comp = table.shift, table.phi, table.size, table.complement
    for x, a in product(range(dim), range(n)):
        if size[shift[x][a]] - size[x] != n * prefix[x][a] - k * a:
            raise FormMismatch(f"shifting {table.parts[x]} by {a} disagrees with phi")
        if (shift[x][0], comp[comp[x]], shift[shift[x][1]][a]) != (x, x, shift[x][(a + 1) % n]):
            raise FormMismatch(f"shift or complement at {table.parts[x]} is not a group action")
    # Row (i, j) must equal row (shift_a i, shift_b j) moved by c = n - 1: its entry m is entry
    # comp(shift_c(comp m)); N >= 2 makes it a tuple.  moved[x]: the id of row x moved, or None.
    rows = list(pool)
    gather = itemgetter(*[comp[shift[x][n - 1]] for x in comp])
    moved = [pool.get(gather(row)) for row in rows]
    for a, b in ((0, 1), (1, 0)):
        for i, base in enumerate(s[a] * dim for s in shift):
            for j in range(dim):
                source = ids[base + shift[j][b]]
                if moved[source] != ids[i * dim + j]:
                    row0, row1 = rows[ids[i * dim + j]], gather(rows[source])
                    l = next(l for l in range(dim) if row1[comp[l]] != row0[comp[l]])
                    return (table.parts[i], table.parts[j], table.parts[l], a, b)
    return None


def _duality_sweep(
    ctx: GrassContext,
    ids: Ids,
    pool: Pool,
    pair: Sequence[int],
    entry: Sequence[int],
    defect: Sequence[int],
    offset: Callable[[int, int], int],
) -> tuple | None:
    """Row (pair[i], pair[j]) must be row (i, j) with entry l moved to entry[l], for i <= j.

    The q-degrees of the two sides agree at a nonzero entry l exactly when
    defect[l] == offset(i, j).  When defect is zero on every class, so is offset, and only
    row ids are compared, each distinct row moved once; otherwise every pair also tests the
    degrees of its nonzero entries.  Gives the first failing (lam, mu) as parts tuples, or None.
    """
    table = basis_table(ctx)
    dim = len(table.parts)
    source = [0] * dim
    for l, m in enumerate(entry):
        source[m] = l
    # 1 <= k < n gives N >= 2, so the gather returns a tuple, as the rows are.
    gather = itemgetter(*source)
    rows = list(pool)
    moved = [pool.get(gather(row)) for row in rows]
    exact = not any(defect)
    for i in range(dim):
        for j in range(i, dim):
            x = ids[i * dim + j]
            if moved[x] != ids[pair[i] * dim + pair[j]] or (
                not exact and any(c and defect[l] != offset(i, j) for l, c in enumerate(rows[x]))
            ):
                return (table.parts[i], table.parts[j])
    return None


def strange_transport_sweep(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
    """check_strange_duality_pair on every pair i <= j, read off the product table.

    Entry p of row (i, j) moves to entry comp(nu), nu = shift_(-k)(p), of row (comp i, comp j).
    The degrees agree when n*diag_0(nu) = k(n-k) + |nu| - |p| for every class p; where that
    fails, every pair with a nonzero entry at p fails as well.  Gives the first failing
    (lam, mu), or None.
    """
    table = basis_table(ctx)
    n, size, comp = ctx.n, table.size, table.complement
    nu = [shift[-ctx.k % n] for shift in table.shift]
    d0 = [diag(_partition(table.parts[x]), ctx, 0) for x in nu]
    top = ctx.k * ctx.cols
    defect = [n * d0[p] - top - size[nu[p]] + size[p] for p in range(len(nu))]
    return _duality_sweep(ctx, ids, pool, comp, [comp[x] for x in nu], defect, lambda i, j: 0)


def strange_multiplicative_sweep(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
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
        size[image[x]] + size[x] - n * diag(_partition(p), ctx, 0)
        for x, p in enumerate(table.parts)
    ]
    return _duality_sweep(ctx, ids, pool, image, image, defect, lambda i, j: defect[i] + defect[j])


def check_giambelli(ctx: GrassContext, ids: Ids, pool: Pool) -> tuple | None:
    """The Giambelli determinant of every class is the class: (lam,)."""
    for lam in enumerate_pkn(ctx):
        if giambelli_class(lam, ctx) != schubert_class(lam, ctx):
            return (lam.parts,)
    return None


SUITES = {
    "backends": (("backend_agreement_and_nonnegativity", check_backends),),
    "symmetries": (
        ("s3_symmetry", s3_symmetry_sweep),
        ("hidden_cyclic_symmetry", hidden_symmetry_sweep),
        ("strange_duality_transport", strange_transport_sweep),
        ("strange_duality_multiplicative", strange_multiplicative_sweep),
    ),
    "intervals": (("q_power_interval", check_intervals),),
    "classical": (("classical_limit", check_classical), ("giambelli", check_giambelli)),
}


# The scopes of run, in the order the CLI lists them; "all" runs every suite.
SCOPES = ("relations", "symmetries", "backends", "intervals", "classical", "all")


def run(ctx: GrassContext, scope: str) -> list[dict]:
    """The report of one scope: {check, status}, plus the counterexample of a failure.

    Every scope but the relation suite builds the product table once, and its checks read it,
    giambelli through quantum_product; the backend scopes walk every nil-TL operator first.
    Raises QGrassError for a scope outside SCOPES and, naming the bound, when the work would
    exceed it or a toric or nil-TL walk passes its budget.
    """
    if scope not in SCOPES:
        raise QGrassError(f"unknown scope {scope!r}")
    dim, n = binomial(ctx.n, ctx.k, MAX_CLASSES), ctx.n
    if dim > MAX_CLASSES:
        raise QGrassError(f"basis has C({n}, {ctx.k}) elements, above the cap {MAX_CLASSES}")
    relations = scope in ("relations", "all")
    if relations and n * n * dim > MAX_RELATION_WORK:
        raise QGrassError(
            f"relation suite: n^2 * N = {n * n * dim} is above the bound 2^20 = {MAX_RELATION_WORK}"
        )
    report = verify_relations(ctx) if relations else []
    if scope in ("backends", "all"):
        for nu in enumerate_pkn(ctx):
            schubert_op(nu, ctx)
    ids, pool = product_rows(ctx) if scope != "relations" else (None, None)
    for name, check in (c for suite, cs in SUITES.items() if scope in (suite, "all") for c in cs):
        witness = check(ctx, ids, pool)
        entry = {"check": name, "status": "pass" if witness is None else "fail"}
        report.append(entry if witness is None else {**entry, "counterexample": witness})
    return report
