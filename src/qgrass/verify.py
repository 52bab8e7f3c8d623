"""Exhaustive identity suites over the whole basis of one context.

Every check maps a context and its pooled product table to None when its
identity holds on every item, and otherwise to its first counterexample,
built from parts tuples and ints.  The work of a run is bounded from (k, n)
alone, before any of it is done.
"""

from __future__ import annotations

from .errors import QGrassError
from .niltl import schubert_op, verify_relations
from .partitions import GrassContext, basis_table, box_partitions_by_size, enumerate_pkn
from .quantum import giambelli_class, schubert_class
from .schur import _lr_count, toric_gw_table
from .symmetry import (
    dmin_dmax, hidden_symmetry_sweep, product_rows, row_pool, s3_symmetry_sweep,
    strange_multiplicative_sweep, strange_transport_sweep,
)

# Bounds the basis size N.
MAX_CLASSES = 500
# Bounds the relation suite: eh_op applies all 2^n - 2 cyclic words to N classes.
MAX_RELATION_WORK = 2**20
# Bounds the triple sweeps: the hidden sweep compares N^3 invariants for n^2 shifts.
MAX_SWEEP_WORK = 2**31

Rows = list[tuple[int, ...]]


def _negative(rows: Rows) -> set[int]:
    """The ids of the rows that hold a negative entry, each distinct row tested once."""
    return {key for key, row in {id(row): row for row in rows}.items() if min(row) < 0}


def _toric_rows(ctx: GrassContext, pool: dict) -> list:
    """Row i*N + j holds toric_gw_table(lam_l, d, mu_i)[nu_j] at l, for |nu_j| >= |mu_i|.

    One block per mu; the rows with |nu_j| < |mu_i| are None.  Rows join the pool.
    """
    table = basis_table(ctx)
    parts, size, index, n, dim = table.parts, table.size, table.index, ctx.n, len(table.parts)
    zero = [0] * dim
    out = [None] * (dim * dim)
    for i, mu in enumerate(enumerate_pkn(ctx)):
        block: dict[tuple[int, ...], list[int]] = {}
        for total in range(2 * size[i], size[i] + ctx.k * ctx.cols + 1):
            for d in range(total // n + 1):
                for lam in box_partitions_by_size(ctx, total - d * n):
                    l = index[lam.parts]
                    for nu, c in toric_gw_table(lam, d, mu, ctx).items():
                        block.setdefault(nu, [0] * dim)[l] = c
        for j in range(dim):
            if size[j] >= size[i]:
                row = tuple(block.get(parts[j], zero))
                out[i * dim + j] = pool.setdefault(row, row)
    return out


def _niltl_rows(ctx: GrassContext, pool: dict) -> list:
    """Row i*N + j holds schubert_op(nu_j).rows[l][i] at each l where |mu_i| + |nu_j| - |lam_l|
    is a nonnegative multiple of n, and zero elsewhere.

    As in gw_invariant, an operator whose degree is not |nu_j| gives a zero block.  One block
    per nu; rows join the pool.
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
            row = tuple(row)
            out[i * dim + j] = pool.setdefault(row, row)
    return out


def check_backends(ctx: GrassContext, rows: Rows) -> tuple | None:
    """The three backends agree and are nonnegative: (mu, nu, lam, d, (bcf, toric, niltl)).

    All three tables share one pool, so two rows agree when they are one object.  Only a
    pair whose rows differ, or whose row is negative, is searched for its first (d, lam).
    """
    table = basis_table(ctx)
    parts, size, index, n, dim = table.parts, table.size, table.index, ctx.n, len(table.parts)
    pool = row_pool(rows)
    tables = (rows, _toric_rows(ctx, pool), _niltl_rows(ctx, pool))
    negative = _negative(rows)
    for i in range(dim):
        for j in range(i, dim):
            p = i * dim + j
            row = rows[p]
            if row is tables[1][p] is tables[2][p] and id(row) not in negative:
                continue
            total = size[i] + size[j]
            for d in range(total // n + 1):
                for lam in box_partitions_by_size(ctx, total - d * n):
                    values = tuple(t[p][index[lam.parts]] for t in tables)
                    if len(set(values)) != 1 or values[0] < 0:
                        return (parts[i], parts[j], lam.parts, d, values)
    return None


def check_intervals(ctx: GrassContext, rows: Rows) -> tuple | None:
    """Both interval forms agree with the q-powers of the product row: (lam, mu).

    A nonzero entry at l has q-power (|i| + |j| - |l|) / n, so the sizes of a row's
    nonzero entries, read once per distinct row, give every q-power of its products.
    """
    table = basis_table(ctx)
    basis, size, n, dim = enumerate_pkn(ctx), table.size, ctx.n, len(table.parts)
    found: dict[int, set[int]] = {}
    for i, lam in enumerate(basis):
        for j in range(i, dim):
            try:
                interval = dmin_dmax(lam, basis[j], ctx)
            except QGrassError:
                return (lam.parts, basis[j].parts)
            lo, hi = interval.dmin, interval.dmax
            row = rows[i * dim + j]
            sizes = found.get(id(row))
            if sizes is None:
                sizes = found[id(row)] = {size[l] for l, c in enumerate(row) if c}
            total = size[i] + size[j]
            if lo > hi or sizes != set(range(total - hi * n, total - lo * n + 1, n)):
                return (lam.parts, basis[j].parts)
    return None


def check_classical(ctx: GrassContext, rows: Rows) -> tuple | None:
    """Degree-0 entries are LR coefficients and all entries nonnegative: (lam, mu)."""
    table = basis_table(ctx)
    parts, size, dim = table.parts, table.size, len(table.parts)
    by_size: dict[int, list[int]] = {}
    for l, s in enumerate(size):
        by_size.setdefault(s, []).append(l)
    negative = _negative(rows)
    for i in range(dim):
        for j in range(i, dim):
            row = rows[i * dim + j]
            if id(row) in negative or any(
                row[l] != _lr_count(parts[i], parts[j], parts[l])
                for l in by_size.get(size[i] + size[j], ())
            ):
                return (parts[i], parts[j])
    return None


def check_giambelli(ctx: GrassContext, rows: Rows) -> tuple | None:
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


def count_classes(ctx: GrassContext, cap: int) -> int:
    """N = C(n, k) if it is at most cap, else cap + 1; no larger number is formed."""
    # C(n, i + 1) = C(n, i) * (n - i) / (i + 1) increases while i < min(k, n - k).
    count = 1
    for i in range(min(ctx.k, ctx.n - ctx.k)):
        count = count * (ctx.n - i) // (i + 1)
        if count > cap:
            return cap + 1
    return count


def run(ctx: GrassContext, scope: str) -> list[dict]:
    """The report of one scope: {check, status}, plus the counterexample of a failure.

    Every scope but the relation suite builds the product table once, and its checks read it.
    Raises QGrassError, naming the bound, when the work would exceed it.
    """
    dim, n = count_classes(ctx, MAX_CLASSES), ctx.n
    if dim > MAX_CLASSES:
        raise QGrassError(f"basis has C({n}, {ctx.k}) elements, above the cap {MAX_CLASSES}")
    relations, sweeps = scope in ("relations", "all"), scope in ("symmetries", "all")
    if relations and 2**n * dim > MAX_RELATION_WORK:
        raise QGrassError(
            f"relation suite: 2^n * N = {2**n * dim} is above the bound 2^20 = {MAX_RELATION_WORK}"
        )
    if sweeps and dim**3 * n**2 > MAX_SWEEP_WORK:
        raise QGrassError(
            f"triple sweeps: N^3 * n^2 = {dim**3 * n**2} is above the bound 2^31 = {MAX_SWEEP_WORK}"
        )
    report = verify_relations(ctx) if relations else []
    rows = product_rows(ctx) if scope != "relations" else None
    for name, check in (c for suite, cs in SUITES.items() if scope in (suite, "all") for c in cs):
        witness = check(ctx, rows)
        entry = {"check": name, "status": "pass" if witness is None else "fail"}
        report.append(entry if witness is None else {**entry, "counterexample": witness})
    return report
