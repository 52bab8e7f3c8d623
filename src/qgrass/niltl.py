"""Box-adding operators on the quantum cohomology and their algebra.

The generators act on the basis of box partitions: generator i moves a
single 1 one step right in the boundary word (adding a box on diagonal
i - k); generator n wraps around, removing a rim hook of size n-1 and
picking up a factor of q.  Each generator has degree 1 and q degree n, so
every operator is homogeneous: it is stored as an integer matrix over the
basis produced by enumerate_pkn plus one degree D, the integer c at (i, j)
standing for c * q^d with d = (D + |col j| - |row i|) / n.  Identities are
exact integer matrix identities; entry and column build LaurentPoly values.

Words multiply left to right: in a product written g1 g2, the factor g1
acts first.  This matches reading off generators from a standard filling
of a shape, entry 1 first.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

from .errors import IndexOutOfRange, QGrassError
from .partitions import (
    BasisTable,
    GrassContext,
    Partition,
    _bits_to_parts,
    _word_bits,
    basis_table,
    conjugate,
    format_terms,
    masked_det,
    masked_step,
)


class LaurentPoly:
    """Integer Laurent polynomial in q, stored as exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q_power(cls, d: int, coeff: int = 1) -> "LaurentPoly":
        return cls({d: coeff})

    def coefficient(self, d: int) -> int:
        return self.terms.get(d, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) - c
        return LaurentPoly(acc)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __str__(self) -> str:
        return format_terms((c, e, ()) for e, c in sorted(self.terms.items()))

    __repr__ = __str__


class NilTLOperator:
    """Homogeneous operator over the box-partition basis: integer rows, one degree.

    rows[i][j] = c is the entry c * q^d, d = (degree + |col j| - |row i|) / n.
    Rows are stored sparsely, with no zero entry, and never change once
    stored; A @ B composes with B acting first.
    """

    __slots__ = ("ctx", "rows", "degree")

    def __init__(self, ctx: GrassContext, rows: Sequence[dict[int, int]], degree: int):
        self.ctx = ctx
        self.rows = tuple({j: c for j, c in row.items() if c} for row in rows)
        self.degree = degree

    @classmethod
    def _wrap(
        cls, ctx: GrassContext, rows: tuple[dict[int, int], ...], degree: int
    ) -> "NilTLOperator":
        """An operator over fresh rows that hold no zero entry, without copying them."""
        op = object.__new__(cls)
        op.ctx, op.rows, op.degree = ctx, rows, degree
        return op

    @classmethod
    def zero(cls, ctx: GrassContext) -> "NilTLOperator":
        return cls(ctx, [{} for _ in range(ctx.num_classes)], 0)

    @classmethod
    def identity(cls, ctx: GrassContext) -> "NilTLOperator":
        return cls(ctx, [{i: 1} for i in range(ctx.num_classes)], 0)

    def _entry(self, table: BasisTable, i: int, j: int) -> LaurentPoly:
        d = (self.degree + table.size[j] - table.size[i]) // self.ctx.n
        return LaurentPoly({d: self.rows[i].get(j, 0)})

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._entry(basis_table(self.ctx), i, j)

    def column(self, mu: Partition) -> dict[Partition, LaurentPoly]:
        table = basis_table(self.ctx)
        j = table.index[mu.parts]
        return {
            Partition(table.parts[i]): self._entry(table, i, j)
            for i, row in enumerate(self.rows)
            if j in row
        }

    def __matmul__(self, other: "NilTLOperator") -> "NilTLOperator":
        rows: list[dict[int, int]] = []
        for row_a in self.rows:
            acc: dict[int, int] = {}
            for l, a in row_a.items():
                for j, b in other.rows[l].items():
                    acc[j] = acc.get(j, 0) + a * b
            # Products of nonzero entries are nonzero; only a sum can cancel.
            rows.append({j: c for j, c in acc.items() if c} if 0 in acc.values() else acc)
        return NilTLOperator._wrap(self.ctx, tuple(rows), self.degree + other.degree)

    def __add__(self, other: "NilTLOperator") -> "NilTLOperator":
        if self.degree != other.degree:
            if self.is_zero() or other.is_zero():
                return other if self.is_zero() else self
            raise QGrassError(f"operator degrees {self.degree} and {other.degree} differ")
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            acc = dict(ra)
            for j, c in rb.items():
                c += acc.get(j, 0)
                if c:
                    acc[j] = c
                else:
                    del acc[j]
            rows.append(acc)
        return NilTLOperator._wrap(self.ctx, tuple(rows), self.degree)

    def __sub__(self, other: "NilTLOperator") -> "NilTLOperator":
        return self + other.scaled(-1)

    def scaled(self, a: int | LaurentPoly) -> "NilTLOperator":
        """Multiply by an integer c, or by a monomial c * q^e given as a LaurentPoly."""
        if isinstance(a, LaurentPoly) and len(a.terms) == 1:
            ((e, c),) = a.terms.items()
            degree = self.degree + e * self.ctx.n
        elif isinstance(a, int):
            c, degree = a, self.degree
        else:
            raise QGrassError(f"can only scale by an integer or a monomial c*q^e, got {a!r}")
        rows = tuple({j: v * c for j, v in row.items()} if c else {} for row in self.rows)
        return NilTLOperator._wrap(self.ctx, rows, degree)

    def power(self, m: int) -> "NilTLOperator":
        result = NilTLOperator.identity(self.ctx)
        for _ in range(m):
            result = self @ result
        return result

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NilTLOperator)
            and self.ctx == other.ctx
            and self.rows == other.rows
            and (self.degree == other.degree or self.is_zero())
        )


def _word_action(ctx: GrassContext, words: Sequence[Sequence[int]], degree: int) -> NilTLOperator:
    """Sum of the operators of generator words, applied to every basis 01-word.

    Letter i moves the 1 in slot i to slot i+1 (cyclically); a word dies
    when slot i holds 0 or slot i+1 holds 1.  Each surviving word adds 1 at
    (image, column).
    """
    n, k = ctx.n, ctx.k
    bad = [g for word in words for g in word if not 1 <= g <= n]
    if bad:
        raise IndexOutOfRange(f"generator index {bad[0]} outside 1..{n}")
    table = basis_table(ctx)
    rows: list[dict[int, int]] = [{} for _ in range(ctx.num_classes)]
    for col, lam in enumerate(table.parts):
        start = _word_bits(lam, k, n)
        for word in words:
            bits = list(start)
            for g in word:
                src, dst = g - 1, g % n
                if not bits[src] or bits[dst]:
                    break
                bits[src], bits[dst] = 0, 1
            else:
                row = rows[table.index[_bits_to_parts(bits, k)]]
                row[col] = row.get(col, 0) + 1
    return NilTLOperator(ctx, rows, degree)


@lru_cache(maxsize=None)
def generator_op(i: int, ctx: GrassContext) -> NilTLOperator:
    """The i-th generator: move a 1 from word slot i to slot i+1 (cyclically).

    Every generator has degree 1, so the wrap-around generator, which
    removes n-1 boxes, carries the factor q.
    """
    return _word_action(ctx, [(i,)], 1)


def word_operator(ctx: GrassContext, word: Iterable[int]) -> NilTLOperator:
    """Operator of a generator word; the first letter acts first."""
    word = tuple(word)
    return _word_action(ctx, [word], len(word))


@lru_cache(maxsize=None)
def eh_op(kind: str, r: int, ctx: GrassContext) -> NilTLOperator:
    """Noncommutative elementary (e) or complete homogeneous (h) sum of words.

    Sum over r-subsets of the cyclic index set.  Read cyclically from just
    after a missing index, a subset is its h word: each maximal run comes
    out bottom-up, and runs are flanked by non-members, so letters of
    different runs commute.  The e word is the h word reversed.
    """
    if kind not in ("e", "h"):
        raise QGrassError(f"kind must be 'e' or 'h', got {kind!r}")
    if not 1 <= r <= ctx.n - 1:
        raise IndexOutOfRange(f"index {r} outside 1..{ctx.n - 1}")
    words = []
    for subset in combinations(range(1, ctx.n + 1), r):
        gap = min(set(range(1, ctx.n + 1)).difference(subset))
        word = sorted(subset, key=lambda i: (i - gap) % ctx.n)
        words.append(word[::-1] if kind == "e" else word)
    return _word_action(ctx, words, r)


def z_op(l: int, ctx: GrassContext) -> NilTLOperator:
    """Central element: the e and h operators of complementary degrees composed."""
    if not 1 <= l <= ctx.n - 1:
        raise IndexOutOfRange(f"index {l} outside 1..{ctx.n - 1}")
    return eh_op("h", ctx.n - l, ctx) @ eh_op("e", l, ctx)


@lru_cache(maxsize=None)
def _schubert_walk(
    ctx: GrassContext, top: int, second: int
) -> dict[tuple[int, ...], NilTLOperator]:
    """{parts: the h determinant of nu} for every box nu with nu_1 = top and nu_2 = second.

    The k x k determinant has entry (i, j) = h_c, c = nu_i + j - i, zero from c = n on.
    The Laplace states after rows 1..r depend on nu_1..nu_r only, and the nu come in
    lexicographic order over k-tuples, so each prefix is expanded once for all its
    extensions.  Row i takes column j from i - nu_i (h_0) on.  Later rows have parts at
    most nu_i, so they start at column i + 1 - nu_i or right of it: rows 1..i leave no
    column up to i - nu_i free.  Row 1 reads nu_2 there instead, which the key fixes, so a
    one-row nu takes column 1 alone and builds h_(nu_1) only.
    """
    k, n = ctx.k, ctx.n
    ops: dict[tuple[int, ...], NilTLOperator] = {}
    # path[r]: the Laplace states after rows 1..r of the current nu.
    path = [{0: NilTLOperator.identity(ctx)}]
    prev: tuple[int, ...] = ()
    for tail in combinations_with_replacement(range(second, -1, -1), max(0, k - 2)):
        nu = (top, second, *tail)[:k]
        r = 0
        while r < len(prev) and prev[r] == nu[r]:
            r += 1
        del path[r + 1:]
        for i in range(r + 1, k + 1):
            v = nu[i - 1]

            def entry(op: NilTLOperator, i: int, j: int, sign: int) -> NilTLOperator | None:
                c = v + j - i
                if c >= n:
                    return None
                term = op if c == 0 else eh_op("h", c, ctx) @ op
                return term if sign == 1 else term.scaled(-1)

            columns = range(max(1, i - v), k + 1)
            need = (1 << max(0, i - (second if i == 1 else v))) - 1
            path.append(masked_step(path[-1], i, columns, need, entry, operator.add))
        det = path[-1].get((1 << k) - 1)
        ops[tuple(p for p in nu if p)] = NilTLOperator.zero(ctx) if det is None else det
        prev = nu
    return ops


@lru_cache(maxsize=None)
def schubert_op(lam: Partition, ctx: GrassContext, kind: str = "h") -> NilTLOperator:
    """Operator of quantum multiplication by sigma_lam, as a determinant.

    kind "h" takes the k x k determinant in the h operators, read from the prefix-sharing
    walk of (lam_1, lam_2); kind "e" expands the (n-k) x (n-k) determinant in the e
    operators over the conjugate shape with masked_det.  Both give the same matrix.
    """
    ctx.require_fits(lam)
    if kind == "h":
        return _schubert_walk(ctx, lam.part(1), lam.part(2))[lam.parts]
    if kind != "e":
        raise QGrassError(f"kind must be 'h' or 'e', got {kind!r}")
    rows = conjugate(lam)

    def entry(op: NilTLOperator, i: int, j: int, sign: int) -> NilTLOperator | None:
        c = rows.part(i) + j - i
        if c < 0 or c >= ctx.n:
            return None
        term = op if c == 0 else eh_op("e", c, ctx) @ op
        return term if sign == 1 else term.scaled(-1)

    first = [i - rows.part(i) for i in range(1, ctx.cols + 1)]
    det = masked_det(ctx.cols, NilTLOperator.identity(ctx), entry, operator.add, first)
    return NilTLOperator.zero(ctx) if det is None else det


def verify_relations(ctx: GrassContext) -> list[dict[str, str]]:
    """Check the defining relations and ring identities as exact matrix identities.

    Returns one report entry per named check; failures are reported, never
    raised.
    """
    n, k = ctx.n, ctx.k
    report: list[dict[str, str]] = []

    def add(name: str, ok: bool) -> None:
        report.append({"check": name, "status": "pass" if ok else "fail"})

    a = {i: generator_op(i, ctx) for i in range(1, n + 1)}
    nxt = {i: i % n + 1 for i in range(1, n + 1)}

    add("generator_squares_vanish", all((a[i] @ a[i]).is_zero() for i in a))
    # The braid relation needs n >= 3: for n = 2 both neighbours of a_1 are a_2, and
    # a_1 a_2 a_1 = a_1 on the words.
    add(
        "generator_braids_vanish",
        n < 3 or all(
            (a[i] @ a[nxt[i]] @ a[i]).is_zero() and (a[nxt[i]] @ a[i] @ a[nxt[i]]).is_zero()
            for i in a
        ),
    )
    distant = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i - j) % n not in (1, n - 1)
    ]
    add("distant_generators_commute", all(a[i] @ a[j] == a[j] @ a[i] for i, j in distant))

    e = {r: eh_op("e", r, ctx) for r in range(1, n)}
    h = {r: eh_op("h", r, ctx) for r in range(1, n)}
    family = list(e.values()) + list(h.values())
    add(
        "eh_family_commutes",
        all(
            family[i] @ family[j] == family[j] @ family[i]
            for i in range(len(family))
            for j in range(i + 1, len(family))
        ),
    )

    ident = NilTLOperator.identity(ctx)
    e_ext = {0: ident, **e}
    h_ext = {0: ident, **h}

    def alternating(m: int) -> NilTLOperator:
        """The sum of (-1)^j e_i h_j over i + j = m with 0 <= i, j < n; degree m."""
        total = NilTLOperator.zero(ctx)
        for i in range(max(0, m - n + 1), min(m, n - 1) + 1):
            term = e_ext[i] @ h_ext[m - i]
            total = total + (term.scaled(-1) if (m - i) % 2 else term)
        return total

    q_sign = LaurentPoly.q_power(1, -1 if (n - k) % 2 else 1)
    add(
        "generating_function_identity",
        all(alternating(m).is_zero() for m in range(1, n))
        and alternating(n) == ident.scaled(q_sign),
    )

    z = {l: z_op(l, ctx) for l in range(1, n)}
    add(
        "z_central",
        all(z[l] @ a[i] == a[i] @ z[l] for l in z for i in a),
    )
    q_id = ident.scaled(LaurentPoly.q_power(1))
    add(
        "z_is_q_times_identity_only_at_k",
        all((z[l] == q_id) == (l == k) and (z[l].is_zero() or l == k) for l in z),
    )
    add(
        "eh_vanish_beyond_degree",
        all(e[i].is_zero() for i in range(k + 1, n))
        and all(h[j].is_zero() for j in range(n - k + 1, n)),
    )
    add(
        "eh_products_vanish_above_n",
        all(
            (e[i] @ h[j]).is_zero()
            for i in range(1, n)
            for j in range(1, n)
            if i + j > n
        ),
    )
    add("e_k_nth_power_is_q_to_k", e[k].power(n) == ident.scaled(LaurentPoly.q_power(k)))
    add(
        "h_nk_nth_power_is_q_to_nk",
        h[n - k].power(n) == ident.scaled(LaurentPoly.q_power(n - k)),
    )
    return report
