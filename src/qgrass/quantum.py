"""The quantum cohomology ring of Gr(k, n) over Z[q].

Basis classes are indexed by box partitions; a product is computed by
multiplying in the ring of symmetric polynomials in k variables and then
reducing every straggler shape modulo the quantum ideal with the rim-hook
rule.  Structure constants are exposed through three mutually independent
backends so the test suite can cross-check them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .errors import ContextMismatch, IndexOutOfRange, QGrassError, TooManyRows
from .partitions import (
    EMPTY_PARTITION,
    GrassContext,
    Partition,
    _partition,
    basis_table,
    format_terms,
    graded_key,
    masked_det,
    require_int,
    require_partitions,
)
from .schur import _mult_basis_canonical, _toric_query
from .tableaux import _strip_successors_raw

TermKey = tuple[Partition, int]


class QuantumClass:
    """Finite integer combination of q^d sigma_lambda over a fixed context.

    Negative q-degrees are admitted only on classes flagged as living in the
    localization at q.
    """

    __slots__ = ("ctx", "terms", "localized")

    def __init__(
        self,
        ctx: GrassContext,
        terms: Mapping[TermKey, int] | None = None,
        localized: bool = False,
    ):
        clean: dict[TermKey, int] = {}
        for (lam, d), c in (terms or {}).items():
            ctx.require_fits(lam)
            require_int(d, "q-degree")
            require_int(c, "coefficient")
            if c == 0:
                continue
            if d < 0 and not localized:
                raise QGrassError(f"negative q-degree {d} outside the localization")
            clean[(lam, d)] = c
        self.ctx = ctx
        self.terms = clean
        self.localized = localized

    @classmethod
    def _from_kernel(
        cls, ctx: GrassContext, terms: dict[TermKey, int], localized: bool
    ) -> "QuantumClass":
        """Wrap terms a kernel produced: nonzero, fitting the box, degrees admitted."""
        self = cls.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        self.localized = localized
        return self

    def coefficient(self, lam: Partition, d: int) -> int:
        require_partitions(lam)
        return self.terms.get((lam, d), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def q_degrees(self) -> set[int]:
        return {d for (_, d) in self.terms}

    def sorted_terms(self) -> list[tuple[TermKey, int]]:
        return sorted(self.terms.items(), key=lambda t: (t[0][1],) + graded_key(t[0][0].parts))

    def classical_part(self) -> "QuantumClass":
        return QuantumClass(
            self.ctx, {key: c for key, c in self.terms.items() if key[1] == 0}
        )

    def q_shift(self, m: int, localized: bool | None = None) -> "QuantumClass":
        flag = self.localized if localized is None else localized
        return QuantumClass(
            self.ctx, {(lam, d + m): c for (lam, d), c in self.terms.items()}, flag
        )

    def __add__(self, other: "QuantumClass") -> "QuantumClass":
        if self.ctx != other.ctx:
            raise ContextMismatch("classes live over different contexts")
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0) + c
        return QuantumClass(self.ctx, acc, self.localized or other.localized)

    def __sub__(self, other: "QuantumClass") -> "QuantumClass":
        return self + other.scaled(-1)

    def scaled(self, a: int) -> "QuantumClass":
        return QuantumClass(
            self.ctx, {key: a * c for key, c in self.terms.items()}, self.localized
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuantumClass)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, tuple(self.sorted_terms())))

    def to_json_dict(self) -> dict:
        return {
            "k": self.ctx.k,
            "n": self.ctx.n,
            "terms": [
                {"d": d, "partition": list(lam.parts), "coeff": c}
                for (lam, d), c in self.sorted_terms()
            ],
        }

    def __str__(self) -> str:
        return format_terms((c, d, lam.parts) for (lam, d), c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"QuantumClass({self.ctx.k},{self.ctx.n}; {self})"


def schubert_class(lam: Partition, ctx: GrassContext, d: int = 0) -> QuantumClass:
    require_int(d, "q-degree")
    ctx.require_fits(lam)
    return QuantumClass._from_kernel(ctx, {(lam, d): 1}, d < 0)


def unit_class(ctx: GrassContext) -> QuantumClass:
    return QuantumClass(ctx, {(EMPTY_PARTITION, 0): 1})


@dataclass(frozen=True)
class RimHookReduction:
    """Image of a straggler Schur polynomial modulo the quantum ideal."""

    core: Partition | None
    d: int | None
    sign: int | None
    vanished: bool


@lru_cache(maxsize=None)
def _reduce_raw(tau: tuple[int, ...], k: int, n: int) -> tuple[Partition, int, int] | None:
    """Abacus reduction: beads b_i = tau_i + k - i on n runners.

    Removing n-hooks slides each bead up its runner; a runner holding two
    beads leaves a core too wide for the box, so the class vanishes unless
    the residues b_i mod n are distinct.  Then the core is read off the
    sorted residues, d = sum of floor(b_i / n), and the sign is
    (-1)^(d(k-1) + inv), inv counting the inversions of the residues.
    The core is returned as its interned Partition.
    """
    beads = [(tau[i] if i < len(tau) else 0) + k - i - 1 for i in range(k)]
    residues = [b % n for b in beads]
    if len(set(residues)) < k:
        return None
    d = sum(b // n for b in beads)
    # A bead i >= len(tau) is k-i-1 < n, so those residues strictly decrease and only
    # the first len(tau) beads can start an inversion.
    inv = sum(1 for i in range(len(tau)) for j in range(i + 1, k) if residues[i] < residues[j])
    core = [r - (k - i - 1) for i, r in enumerate(sorted(residues, reverse=True))]
    while core and core[-1] == 0:
        core.pop()
    sign = -1 if (d * (k - 1) + inv) % 2 else 1
    return _partition(tuple(core)), d, sign


def rimhook_reduce(tau: Partition, ctx: GrassContext) -> RimHookReduction:
    """Reduce s_tau modulo the quantum ideal of Gr(k, n)."""
    require_partitions(tau)
    if len(tau) > ctx.k:
        raise TooManyRows(f"{tau!r} has more than {ctx.k} rows")
    raw = _reduce_raw(tau.parts, ctx.k, ctx.n)
    if raw is None:
        return RimHookReduction(None, None, None, True)
    return RimHookReduction(*raw, False)


def _basis_qprod(ctx: GrassContext, a: tuple[int, ...], b: tuple[int, ...]) -> dict[TermKey, int]:
    """sigma_a * sigma_b as a map (Partition, q-degree) -> coefficient: the memo's own dict."""
    if (len(b), sum(b), b) < (len(a), sum(a), a):
        a, b = b, a
    return _qprod_raw(ctx.k, ctx.n, a, b)


@lru_cache(maxsize=None)
def _qprod_raw(k: int, n: int, a: tuple[int, ...], b: tuple[int, ...]) -> dict[TermKey, int]:
    # Keyed on (k, n) like the other kernel memos; its terms hold the interned Partitions
    # that _reduce_raw returns, the form quantum_product hands out.
    out: dict[TermKey, int] = {}
    for tau, c in _mult_basis_canonical(a, b, k).items():
        raw = _reduce_raw(tau, k, n)
        if raw is None:
            continue
        core, d, sign = raw
        key = (core, d)
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c != 0}


def quantum_product(f: QuantumClass, g: QuantumClass) -> QuantumClass:
    """Bilinear extension of the basis product; commutative and associative.

    The memo's terms are already (Partition, degree) keys, so the sum runs on
    them directly; a product of two basis classes is a copy of its memo entry.
    """
    ctx = f.ctx
    if g.ctx is not ctx:
        raise ContextMismatch("classes live over different contexts")
    if len(f.terms) == 1 == len(g.terms):
        # One term each: the kernel's terms are distinct and nonzero, so nothing sums.
        [((lam, d1), a)] = f.terms.items()
        [((mu, d2), b)] = g.terms.items()
        ab, shift = a * b, d1 + d2
        raw = _basis_qprod(ctx, lam.parts, mu.parts)
        if ab == 1 and not shift:
            # A copy, so the caller may change its terms and the memo stays as it is.
            terms = dict(raw)
        else:
            terms = {(nu, shift + dd): ab * c for (nu, dd), c in raw.items()}
        return QuantumClass._from_kernel(ctx, terms, f.localized or g.localized)
    acc: dict[TermKey, int] = {}
    for (lam, d1), a in f.terms.items():
        for (mu, d2), b in g.terms.items():
            ab, shift = a * b, d1 + d2
            for (nu, dd), c in _basis_qprod(ctx, lam.parts, mu.parts).items():
                key = (nu, shift + dd)
                acc[key] = acc.get(key, 0) + ab * c
    terms = {key: c for key, c in acc.items() if c}
    return QuantumClass._from_kernel(ctx, terms, f.localized or g.localized)


def quantum_pieri(kind: str, r: int, mu: Partition, ctx: GrassContext) -> QuantumClass:
    """Product of sigma_mu with a generator: e_r adds vertical strips, h_r horizontal.

    Each loop one strip of size r above the loop mu[0] is the term q^d sigma_nu,
    coefficient 1: the strip enumerator gives its base nu and offset d.  It runs
    under tableaux.TORIC_BUDGET strip steps, read at call time, and raises
    QGrassError past it.
    """
    require_int(r, "Pieri index")
    if kind == "e":
        if not 1 <= r <= ctx.k:
            raise IndexOutOfRange(f"e index {r} outside 1..{ctx.k}")
        direction = "vertical"
    elif kind == "h":
        if not 1 <= r <= ctx.cols:
            raise IndexOutOfRange(f"h index {r} outside 1..{ctx.cols}")
        direction = "horizontal"
    else:
        raise QGrassError(f"kind must be 'e' or 'h', got {kind!r}")
    ctx.require_fits(mu)
    raw = _strip_successors_raw(mu.parts, ctx.k, ctx.cols, r, direction)
    return QuantumClass._from_kernel(ctx, {(_partition(nu), d): 1 for nu, d in raw}, False)


def giambelli_class(lam: Partition, ctx: GrassContext) -> QuantumClass:
    """Evaluate det(h_{lam_i + j - i}) with quantum_product; the result is sigma_lam.

    h_c is 1 for c = 0, sigma_(c) for 0 < c <= n-k and 0 above; the entries
    left of c = 0 are zero and never asked for.
    """
    ctx.require_fits(lam)

    def entry(cls: QuantumClass, i: int, j: int, sign: int) -> QuantumClass | None:
        c = lam.part(i) + j - i
        if c > ctx.cols:
            return None
        term = cls if c == 0 else quantum_product(cls, schubert_class(_partition((c,)), ctx))
        return term.scaled(sign) if term.terms else None

    first = [i - lam.part(i) for i in range(1, ctx.k + 1)]
    det = masked_det(ctx.k, unit_class(ctx), entry, operator.add, first)
    return QuantumClass(ctx) if det is None else det


BACKENDS = ("bcf", "toric", "niltl")


def gw_invariant(
    mu: Partition,
    nu: Partition,
    lam: Partition,
    d: int,
    ctx: GrassContext,
    backend: str = "bcf",
) -> int:
    """The structure constant of q^d sigma_lam in sigma_mu * sigma_nu.

    Zero whenever the degree condition |lam| = |mu| + |nu| - d*n fails.
    Backends: "bcf" (ring product and rim-hook reduction), "toric" (signed
    Kostka sums: the len(nu) x len(nu) determinant of nu alone, walked from
    mu[0] with offsets up to d and read at lam[d], one memo entry per
    (mu, nu, d)) and "niltl" (operator determinant); the last two raise
    QGrassError once their walk passes its budget of work.
    """
    if backend not in BACKENDS:
        raise QGrassError(f"unknown backend {backend!r}")
    require_int(d, "q-degree")
    k, cols = ctx.k, ctx.n - ctx.k
    for p in (mu, nu, lam):
        if type(p) is not Partition or len(p.parts) > k or (p.parts and p.parts[0] > cols):
            ctx.require_fits(p)
    if d < 0 or lam.size != mu.size + nu.size - d * ctx.n:
        return 0
    if backend == "bcf":
        return _basis_qprod(ctx, mu.parts, nu.parts).get((lam, d), 0)
    if backend == "toric":
        return _toric_query(k, ctx.n, mu.parts, nu.parts, d).get(lam.parts, 0)
    from .niltl import schubert_op

    op, index = schubert_op(nu, ctx), basis_table(ctx).index
    if op.degree + mu.size - lam.size != d * ctx.n:
        return 0
    return op.rows[index[lam.parts]].get(index[mu.parts], 0)
