"""Cyclic symmetry, the q-inverting duality, and the q-power interval.

The two involutions act on the localization of the ring (negative powers of
q allowed).  The interval of q-powers appearing in a product of two basis
classes is computed from prefix statistics of the boundary words in two
independent ways and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import FormMismatch
from .partitions import (
    GrassContext,
    Partition,
    _bits_to_parts,
    _diag_table,
    _phi_table,
    _word_bits,
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
    ctx.require_fits(lam, mu)
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
    ctx.require_fits(lam, mu, nu)
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
    ctx.require_fits(lam, mu)
    return {d for (_, d) in _basis_qprod(ctx, lam.parts, mu.parts)}


def gw_triple(
    lam: Partition, mu: Partition, nu: Partition, ctx: GrassContext
) -> tuple[int, int]:
    """The triple invariant as a monomial (q-degree, coefficient).

    The degree is pinned by the sizes; when it is not a nonnegative integer
    the invariant is zero and the returned degree is 0.
    """
    ctx.require_fits(lam, mu, nu)
    num = lam.size + mu.size + nu.size - ctx.k * ctx.cols
    d, rem = divmod(num, ctx.n)
    if rem != 0 or d < 0:
        return (0, 0)
    return (d, _basis_qprod(ctx, lam.parts, mu.parts).get((complement(nu, ctx), d), 0))


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


def check_strange_duality_pair(lam: Partition, mu: Partition, ctx: GrassContext) -> bool:
    """Term-by-term transport between a product and the product of complements.

    The coefficient of q^d sigma_(nu complement) in the product of the two
    complemented classes must equal the coefficient of
    q^(diag_0(nu) - d) sigma_(nu shifted by k) in the original product.
    """
    ctx.require_fits(lam, mu)
    moved = {}
    for (p, e), c in _basis_qprod(ctx, lam.parts, mu.parts).items():
        nu = cyclic_shift(p, ctx, -ctx.k)
        moved[(complement(nu, ctx), diag(nu, ctx, 0) - e)] = c
    return moved == _basis_qprod(
        ctx, complement(lam, ctx).parts, complement(mu, ctx).parts
    )
