"""Exhaustive identity suites over the whole basis of one context.

Every check maps a context to None when its identity holds on every item,
and otherwise to its first counterexample, built from parts tuples and ints.
The work of a run is bounded from (k, n) alone, before any of it is done.
"""

from __future__ import annotations

from .errors import QGrassError
from .niltl import verify_relations
from .partitions import GrassContext, box_partitions_by_size, enumerate_pkn
from .quantum import BACKENDS, giambelli_class, gw_invariant, quantum_product, schubert_class
from .schur import lr_coefficient
from .symmetry import (
    check_strange_duality_pair, dmin_dmax, hidden_symmetry_sweep, product_rows, q_power_set,
    s3_symmetry_sweep, strange_duality,
)

# Bounds the basis size N.
MAX_CLASSES = 500
# Bounds the relation suite: eh_op applies all 2^n - 2 cyclic words to N classes.
MAX_RELATION_WORK = 2**20
# Bounds the triple sweeps: the hidden sweep compares N^3 invariants for n^2 shifts.
MAX_SWEEP_WORK = 2**31


def _basis_pairs(ctx: GrassContext) -> list[tuple]:
    basis = enumerate_pkn(ctx)
    return [(lam, mu) for i, lam in enumerate(basis) for mu in basis[i:]]


def check_backends(ctx: GrassContext) -> tuple | None:
    """The three backends agree and are nonnegative: (mu, nu, lam, d, values)."""
    for mu, nu in _basis_pairs(ctx):
        total = mu.size + nu.size
        for d in range(total // ctx.n + 1):
            for lam in box_partitions_by_size(ctx, total - d * ctx.n):
                values = tuple(gw_invariant(mu, nu, lam, d, ctx, b) for b in BACKENDS)
                if len(set(values)) != 1 or values[0] < 0:
                    return (mu.parts, nu.parts, lam.parts, d, values)
    return None


def check_strange(ctx: GrassContext) -> tuple | None:
    """check_strange_duality_pair on every pair: (lam, mu)."""
    for lam, mu in _basis_pairs(ctx):
        if not check_strange_duality_pair(lam, mu, ctx):
            return (lam.parts, mu.parts)
    return None


def check_dtilde(ctx: GrassContext) -> tuple | None:
    """strange_duality is multiplicative on every pair: (lam, mu)."""
    for lam, mu in _basis_pairs(ctx):
        a, b = schubert_class(lam, ctx), schubert_class(mu, ctx)
        image = quantum_product(strange_duality(a), strange_duality(b))
        if strange_duality(quantum_product(a, b)) != image:
            return (lam.parts, mu.parts)
    return None


def check_intervals(ctx: GrassContext) -> tuple | None:
    """Both interval forms agree with the product's q-powers: (lam, mu)."""
    for lam, mu in _basis_pairs(ctx):
        try:
            members = set(dmin_dmax(lam, mu, ctx).members())
        except QGrassError:
            members = set()
        if not members or q_power_set(lam, mu, ctx) != members:
            return (lam.parts, mu.parts)
    return None


def check_classical(ctx: GrassContext) -> tuple | None:
    """Degree-0 terms are LR coefficients and all terms nonnegative: (lam, mu)."""
    for lam, mu in _basis_pairs(ctx):
        product = quantum_product(schubert_class(lam, ctx), schubert_class(mu, ctx))
        if any(
            product.coefficient(nu, 0) != lr_coefficient(lam, mu, nu)
            for nu in box_partitions_by_size(ctx, lam.size + mu.size)
        ) or any(c < 0 for c in product.terms.values()):
            return (lam.parts, mu.parts)
    return None


def check_giambelli(ctx: GrassContext) -> tuple | None:
    """The Giambelli determinant of every class is the class: (lam,)."""
    for lam in enumerate_pkn(ctx):
        if giambelli_class(lam, ctx) != schubert_class(lam, ctx):
            return (lam.parts,)
    return None


def _suites(rows: list[tuple[int, ...]] | None) -> dict:
    return {
        "backends": (("backend_agreement_and_nonnegativity", check_backends),),
        "symmetries": (
            ("s3_symmetry", lambda ctx: s3_symmetry_sweep(ctx, rows)),
            ("hidden_cyclic_symmetry", lambda ctx: hidden_symmetry_sweep(ctx, rows)),
            ("strange_duality_transport", check_strange),
            ("strange_duality_multiplicative", check_dtilde),
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
    suites = _suites(product_rows(ctx) if sweeps else None)
    for name, check in (c for suite, cs in suites.items() if scope in (suite, "all") for c in cs):
        witness = check(ctx)
        entry = {"check": name, "status": "pass" if witness is None else "fail"}
        report.append(entry if witness is None else {**entry, "counterexample": witness})
    return report
