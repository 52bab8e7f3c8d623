import pytest

from qgrass import (
    ContextMismatch,
    DoesNotFitBox,
    GrassContext,
    IndexOutOfRange,
    Partition,
    QGrassError,
    QuantumClass,
    TooManyRows,
    conjugate,
    cyclic_shift,
    enumerate_pkn,
    giambelli_class,
    gw_invariant,
    lr_coefficient,
    quantum_pieri,
    quantum_product,
    rimhook_reduce,
    schubert_class,
    to_word01,
    unit_class,
)
from qgrass.partitions import basis_table, box_partitions_by_size
from qgrass.quantum import _basis_qprod

C24 = GrassContext(2, 4)


def cls(parts, ctx=C24, d=0):
    return schubert_class(Partition(parts), ctx, d)


def terms(qc):
    return {(lam.parts, d): c for (lam, d), c in qc.terms.items()}


def test_rimhook_reduce_values():
    red = rimhook_reduce(Partition((2, 1)), C24)
    assert (red.core, red.d, red.sign, red.vanished) == (Partition((2, 1)), 0, 1, False)
    red = rimhook_reduce(Partition((3, 1)), C24)
    assert (red.core, red.d, red.sign) == (Partition(), 1, 1)
    red = rimhook_reduce(Partition((4,)), C24)
    assert (red.core, red.d, red.sign) == (Partition(), 1, -1)
    # a straggler whose core overflows the box vanishes
    red = rimhook_reduce(Partition((5, 2)), C24)
    assert red.vanished and red.core is None
    with pytest.raises(TooManyRows):
        rimhook_reduce(Partition((1, 1, 1)), C24)


def test_rimhook_matches_geometric_removal():
    from itertools import combinations_with_replacement

    from conftest import geometric_rimhook_reduce

    # every tau with at most k rows and parts <= 2n
    for k, n in ((2, 4), (3, 6), (4, 7)):
        ctx = GrassContext(k, n)
        for row in combinations_with_replacement(range(2 * n, -1, -1), k):
            tau = Partition(row)
            core, d, hsum = geometric_rimhook_reduce(tau, n)
            red = rimhook_reduce(tau, ctx)
            assert red.vanished == (not ctx.fits(core))
            if not red.vanished:
                sign = -1 if (d * (k - 1) - hsum) % 2 else 1
                assert (red.core, red.d, red.sign) == (core, d, sign)


def test_rimhook_single_row_ideal_identity():
    # reduction of the one-row shape of size n matches the sign in the ideal
    for k, n in ((2, 4), (3, 6), (2, 5), (4, 9)):
        red = rimhook_reduce(Partition((n,)), GrassContext(k, n))
        assert (red.core, red.d) == (Partition(), 1)
        assert red.sign == (-1) ** (k - 1)


def test_quantum_product_small_values():
    assert terms(quantum_product(cls((1,)), cls((1,)))) == {((2,), 0): 1, ((1, 1), 0): 1}
    assert terms(quantum_product(cls((2, 1)), cls((2, 1)))) == {((2,), 1): 1, ((1, 1), 1): 1}
    assert terms(quantum_product(cls((2, 2)), cls((2, 2)))) == {((), 2): 1}
    with pytest.raises(ContextMismatch):
        quantum_product(cls((1,)), cls((1,), ctx=GrassContext(2, 5)))


def test_quantum_product_no_quantum_effects_at_low_degree():
    # when n exceeds the total size, only classical terms appear
    for ctx in (GrassContext(2, 6), GrassContext(3, 7)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                if lam.size + mu.size < ctx.n:
                    product = quantum_product(schubert_class(lam, ctx), schubert_class(mu, ctx))
                    assert product.q_degrees() <= {0}


def test_quantum_pieri():
    assert terms(quantum_pieri("e", 2, Partition(), C24)) == {((1, 1), 0): 1}
    assert terms(quantum_pieri("h", 2, Partition((2, 2)), C24)) == {((1, 1), 1): 1}
    with pytest.raises(IndexOutOfRange):
        quantum_pieri("h", 3, Partition(), C24)
    with pytest.raises(IndexOutOfRange):
        quantum_pieri("e", 3, Partition(), C24)
    with pytest.raises(QGrassError):
        quantum_pieri("x", 1, Partition(), C24)


def test_pieri_matches_product_with_generator():
    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6)):
        for mu in enumerate_pkn(ctx):
            for r in range(1, ctx.k + 1):
                via_product = quantum_product(
                    schubert_class(Partition([1] * r), ctx), schubert_class(mu, ctx)
                )
                assert quantum_pieri("e", r, mu, ctx) == via_product
            for r in range(1, ctx.cols + 1):
                via_product = quantum_product(
                    schubert_class(Partition([r]), ctx), schubert_class(mu, ctx)
                )
                assert quantum_pieri("h", r, mu, ctx) == via_product


def test_cyclic_classes():
    # multiplying by the two cyclic classes shifts the boundary word
    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6)):
        for lam in enumerate_pkn(ctx):
            bits = to_word01(lam, ctx).bits
            e_top = quantum_pieri("e", ctx.k, lam, ctx)
            assert terms(e_top) == {
                (cyclic_shift(lam, ctx, -1).parts, bits[ctx.n - 1]): 1
            }
            h_top = quantum_pieri("h", ctx.cols, lam, ctx)
            assert terms(h_top) == {(cyclic_shift(lam, ctx, 1).parts, 1 - bits[0]): 1}


def test_eh_subring_relations():
    # powers of the cyclic classes realize all rectangles, and E*H = q
    ctx = GrassContext(2, 5)
    E = cls((1, 1), ctx)
    H = cls((3,), ctx)
    assert quantum_product(E, H) == QuantumClass(ctx, {(Partition(), 1): 1})
    power = unit_class(ctx)
    for _ in range(ctx.n):
        power = quantum_product(power, E)
    assert power == QuantumClass(ctx, {(Partition(), ctx.k): 1})
    power = unit_class(ctx)
    for _ in range(ctx.n):
        power = quantum_product(power, H)
    assert power == QuantumClass(ctx, {(Partition(), ctx.cols): 1})
    # the fundamental class of a point
    point = quantum_product(E, quantum_product(E, E))
    assert terms(point) == {((3, 3), 0): 1}
    # every power of the column class is a rectangle, up to a q factor
    power = unit_class(ctx)
    for j in range(1, ctx.n + 1):
        power = quantum_product(power, E)
        if j <= ctx.cols:
            assert terms(power) == {(tuple([j] * ctx.k), 0): 1}
        else:
            i = j - ctx.cols
            assert terms(power) == {(tuple([ctx.cols] * (ctx.k - i)), i): 1}


def test_giambelli():
    assert giambelli_class(Partition((1,)), C24) == cls((1,))
    assert giambelli_class(Partition((2, 1)), C24) == cls((2, 1))
    for ctx in (C24, GrassContext(3, 6)):
        for lam in enumerate_pkn(ctx):
            assert giambelli_class(lam, ctx) == schubert_class(lam, ctx)


def test_gw_invariant_basics():
    empty = Partition()
    for nu in enumerate_pkn(C24):
        for lam in enumerate_pkn(C24):
            expected = 1 if lam == nu else 0
            assert gw_invariant(empty, nu, lam, 0, C24) == expected
    assert gw_invariant(Partition((2, 1)), Partition((2, 1)), Partition((1, 1)), 1, C24) == 1
    # degree mismatch forces zero
    assert gw_invariant(Partition((2, 1)), Partition((2, 1)), Partition((1, 1)), 0, C24) == 0
    # the degree is an exact int on every backend
    for backend in ("bcf", "toric", "niltl"):
        for d in (0.0, True, "x"):
            with pytest.raises(QGrassError, match="q-degree must be an int"):
                gw_invariant(empty, empty, empty, d, C24, backend)
    # an unknown backend is refused whether or not the degree condition holds
    for lam, d in ((empty, 0), (Partition((1,)), 0), (empty, -1)):
        with pytest.raises(QGrassError, match="unknown backend 'bogus'"):
            gw_invariant(empty, empty, lam, d, C24, backend="bogus")


def feasible_tuples(ctx):
    basis = enumerate_pkn(ctx)
    for mu in basis:
        for nu in basis:
            total = mu.size + nu.size
            for d in range(total // ctx.n + 1):
                rest = total - d * ctx.n
                if 0 <= rest <= ctx.k * ctx.cols:
                    for lam in box_partitions_by_size(ctx, rest):
                        yield mu, nu, lam, d


def test_backends_agree_spot():
    ctx = GrassContext(2, 5)
    for mu, nu, lam, d in feasible_tuples(ctx):
        values = {
            gw_invariant(mu, nu, lam, d, ctx, backend)
            for backend in ("bcf", "toric", "niltl")
        }
        assert len(values) == 1
        assert values.pop() >= 0


def test_duality_isomorphism_transport():
    ctx_a, ctx_b = GrassContext(2, 5), GrassContext(3, 5)
    for mu, nu, lam, d in feasible_tuples(ctx_a):
        assert gw_invariant(mu, nu, lam, d, ctx_a) == gw_invariant(
            conjugate(mu), conjugate(nu), conjugate(lam), d, ctx_b
        )


def test_commutative_and_associative():
    for ctx in (GrassContext(1, 3), C24, GrassContext(2, 5)):
        basis = [schubert_class(p, ctx) for p in enumerate_pkn(ctx)]
        for i, a in enumerate(basis):
            for b in basis[i:]:
                assert quantum_product(a, b) == quantum_product(b, a)
        for a in basis:
            for b in basis:
                for c in basis:
                    assert quantum_product(quantum_product(a, b), c) == quantum_product(
                        a, quantum_product(b, c)
                    )


def test_classical_limit_matches_lr():
    for ctx in (C24, GrassContext(2, 5)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                product = quantum_product(schubert_class(lam, ctx), schubert_class(mu, ctx))
                classical = {
                    key[0]: c for key, c in product.classical_part().terms.items()
                }
                expected = {}
                for nu in box_partitions_by_size(ctx, lam.size + mu.size):
                    c = lr_coefficient(lam, mu, nu)
                    if c:
                        expected[nu] = c
                assert classical == expected


def test_quantum_class_api():
    with pytest.raises(QGrassError):
        QuantumClass(C24, {(Partition((1,)), -1): 1})
    local = QuantumClass(C24, {(Partition((1,)), -1): 1}, localized=True)
    assert local.coefficient(Partition((1,)), -1) == 1
    shifted = local.q_shift(2)
    assert shifted.coefficient(Partition((1,)), 1) == 1
    total = cls((1,)) + cls((1,), d=1).scaled(3)
    assert str(total) == "s[1] + 3*q*s[1]"
    assert str(quantum_product(cls((2, 2)), cls((2, 2)))) == "q^2"
    assert total.to_json_dict()["terms"] == [
        {"d": 0, "partition": [1], "coeff": 1},
        {"d": 1, "partition": [1], "coeff": 3},
    ]


def test_boundary_validation():
    with pytest.raises(DoesNotFitBox):
        schubert_class(Partition((3,)), GrassContext(2, 4))
    with pytest.raises(DoesNotFitBox):
        QuantumClass(C24, {(Partition((1, 1, 1)), 0): 1})
    with pytest.raises(QGrassError):
        QuantumClass(C24, {(Partition((1,)), -1): 1})
    with pytest.raises(QGrassError):
        cls((1,)).q_shift(-1)
    # terms are exact: a Partition, an int degree and an int coefficient; bool is refused
    one = Partition((1,))
    for bad in (
        {(one, 0.5): 1}, {(one, True): 1}, {(one, 0): 0.5}, {(one, 0): True}, {((1,), 0): 1},
    ):
        with pytest.raises(QGrassError):
            QuantumClass(C24, bad)
    for make in (lambda: cls((1,)).scaled(0.5), lambda: cls((1,)).q_shift(0.5)):
        with pytest.raises(QGrassError):
            make()
    for d in (0.5, True, "x"):
        with pytest.raises(QGrassError, match="q-degree must be an int"):
            schubert_class(one, C24, d)
    assert schubert_class(Partition((1,)), C24, -1).localized


def test_gw_invariant_refuses_a_partition_outside_the_box():
    ctx = GrassContext(2, 5)
    fits, wide, tall = Partition((1,)), Partition((4,)), Partition((1, 1, 1))
    for backend in ("bcf", "toric", "niltl"):
        for bad in (wide, tall):
            for args in ((bad, fits, fits), (fits, bad, fits), (fits, fits, bad)):
                with pytest.raises(DoesNotFitBox, match="does not fit the 2 x 3 box"):
                    gw_invariant(*args, 0, ctx, backend=backend)


def reference_product(f, g):
    """The bilinear sum over the (Partition, degree) terms of _basis_qprod, in a new dict."""
    acc = {}
    for (lam, d1), a in f.terms.items():
        for (mu, d2), b in g.terms.items():
            for (nu, dd), c in _basis_qprod(f.ctx, lam.parts, mu.parts).items():
                key = (nu, d1 + d2 + dd)
                acc[key] = acc.get(key, 0) + a * b * c
    return QuantumClass(f.ctx, acc, f.localized or g.localized)


def test_product_matches_reference_sum():
    ctx = GrassContext(2, 5)
    s1, s2, s11 = cls((1,), ctx), cls((2,), ctx), cls((1, 1), ctx)
    multi = s1.scaled(2) + cls((2, 1), ctx, d=1).scaled(-3) + cls((3, 2), ctx)
    local = cls((2, 1), ctx, d=-2)
    pairs = [
        (multi, multi),
        (multi, s2 + s11),
        (s1, s2 - s2),
        (s1, s2 - s11),  # the s[2,1] terms cancel
        (multi.q_shift(2), s2.q_shift(1)),
        (local, multi),
        (multi, s1.q_shift(-3, localized=True)),
        # one term each, scaled and shifted
        (s2.scaled(-3).q_shift(2), cls((2, 1), ctx, d=1).scaled(5)),
        (local, s1.scaled(2)),
    ]
    basis = [schubert_class(lam, ctx) for lam in enumerate_pkn(ctx)]
    pairs += [(a, b) for a in basis for b in basis]
    for f, g in pairs:
        got, want = quantum_product(f, g), reference_product(f, g)
        assert got == want and got.localized == want.localized, (f, g)
        assert 0 not in got.terms.values()
    assert quantum_product(s1, s2 - s2).is_zero()
    assert quantum_product(s1, s2 - s2) + s1 == s1
    assert str(quantum_product(s1, s2 - s11)) == "s[3]"
    assert quantum_product(local, s1).localized
    assert not quantum_product(multi, multi).localized


def test_product_terms_are_shared_and_independent():
    ctx = GrassContext(2, 5)
    f, g = cls((2, 1), ctx), cls((2,), ctx) + cls((1, 1), ctx)
    first = quantum_product(f, g)
    shared = [lam for lam, _ in first.terms]
    assert all(Partition(lam.parts) is lam for lam in shared)
    want = reference_product(f, g)
    first.terms.clear()
    first.terms[(Partition((9, 9)), 0)] = 7
    again = quantum_product(f, g)
    assert again == want
    assert [lam for lam, _ in again.terms] == shared
    assert all(Partition(lam.parts) is lam for lam in shared)


def test_basis_products_copy_the_memo_entry():
    ctx = GrassContext(2, 5)
    f, g = cls((2, 1), ctx), cls((2,), ctx)
    want = reference_product(f, g)
    memo = _basis_qprod(ctx, (2,), (2, 1))
    first, second = quantum_product(f, g), quantum_product(f, g)
    assert len(first.terms) > 1 and first.terms is not second.terms
    assert first.terms is not memo and second.terms is not memo
    # the same key tuples as the memo's, each holding the interned Partition
    assert all(a is b is c for a, b, c in zip(first.terms, second.terms, memo, strict=True))
    assert all(Partition(lam.parts) is lam for lam, _ in first.terms)
    first.terms.clear()
    assert quantum_product(f, g) == want
    second.terms[next(iter(second.terms))] = 7
    second.terms[(Partition((3, 3)), 0)] = 1
    assert quantum_product(f, g) == want and second != want
    # a coefficient, a q-shift or a localized factor takes the summing path
    local = schubert_class(Partition((2,)), ctx, -1)
    for a, b in ((f.scaled(-2), g), (f, g.q_shift(1)), (f, local), (local, f)):
        got = quantum_product(a, b)
        assert got == reference_product(a, b) and got.localized == (b is local or a is local)
    assert quantum_product(f, g) == want
    # the reduction hands out the interned core
    for tau, k, n, core in (((7, 5, 2), 3, 6, (1, 1)), ((4,), 2, 4, ()), ((2, 1), 2, 4, (2, 1))):
        assert rimhook_reduce(Partition(tau), GrassContext(k, n)).core is Partition(core)


def test_product_does_not_enumerate_the_basis():
    # Gr(8,18) has 43,758 classes; a product of two small classes should not
    # pay for the sweep tables of its context.
    ctx = GrassContext(8, 18)
    a = schubert_class(Partition((3, 2, 1)), ctx)
    product = quantum_product(a, a)
    assert terms(product)[((6, 4, 2), 0)] == 1
    assert all(Partition(lam.parts) is lam for lam, _ in product.terms)
    assert set(vars(basis_table(ctx))) == {"k", "n"}
