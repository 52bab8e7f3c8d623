import random
from itertools import permutations, product
from types import SimpleNamespace

import pytest

from conftest import classical_triple
from qgrass import (
    CylindricLoop,
    FormMismatch,
    GrassContext,
    Partition,
    check_strange_duality_pair,
    complement,
    conjugate,
    cyclic_shift,
    diag,
    dmin_dmax,
    down_transform,
    duality_map,
    enumerate_pkn,
    essential_interval,
    gw_triple,
    hidden_symmetry_check,
    loop_leq,
    q_power_set,
    quantum_product,
    schubert_class,
    strange_duality,
    unit_class,
)
from qgrass import symmetry, verify
from qgrass.partitions import basis_table
from qgrass.verify import (
    hidden_symmetry_sweep, product_rows, s3_symmetry_sweep, strange_multiplicative_sweep,
    strange_transport_sweep,
)

C24 = GrassContext(2, 4)
FIG5 = (GrassContext(6, 16), Partition((9, 6, 6, 4, 3)), Partition((9, 8, 8, 7, 6, 4)))


def test_duality_map():
    assert duality_map(unit_class(C24)).terms == {(Partition((2, 2)), 0): 1}
    f = schubert_class(Partition((2, 1)), C24, d=1) + schubert_class(Partition((1,)), C24)
    assert duality_map(duality_map(f)) == f
    q_unit = schubert_class(Partition(), C24, d=1)
    assert duality_map(q_unit).terms == {(Partition((2, 2)), -1): 1}


def test_strange_duality_unit_and_q():
    assert strange_duality(unit_class(C24)) == unit_class(C24)
    q_unit = schubert_class(Partition(), C24, d=1)
    assert strange_duality(q_unit).terms == {(Partition(), -1): 1}
    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6)):
        for lam in enumerate_pkn(ctx):
            f = schubert_class(lam, ctx)
            assert strange_duality(strange_duality(f)) == f


def test_strange_duality_multiplicative():
    for ctx in (C24, GrassContext(2, 5)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                a, b = schubert_class(lam, ctx), schubert_class(mu, ctx)
                assert strange_duality(quantum_product(a, b)) == quantum_product(
                    strange_duality(a), strange_duality(b)
                )


def test_duality_product_identity_random_triples():
    random.seed(5)
    for ctx in (C24, GrassContext(2, 5)):
        basis = enumerate_pkn(ctx)
        for _ in range(40):
            f, g, h = (
                schubert_class(random.choice(basis), ctx, d=random.randint(-1, 1))
                for _ in range(3)
            )
            lhs = quantum_product(duality_map(quantum_product(f, g)), duality_map(h))
            rhs = quantum_product(duality_map(f), duality_map(quantum_product(g, h)))
            assert lhs == rhs


def test_dmin_dmax_figure_values():
    ctx, lam, mu = FIG5
    interval = dmin_dmax(lam, mu, ctx)
    assert (interval.dmin, interval.dmax) == (2, 3)
    assert q_power_set(lam, mu, ctx) == {2, 3}


def test_dmin_dmax_small():
    empty = Partition()
    interval = dmin_dmax(empty, empty, C24)
    assert (interval.dmin, interval.dmax) == (0, 0)
    interval = dmin_dmax(Partition((2, 2)), Partition((2, 2)), C24)
    assert (interval.dmin, interval.dmax) == (2, 2)
    interval = dmin_dmax(Partition((1,)), Partition((1,)), C24)
    assert (interval.dmin, interval.dmax) == (0, 0)


def test_dmin_dmax_flip_identity():
    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6)):
        for lam in enumerate_pkn(ctx):
            tilde = cyclic_shift(complement(lam, ctx), ctx, ctx.cols)
            for mu in enumerate_pkn(ctx):
                a = dmin_dmax(lam, mu, ctx)
                b = dmin_dmax(tilde, complement(mu, ctx), ctx)
                assert a.dmin == diag(lam, ctx, 0) - b.dmax
                assert a.dmax == diag(lam, ctx, 0) - b.dmin


def test_power_set_equals_interval():
    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6), GrassContext(2, 7)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                interval = dmin_dmax(lam, mu, ctx)
                powers = q_power_set(lam, mu, ctx)
                assert powers
                assert powers == set(interval.members())


def test_interval_geometric_reading():
    for ctx in (C24, GrassContext(2, 5)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                interval = dmin_dmax(lam, mu, ctx)
                mu_c = complement(mu, ctx)
                base = CylindricLoop(lam, 0, ctx)
                low = [
                    d for d in range(0, interval.dmax + 3)
                    if loop_leq(base, CylindricLoop(mu_c, d, ctx))
                ]
                assert min(low) == interval.dmin
                upper = down_transform(base)
                high = [
                    d for d in range(0, interval.dmax + 3)
                    if loop_leq(CylindricLoop(mu_c, d, ctx), upper)
                ]
                assert max(high) == interval.dmax


def test_essential_interval_degenerate_cases():
    empty = Partition()
    # the all-empty triple admits no feasible degree at all: empty window
    ess = essential_interval(empty, empty, empty, C24)
    assert ess.dmin > ess.dmax
    a, b, c = ess.argmin
    assert a + b + c == 0
    a, b, c = ess.argmax
    assert a + b + c == C24.k - C24.n
    # with the full box as third leg the degree-zero pairing value 1 survives
    full = Partition((2, 2))
    ess = essential_interval(empty, empty, full, C24)
    assert ess.dmin == 0 <= ess.dmax
    assert gw_triple(empty, empty, full, C24) == (0, 1)
    a, b, c = ess.argmin
    assert classical_triple(
        cyclic_shift(empty, C24, a),
        cyclic_shift(empty, C24, b),
        cyclic_shift(full, C24, c),
        C24,
    ) == 1


def test_essential_interval_endpoints_and_union():
    for ctx in (C24, GrassContext(2, 5)):
        basis = enumerate_pkn(ctx)
        for lam in basis:
            for mu in basis:
                pair = dmin_dmax(lam, mu, ctx)
                union = set()
                for nu in basis:
                    ess = essential_interval(lam, mu, nu, ctx)
                    window = set(range(ess.dmin, ess.dmax + 1))
                    assert window <= set(pair.members())
                    union |= window
                    d, value = gw_triple(lam, mu, nu, ctx)
                    if value:
                        assert ess.dmin <= d <= ess.dmax
                    total = lam.size + mu.size + nu.size - ctx.k * ctx.cols
                    if total % ctx.n:
                        continue
                    dd = total // ctx.n
                    if dd == ess.dmin:
                        a, b, c = ess.argmin
                        expected = classical_triple(
                            cyclic_shift(lam, ctx, a),
                            cyclic_shift(mu, ctx, b),
                            cyclic_shift(nu, ctx, c),
                            ctx,
                        )
                        assert (value if dd == d else 0) == expected
                    if dd == ess.dmax:
                        a, b, c = ess.argmax
                        expected = classical_triple(
                            cyclic_shift(complement(lam, ctx), ctx, -a),
                            cyclic_shift(complement(mu, ctx), ctx, -b),
                            cyclic_shift(complement(nu, ctx), ctx, -c),
                            ctx,
                        )
                        assert (value if dd == d else 0) == expected
                assert union == set(pair.members())


def test_hidden_symmetry():
    lam, mu, nu = Partition((2, 1)), Partition((2, 2)), Partition((1,))
    assert hidden_symmetry_check(lam, mu, nu, 0, 0, 0, C24)
    assert hidden_symmetry_check(lam, mu, nu, 4, -4, 0, C24)
    with pytest.raises(FormMismatch):
        hidden_symmetry_check(lam, mu, nu, 1, 0, 0, C24)
    ctx = GrassContext(2, 5)
    basis = enumerate_pkn(ctx)
    for lam in basis:
        for mu in basis:
            for nu in basis:
                for a in range(ctx.n):
                    for b in range(ctx.n):
                        assert hidden_symmetry_check(lam, mu, nu, a, b, -a - b, ctx)
    for ctx in (GrassContext(1, 3), C24, GrassContext(2, 5), GrassContext(3, 6)):
        assert hidden_symmetry_sweep(ctx, *product_rows(ctx)) is None


def test_s3_symmetry():
    ctx = GrassContext(2, 5)
    basis = enumerate_pkn(ctx)
    for i, lam in enumerate(basis):
        for j, mu in enumerate(basis[i:], start=i):
            for nu in basis[j:]:
                value = gw_triple(lam, mu, nu, ctx)
                for p in permutations((lam, mu, nu)):
                    assert gw_triple(*p, ctx) == value
    for ctx in (GrassContext(1, 3), C24, GrassContext(2, 5), GrassContext(3, 6)):
        assert s3_symmetry_sweep(ctx, *product_rows(ctx)) is None


def test_sweep_witnesses_fail_the_pointwise_checks(monkeypatch):
    # One wrong coefficient, read by the sweeps and by gw_triple alike.
    ctx = GrassContext(2, 5)
    real = verify._basis_qprod

    def corrupted(c, a, b):
        prod = real(c, a, b)
        if {a, b} == {(1,), (2,)}:
            prod = {**prod, (Partition((2, 1)), 0): prod[(Partition((2, 1)), 0)] + 1}
        return prod

    monkeypatch.setattr(verify, "_basis_qprod", corrupted)
    monkeypatch.setattr(symmetry, "_basis_qprod", corrupted)
    table = product_rows(ctx)
    *triple, a, b = hidden_symmetry_sweep(ctx, *table)
    lam, mu, nu = (Partition(p) for p in triple)
    assert not hidden_symmetry_check(lam, mu, nu, a, b, -a - b, ctx)
    triple = [Partition(p) for p in s3_symmetry_sweep(ctx, *table)]
    assert len({gw_triple(*p, ctx) for p in permutations(triple)}) > 1
    lam, mu = (Partition(p) for p in strange_transport_sweep(ctx, *table))
    assert not check_strange_duality_pair(lam, mu, ctx)


def test_hidden_sweep_checks_the_shift_identity(monkeypatch):
    # The degree half of the sweep rests on |shift_a(x)| - |x| = n*phi(x, a) - k*a;
    # one wrong prefix statistic must raise rather than pass or name a triple.
    ctx = GrassContext(2, 5)
    table = product_rows(ctx)
    real = verify.basis_table(ctx)
    phi = [list(row) for row in real.phi]
    phi[3][2] += 1
    fake = SimpleNamespace(
        parts=real.parts, size=real.size, complement=real.complement, shift=real.shift,
        phi=tuple(tuple(row) for row in phi),
    )
    monkeypatch.setattr(verify, "basis_table", lambda c: fake)
    with pytest.raises(FormMismatch):
        hidden_symmetry_sweep(ctx, *table)


def test_product_rows_transpose_duality():
    # Gr(k, n) and Gr(n-k, n) are isomorphic: conjugating all three indices maps
    # one product table onto the other.
    for n in range(2, 9):
        for k in range(1, n):
            ctx, dual = GrassContext(k, n), GrassContext(n - k, n)
            parts, dual_index = basis_table(ctx).parts, basis_table(dual).index
            conj = [dual_index[conjugate(Partition(p)).parts] for p in parts]
            (ids, pool), (dual_ids, dual_pool) = product_rows(ctx), product_rows(dual)
            rows, dual_rows, dim = list(pool), list(dual_pool), len(parts)
            assert set(ids) == set(range(len(rows)))  # every interned row is a product row
            for i, j in product(range(dim), repeat=2):
                moved = dual_rows[dual_ids[conj[i] * dim + conj[j]]]
                assert rows[ids[i * dim + j]] == tuple(moved[c] for c in conj), (ctx, i, j)


def test_product_table_interns_equal_rows():
    # Gr(4,9): 126 classes, 15,876 products, 945 distinct rows, each with one id.
    ids, pool = product_rows(GrassContext(4, 9))
    assert len(ids) == 15876 and list(pool.values()) == list(range(945))


def test_strange_duality_transport():
    for ctx in (C24, GrassContext(2, 5)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                assert check_strange_duality_pair(lam, mu, ctx)
    for ctx in (GrassContext(1, 3), C24, GrassContext(2, 5), GrassContext(3, 6)):
        table = product_rows(ctx)
        for sweep in (strange_transport_sweep, strange_multiplicative_sweep):
            assert sweep(ctx, *table) is None


def test_strange_duality_oracle_reads_no_basis_table(monkeypatch):
    # The oracle confirms the transport sweep's witnesses, and the sweep reads the shift,
    # complement and index tables of basis_table; a wrong entry there must not fool both.
    def refuse(ctx):
        raise AssertionError("basis_table in the strange-duality oracle")

    for ctx in (GrassContext(2, 5), GrassContext(3, 6)):
        basis = enumerate_pkn(ctx)
        with monkeypatch.context() as patch:
            patch.setattr(symmetry, "basis_table", refuse, raising=False)
            for lam, mu in product(basis, repeat=2):
                assert check_strange_duality_pair(lam, mu, ctx), (ctx, lam, mu)
