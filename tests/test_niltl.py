from itertools import combinations, product

import pytest

from qgrass import (
    EMPTY,
    GrassContext,
    IndexOutOfRange,
    LaurentPoly,
    NilTLOperator,
    Partition,
    QGrassError,
    Word01,
    enumerate_pkn,
    enumerate_tableaux,
    eh_op,
    from_word01,
    generator_op,
    is_toric,
    make_shape,
    niltl,
    quantum_product,
    schubert_class,
    schubert_op,
    to_word01,
    verify_relations,
    word_operator,
    z_op,
)

C24 = GrassContext(2, 4)


def test_laurent_poly():
    q = LaurentPoly.q_power(1)
    one = LaurentPoly.one()
    assert q * q == LaurentPoly.q_power(2)
    assert (q + one) * (q - one) == LaurentPoly.q_power(2) - one
    assert (q - q).is_zero()
    assert LaurentPoly.q_power(-1) * q == one
    assert str(LaurentPoly({2: 1, 0: -3})) == "-3 + q^2"
    assert LaurentPoly({1: 2}).coefficient(1) == 2


def test_generator_action():
    ctx = C24
    # only the box on the main diagonal can be added to the empty shape
    a = {i: generator_op(i, ctx) for i in range(1, 5)}
    empty = Partition()
    col = {i: a[i].column(empty) for i in a}
    assert col[2] == {Partition((1,)): LaurentPoly.one()}
    assert col[1] == {} and col[3] == {} and col[4] == {}
    # the wrap generator removes a hook of size n-1 and carries q
    col = a[4].column(Partition((2, 2)))
    assert col == {Partition((1,)): LaurentPoly.q_power(1)}
    with pytest.raises(IndexOutOfRange):
        generator_op(5, ctx)


def _laurent_generators(ctx):
    """Reference generators as rows {col: LaurentPoly}, built from the boundary words."""
    basis = enumerate_pkn(ctx)
    index = {lam: i for i, lam in enumerate(basis)}
    gens = {}
    for g in range(1, ctx.n + 1):
        src, dst = g - 1, g % ctx.n
        poly = LaurentPoly.q_power(1 if g == ctx.n else 0)
        rows = [{} for _ in basis]
        for col, lam in enumerate(basis):
            bits = list(to_word01(lam, ctx).bits)
            if bits[src] == 1 and bits[dst] == 0:
                bits[src], bits[dst] = 0, 1
                rows[index[from_word01(Word01(tuple(bits)), ctx)]][col] = poly
        gens[g] = rows
    return gens


def _laurent_matmul(a, b):
    out = []
    for row_a in a:
        acc = {}
        for l, p in row_a.items():
            for j, r in b[l].items():
                acc[j] = acc[j] + p * r if j in acc else p * r
        out.append({j: p for j, p in acc.items() if p})
    return out


def test_graded_operators_match_laurent_reference():
    # every word of length <= 3, composed as Laurent-polynomial matrices
    for ctx in (C24, GrassContext(2, 5)):
        gens = _laurent_generators(ctx)
        dim = ctx.num_classes
        words = [w for m in range(4) for w in product(range(1, ctx.n + 1), repeat=m)]
        for word in words:
            ref = [{i: LaurentPoly.one()} for i in range(dim)]
            for g in word:
                ref = _laurent_matmul(gens[g], ref)
            op = word_operator(ctx, word)
            for i in range(dim):
                for j in range(dim):
                    assert op.entry(i, j) == ref[i].get(j, LaurentPoly()), (word, i, j)


def _cyclic_runs(subset, n):
    """Split a proper subset of 1..n into maximal cyclically consecutive runs."""
    members = set(subset)
    runs = []
    for start in sorted(members):
        prev = n if start == 1 else start - 1
        if prev in members:
            continue
        run = [start]
        nxt = start % n + 1
        while nxt in members:
            run.append(nxt)
            nxt = nxt % n + 1
        runs.append(run)
    return runs


def test_eh_ops_match_run_words():
    # e_r and h_r as sums of run words: within a run the letters act top-down
    # for e and bottom-up for h, composed as Laurent-polynomial matrices
    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6)):
        gens = _laurent_generators(ctx)
        dim = ctx.num_classes
        for kind in ("e", "h"):
            for r in range(1, ctx.n):
                ref = [{} for _ in range(dim)]
                for subset in combinations(range(1, ctx.n + 1), r):
                    word = [
                        g
                        for run in _cyclic_runs(subset, ctx.n)
                        for g in (reversed(run) if kind == "e" else run)
                    ]
                    op = [{i: LaurentPoly.one()} for i in range(dim)]
                    for g in word:
                        op = _laurent_matmul(gens[g], op)
                    for i, row in enumerate(op):
                        for j, p in row.items():
                            ref[i][j] = ref[i][j] + p if j in ref[i] else p
                op = eh_op(kind, r, ctx)
                for i in range(dim):
                    for j in range(dim):
                        want = ref[i].get(j, LaurentPoly())
                        assert op.entry(i, j) == want, (kind, r, i, j)


def test_word_operator_rejects_letters_outside_range():
    for ctx in (C24, GrassContext(2, 5)):
        for letter in (0, ctx.n + 1):
            with pytest.raises(IndexOutOfRange):
                word_operator(ctx, (letter,))
            with pytest.raises(IndexOutOfRange):
                word_operator(ctx, (1, letter))


def test_graded_operator_arithmetic():
    ctx = C24
    ident = NilTLOperator.identity(ctx)
    u1 = generator_op(1, ctx)
    with pytest.raises(QGrassError):
        u1 + ident
    assert NilTLOperator.zero(ctx) + u1 == u1
    # equal rows, different degrees
    assert ident != ident.scaled(LaurentPoly.q_power(1))
    with pytest.raises(QGrassError):
        ident.scaled(LaurentPoly({0: 1, 1: 1}))
    with pytest.raises(TypeError):
        NilTLOperator(ctx, [{i: LaurentPoly.one()} for i in range(ctx.num_classes)])


def test_cancelling_products_and_sums_store_no_zero():
    # Rows 0 and 1 of b map to column 2 with opposite signs, so a row taking
    # both cancels there; so does u1 + (-u1) everywhere.
    ctx = C24
    dim = ctx.num_classes
    a = NilTLOperator(ctx, [{0: 1, 1: 1}] + [{} for _ in range(dim - 1)], 0)
    b = NilTLOperator(ctx, [{2: 1, 3: 1}, {2: -1, 4: 2}] + [{} for _ in range(dim - 2)], 0)
    u1 = generator_op(1, ctx)
    cases = [
        (a @ b, NilTLOperator(ctx, [{2: 0, 3: 1, 4: 2}] + [{}] * (dim - 1), 0)),
        (b + b.scaled(-1), NilTLOperator(ctx, [{2: 0, 3: 0}, {2: 0, 4: 0}] + [{}] * (dim - 2), 0)),
        (u1 + u1.scaled(-1), NilTLOperator.zero(ctx)),
        (a + b.scaled(-1), NilTLOperator(ctx, [{0: 1, 1: 1, 2: -1, 3: -1}, {2: 1, 4: -2}]
                                         + [{}] * (dim - 2), 0)),
        (u1.scaled(0), NilTLOperator.zero(ctx)),
    ]
    for got, want in cases:
        assert all(c for row in got.rows for c in row.values()), got.rows
        assert got == want
    assert (u1 + u1.scaled(-1)).is_zero()


def test_operator_entries_are_homogeneous():
    ctx = GrassContext(3, 6)
    basis = enumerate_pkn(ctx)
    ops = [eh_op(kind, r, ctx) for kind in ("e", "h") for r in range(1, ctx.n)]
    ops += [schubert_op(lam, ctx, kind) for lam in basis for kind in ("h", "e")]
    for op in ops:
        for i, row in enumerate(op.rows):
            for j in row:
                shift = op.degree + basis[j].size - basis[i].size
                assert shift >= 0 and shift % ctx.n == 0, (op.degree, i, j)


def test_eh_first_level():
    for ctx in (GrassContext(1, 3), C24):
        total = NilTLOperator.zero(ctx)
        for i in range(1, ctx.n + 1):
            total = total + generator_op(i, ctx)
        assert eh_op("e", 1, ctx) == total
        assert eh_op("h", 1, ctx) == total


def test_eh_match_pieri():
    from qgrass import quantum_pieri

    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6)):
        basis = enumerate_pkn(ctx)
        for kind, bound in (("e", ctx.k), ("h", ctx.cols)):
            for r in range(1, bound + 1):
                op = eh_op(kind, r, ctx)
                for mu in basis:
                    col = op.column(mu)
                    expected = quantum_pieri(kind, r, mu, ctx)
                    got = {
                        (lam, d): poly.coefficient(d)
                        for lam, poly in col.items()
                        for d in poly.terms
                    }
                    assert got == {key: c for key, c in expected.terms.items()}


def test_z_ops():
    for ctx in (C24, GrassContext(2, 5)):
        ident = NilTLOperator.identity(ctx)
        for l in range(1, ctx.n):
            z = z_op(l, ctx)
            if l == ctx.k:
                assert z == ident.scaled(LaurentPoly.q_power(1))
            else:
                assert z.is_zero()


def test_schubert_op_is_multiplication_matrix():
    for ctx in (C24, GrassContext(2, 5)):
        basis = enumerate_pkn(ctx)
        for lam in basis:
            op = schubert_op(lam, ctx)
            for mu in basis:
                col = op.column(mu)
                product = quantum_product(schubert_class(lam, ctx), schubert_class(mu, ctx))
                got = {
                    (nu, d): poly.coefficient(d)
                    for nu, poly in col.items()
                    for d in poly.terms
                }
                assert got == {key: c for key, c in product.terms.items()}


def test_schubert_op_h_and_e_determinants_agree():
    # Kind "h" is the prefix-sharing walk, kind "e" the masked_det oracle over the conjugate.
    for n in range(2, 9):
        for k in range(1, n):
            ctx = GrassContext(k, n)
            for lam in enumerate_pkn(ctx):
                assert schubert_op(lam, ctx, "h") == schubert_op(lam, ctx, "e"), (k, n, lam)


def test_schubert_op_builds_only_the_h_words_the_cli_prices(monkeypatch):
    # gw --backend niltl prices h_1 .. h_top, top = min(n - 1, nu_1 + (k - 1 if nu_2 else 0)).
    # A cold query builds the walk of its (nu_1, nu_2) and asks for no h_c above top.
    asked = []
    real = niltl.eh_op

    def recorder(kind, r, ctx):
        asked.append((kind, r))
        return real(kind, r, ctx)

    monkeypatch.setattr(niltl, "eh_op", recorder)
    for n in range(2, 9):
        for k in range(1, n):
            ctx = GrassContext(k, n)
            for nu in enumerate_pkn(ctx):
                schubert_op.cache_clear()
                niltl._schubert_walk.cache_clear()
                asked.clear()
                schubert_op(nu, ctx)
                top = min(n - 1, nu.part(1) + (k - 1 if nu.part(2) else 0))
                assert all(kind == "h" and r <= top for kind, r in asked), (k, n, nu, asked)


def test_verify_relations_all_pass():
    for k, n in ((1, 3), (2, 4), (2, 5)):
        report = verify_relations(GrassContext(k, n))
        assert report, "report must not be empty"
        failing = [entry for entry in report if entry["status"] != "pass"]
        assert not failing, failing


def _shape_word(shape):
    """Generator word of a shape read off a standard chain, entry 1 first."""
    ctx = shape.ctx
    chains = enumerate_tableaux(shape, shape.size)
    for chain in chains:
        if any(w != 1 for w in chain.weights):
            continue
        word = []
        for prev, cur in zip(chain.loops, chain.loops[1:]):
            for i in range(1, ctx.k + 1):
                if cur.value(i) != prev.value(i):
                    j = cur.value(i)
                    g = (j - i + ctx.k) % ctx.n
                    word.append(g if g else ctx.n)
                    break
        return word
    return None


def test_word_operator_matches_shapes():
    # the ordered product of generators along a toric shape maps the inner
    # partition to q^d times the outer one
    for ctx in (C24, GrassContext(2, 5)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                for d in (0, 1, 2):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY or not is_toric(shape) or shape.size == 0:
                        continue
                    word = _shape_word(shape)
                    if word is None:
                        continue
                    op = word_operator(ctx, word)
                    col = op.column(mu)
                    assert col == {lam: LaurentPoly.q_power(d)}, (lam, d, mu, word)
