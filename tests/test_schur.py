import random
import sys
from itertools import permutations, product

import pytest

from conftest import planar_kostka, poly_multiply, poly_to_schur, schur_monomials
from qgrass import (
    EMPTY,
    GrassContext,
    NotContained,
    Partition,
    QGrassError,
    SchurExpansion,
    VarMismatch,
    complement,
    enumerate_pkn,
    gw_invariant,
    is_toric,
    lr_coefficient,
    make_shape,
    schur_product,
    skew_expand,
    quantum_kostka,
    toric_schur_expand,
)
from qgrass import partitions, schur, tableaux, verify
from qgrass.schur import (
    _lr_by_content,
    _lr_count,
    _mult_basis,
    _mult_basis_canonical,
    _partitions_into,
)
from qgrass.tableaux import _strip_successors_raw


def expansion(nvars, *pairs):
    return SchurExpansion(nvars, {Partition(p): c for p, c in pairs})


def test_lr_coefficient_small_values():
    one = Partition((1,))
    assert lr_coefficient(one, one, Partition((2,))) == 1
    assert lr_coefficient(one, one, Partition((1, 1))) == 1
    lam = Partition((3, 2, 1))
    assert lr_coefficient(Partition(), lam, lam) == 1
    assert lr_coefficient(lam, Partition(), lam) == 1
    assert lr_coefficient(Partition((2, 1)), Partition((2, 1)), lam) == 2
    # size or containment mismatches give zero without raising
    assert lr_coefficient(one, one, Partition((3,))) == 0
    assert lr_coefficient(Partition((2,)), one, Partition((1, 1, 1))) == 0


def _lr_row(lam, mu):
    """The nonzero _lr_count values over every nu of |lam| + |mu| cells."""
    total = sum(lam) + sum(mu)
    width = (lam[0] if lam else 0) + (mu[0] if mu else 0)
    row = {}
    for nu in _partitions_into(total, len(lam) + len(mu), width):
        c = _lr_count(lam, mu, nu)
        if c:
            row[nu] = c
    return row


def test_product_matches_lr_oracle_exhaustively():
    # Every ordered pair of box partitions, the empty one included, for caps
    # below, at and above the row counts; cap = len(lam) + len(mu) never binds.
    for k, n in ((3, 6), (3, 7)):
        basis = [p.parts for p in enumerate_pkn(GrassContext(k, n))]
        for lam in basis:
            for mu in basis:
                row = _lr_row(lam, mu)
                for cap in set(range(k + 2)) | {len(lam) + len(mu)}:
                    got = _mult_basis_canonical(lam, mu, cap)
                    assert got == {nu: c for nu, c in row.items() if len(nu) <= cap}, (
                        lam, mu, cap,
                    )
                    # either factor may give the strips
                    assert _mult_basis(lam, mu, cap) == got == _mult_basis(mu, lam, cap)
    assert _mult_basis_canonical((2, 1), (1,), 0) == {}
    assert _mult_basis_canonical((), (), 0) == {(): 1}
    assert _mult_basis_canonical((1, 1, 1), (1,), 2) == {}


def test_schur_product_api():
    f = expansion(2, ((1,), 1))
    assert schur_product(f, f) == expansion(2, ((2,), 1), ((1, 1), 1))
    assert schur_product(f, f, row_cap=1) == expansion(2, ((2,), 1))
    g = expansion(2, ((2, 1), 3), ((1,), -1))
    unit = expansion(2, ((), 1))
    assert schur_product(g, unit) == g
    with pytest.raises(VarMismatch):
        schur_product(f, expansion(3, ((1,), 1)))


def test_schur_product_against_monomial_oracle():
    random.seed(11)
    pool = [(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]
    for _ in range(12):
        lam = Partition(random.choice(pool))
        mu = Partition(random.choice(pool))
        nvars = 3
        product = schur_product(
            expansion(nvars, (lam.parts, 1)), expansion(nvars, (mu.parts, 1))
        )
        direct = poly_to_schur(
            poly_multiply(schur_monomials(lam, nvars), schur_monomials(mu, nvars)), nvars
        )
        assert dict(product.terms) == direct


def test_skew_expand():
    lam = Partition((2, 1))
    assert skew_expand(lam, Partition(), 3) == expansion(3, ((2, 1), 1))
    assert skew_expand(lam, Partition((1,)), 2) == expansion(2, ((2,), 1), ((1, 1), 1))
    with pytest.raises(NotContained):
        skew_expand(Partition((1,)), Partition((2,)), 2)
    # defining identity: coefficients are LR numbers with the skew outer shape on top
    big = Partition((3, 2, 1))
    for mu in (Partition((1,)), Partition((2, 1)), Partition((3,))):
        exp = skew_expand(big, mu, 3)
        for nu, coeff in exp.terms.items():
            assert coeff == lr_coefficient(mu, nu, big)


def test_skew_expand_refuses_negative_nvars():
    with pytest.raises(VarMismatch, match=r"^nvars must be >= 0, got -1$"):
        skew_expand(Partition((2, 1)), Partition((1,)), -1)
    # The variable count is an exact int, on the skew and the toric expansion alike.
    for nvars in (2.0, True):
        with pytest.raises(VarMismatch, match="nvars must be an int"):
            skew_expand(Partition((2, 1)), Partition((1,)), nvars)
        with pytest.raises(VarMismatch, match="nvars must be an int"):
            toric_schur_expand(Partition((2, 1)), 0, Partition((1,)), GrassContext(2, 4), nvars)
    with pytest.raises(QGrassError, match="offset difference d must be an int"):
        toric_schur_expand(Partition((2, 1)), 1.0, Partition((1,)), GrassContext(2, 4), 2)


def test_lr_rows_match_skew_schur_monomial_oracle():
    # Each row is the Schur expansion of the skew Schur polynomial of nu/lam,
    # built here from its monomials by direct SSYT enumeration.  A content has
    # at most len(nu) <= k rows, so k variables see every term.
    for k, n in ((2, 5), (3, 6)):
        ctx = GrassContext(k, n)
        basis = enumerate_pkn(ctx)
        for nu in basis:
            for lam in basis:
                if not nu.contains(lam):
                    continue
                size = nu.size - lam.size
                poly = {}
                for beta in product(range(size + 1), repeat=k):
                    if sum(beta) == size:
                        c = planar_kostka(nu, lam, beta)
                        if c:
                            poly[beta] = c
                want = {mu.parts: c for mu, c in poly_to_schur(poly, k).items()}
                assert _lr_by_content(lam.parts, nu.parts) == want, (lam, nu)
    assert _lr_by_content((2, 1), (2, 1)) == {(): 1}
    assert _lr_by_content((2,), (1, 1)) == {}


def test_skew_complement_transport():
    # coefficient of s_nu in the product equals the skew expansion of the
    # complemented pair read through complements
    ctx = GrassContext(2, 4)
    for lam in enumerate_pkn(ctx):
        for mu in enumerate_pkn(ctx):
            if not complement(mu, ctx).contains(lam):
                continue
            exp = skew_expand(complement(mu, ctx), lam, ctx.k)
            for nu in enumerate_pkn(ctx):
                if nu.size != complement(mu, ctx).size - lam.size:
                    continue
                got = exp.coefficient(nu)
                assert got == lr_coefficient(lam, mu, complement(nu, ctx))


def test_toric_expand_nontoric_example():
    ctx = GrassContext(1, 3)
    exp = toric_schur_expand(Partition(), 1, Partition(), ctx, 3)
    assert dict(exp.terms) == {Partition((2, 1)): 1, Partition((1, 1, 1)): -1}
    # with one variable per torus row the same shape vanishes identically
    assert toric_schur_expand(Partition(), 1, Partition(), ctx, 1).is_zero()


def test_toric_expand_classical_case():
    ctx = GrassContext(2, 5)
    for lam in enumerate_pkn(ctx):
        for mu in enumerate_pkn(ctx):
            if not lam.contains(mu):
                continue
            assert toric_schur_expand(lam, 0, mu, ctx, ctx.k) == skew_expand(lam, mu, ctx.k)


def test_toric_expand_gw_cross_check():
    ctx = GrassContext(2, 4)
    exp = toric_schur_expand(Partition((1, 1)), 1, Partition((2, 1)), ctx, 2)
    assert dict(exp.terms) == {Partition((2, 1)): 1}
    for nu, coeff in exp.terms.items():
        assert coeff == gw_invariant(Partition((2, 1)), nu, Partition((1, 1)), 1, ctx)
        assert coeff >= 0


def test_toric_expand_zero_iff_not_toric():
    from qgrass import EMPTY, is_toric, make_shape

    for ctx in (GrassContext(1, 3), GrassContext(2, 4), GrassContext(2, 5)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                for d in range(4):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY:
                        assert toric_schur_expand(lam, d, mu, ctx, ctx.k).is_zero()
                        continue
                    expansion = toric_schur_expand(lam, d, mu, ctx, ctx.k)
                    assert expansion.is_zero() == (not is_toric(shape)), (lam, d, mu)


def _permutation_sum_expansion(lam, d, mu, ctx, m):
    """The toric expansion by its definition: sum over all m! permutations w
    of sgn(w) * K(lam/d/mu, nu - delta + w(delta)), one Kostka count each."""
    signed = []
    for w in permutations(range(m)):
        inversions = sum(w[x] > w[y] for x in range(m) for y in range(x + 1, m))
        signed.append((-1 if inversions % 2 else 1, w))
    size = make_shape(lam, d, mu, ctx).size
    terms = {}
    for nu in _partitions_into(size, m, size):
        pad = nu + (0,) * (m - len(nu))
        total = 0
        for sign, w in signed:
            beta = [pad[i] - i + w[i] for i in range(m)]
            if min(beta) >= 0:
                total += sign * quantum_kostka(lam, d, mu, beta, ctx)
        if total:
            terms[Partition(nu)] = total
    return terms


def test_toric_expand_matches_permutation_sum():
    # Every toric shape of the three boxes (toric shapes have d <= k), and
    # every nonempty shape of degree <= k of the two smaller ones, whose
    # expansions in k variables must cancel to zero term by term.
    for ctx in (GrassContext(2, 4), GrassContext(2, 5), GrassContext(3, 6)):
        basis = enumerate_pkn(ctx)
        for lam in basis:
            for mu in basis:
                for d in range(ctx.k + 1):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY or (ctx.k == 3 and not is_toric(shape)):
                        continue
                    for m in range(ctx.k, ctx.k + 3):
                        got = toric_schur_expand(lam, d, mu, ctx, m)
                        assert dict(got.terms) == _permutation_sum_expansion(
                            lam, d, mu, ctx, m
                        ), (ctx, lam, d, mu, m)


def test_toric_expand_visits_only_nu_inside_the_strip_width(monkeypatch):
    # A horizontal strip has at most n-k cells, so nu_1 > n-k cannot occur.
    seen = []
    real = schur._toric_walk

    def recording(k, cols, mu, d, size, nvars, *args):
        for nu, chains in real(k, cols, mu, d, size, nvars, *args):
            seen.append((nu, cols))
            yield nu, chains

    monkeypatch.setattr(schur, "_toric_walk", recording)
    schur._toric_rows.cache_clear()
    for ctx in (GrassContext(1, 3), GrassContext(2, 4), GrassContext(2, 5)):
        basis = enumerate_pkn(ctx)
        for lam in basis:
            for mu in basis:
                for d in range(4):
                    toric_schur_expand(lam, d, mu, ctx, ctx.k + 2)
                    toric_schur_expand(lam, d, mu, ctx, ctx.k)
    assert seen
    assert all(not nu or nu[0] <= cols for nu, cols in seen)


def _toric_table(lam, d, mu, ctx):
    """{nu parts: coefficient} of the toric expansion of lam/d/mu in k variables."""
    return {nu.parts: c for nu, c in toric_schur_expand(lam, d, mu, ctx, ctx.k).terms.items()}


def _counting_grow_chains(monkeypatch):
    """Count schur.grow_chains calls, starting from empty toric caches."""
    calls = []
    real = schur.grow_chains

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(schur, "grow_chains", counting)
    schur._toric_rows.cache_clear()
    return calls


def test_toric_tables_share_one_walk_per_mu_and_size(monkeypatch):
    # The walk for (mu, |nu|) keeps every offset a chain of |nu| cells can
    # reach, so it reads every (lam, d) with |lam| + d*n = |mu| + |nu| at its
    # leaves: across all d, only the first table asked of such a group grows
    # chains (an empty shape first in its group included, as no shape test
    # runs before the walk); and the walk takes one determinant row step per
    # prefix of the nu it visits.
    calls = _counting_grow_chains(monkeypatch)
    steps = []
    real_step = partitions.masked_step

    def counting_step(*args):
        steps.append(1)
        return real_step(*args)

    monkeypatch.setattr(partitions, "masked_step", counting_step)
    ctx = GrassContext(3, 6)
    basis = enumerate_pkn(ctx)
    spans = set()
    for mu in basis:
        groups = {}
        for d in range(ctx.k + 1):
            for lam in basis:
                groups.setdefault(lam.size + d * ctx.n - mu.size, []).append((lam, d))
        for size, pairs in groups.items():
            grew = []
            for lam, d in pairs:
                before, steps_before = len(calls), len(steps)
                table = _toric_table(lam, d, mu, ctx)
                if len(calls) > before:
                    grew.append((lam, d))
                    nus = _partitions_into(size, ctx.k, ctx.cols)
                    prefixes = {nu[:r] for nu in nus for r in range(1, len(nu) + 1)}
                    assert len(steps) - steps_before == len(prefixes), (lam, d, mu)
                bcf = {nu.parts: gw_invariant(mu, nu, lam, d, ctx) for nu in basis}
                assert table == {nu: c for nu, c in bcf.items() if c}, (lam, d, mu)
            if 0 < size <= ctx.k * ctx.cols:
                assert grew == pairs[:1], (mu, size)
                nonempty = {d for lam, d in pairs if make_shape(lam, d, mu, ctx) is not EMPTY}
                spans.add(len(nonempty))
            else:
                assert grew == [], (mu, size)
    # Some walks serve nonempty shapes of two different d.
    assert max(spans) == 2


def test_toric_walk_keys_are_box_classes_of_the_right_size():
    # verify scatters each walk row to basis_table(ctx).index[lam], so every key (lam, d)
    # must be a box class, |lam| + d*n = |mu| + |nu|, with d in 0..(|mu| + |nu|) // n.
    for n in range(2, 9):
        for k in range(1, n):
            ctx = GrassContext(k, n)
            box = {lam.parts for lam in enumerate_pkn(ctx)}
            reached = set()
            for mu in box:
                for m in range(sum(mu), k * (n - k) + 1):
                    total = sum(mu) + m
                    for lam, d in schur._toric_rows(k, n, mu, m, k):
                        assert lam in box, (k, n, mu, m, lam)
                        assert sum(lam) + d * n == total, (k, n, mu, m, lam, d)
                        assert 0 <= d <= total // n, (k, n, mu, m, lam, d)
                        reached.add(lam)
            # sigma_mu * sigma_empty = sigma_mu, so every class is reached.
            assert reached == box, (k, n)


def test_toric_route_never_enumerates_a_large_basis(monkeypatch):
    # Gr(20, 40) has C(40, 20) classes; the toric route has no work bound,
    # so it must only visit the loops its chains reach.
    def refuse(ctx):
        raise AssertionError(f"basis of {ctx} enumerated")

    for name, module in list(sys.modules.items()):
        if name.startswith("qgrass") and hasattr(module, "basis_table"):
            monkeypatch.setattr(module, "basis_table", refuse)
    ctx = GrassContext(20, 40)
    one, lam = Partition((1,)), Partition((2, 1))
    assert gw_invariant(one, Partition((1, 1)), lam, 0, ctx, backend="toric") == 1
    assert str(toric_schur_expand(lam, 0, one, ctx, 3)) == "s[2] + s[1,1]"
    assert quantum_kostka(lam, 0, one, (1, 1), ctx) == 2


def test_toric_expand_work_stops_growing_past_the_shape_size(monkeypatch):
    # A nu of |shape| cells has at most |shape| rows, so the expansion, and
    # the chain growth of its walk, is the same in any more variables.
    calls = _counting_grow_chains(monkeypatch)
    ctx = GrassContext(2, 5)
    basis = enumerate_pkn(ctx)
    for lam in basis:
        for mu in basis:
            for d in range(3):
                shape = make_shape(lam, d, mu, ctx)
                if shape is EMPTY:
                    continue
                found = {}
                for nvars in (shape.size, 16):
                    schur._toric_rows.cache_clear()
                    before = len(calls)
                    terms = dict(toric_schur_expand(lam, d, mu, ctx, nvars).terms)
                    found[nvars] = (terms, len(calls) - before)
                assert found[shape.size] == found[16], (lam, d, mu)


def test_toric_expand_rejects_negative_nvars():
    for d in (0, 1):
        with pytest.raises(VarMismatch, match="nvars must be >= 0, got -1"):
            toric_schur_expand(Partition(), d, Partition(), GrassContext(1, 3), -1)
    # A negative d is refused before any size test.
    with pytest.raises(QGrassError, match="d must be >= 0, got -1"):
        toric_schur_expand(Partition((2,)), -1, Partition(), GrassContext(1, 3), 2)


def test_toric_expand_refuses_a_partition_outside_the_box():
    # The expansion of lam/d/mu shares its cached walk with every lam of the same size, so a
    # cached walk must not admit a lam outside the box, on the first call or a later one.
    schur._toric_rows.cache_clear()
    ctx, one = GrassContext(2, 4), Partition((1,))
    assert _toric_table(Partition((2, 1)), 0, one, ctx) == {(2,): 1, (1, 1): 1}
    for lam, mu in (((3,), (1,)), ((2, 1), (3,)), ((1, 1, 1), ())):
        for _ in range(2):
            with pytest.raises(QGrassError, match="does not fit"):
                toric_schur_expand(Partition(lam), 0, Partition(mu), ctx, ctx.k)


def test_a_refused_walk_stores_nothing_and_leaves_complete_rows(monkeypatch):
    # Wherever the meter raises, the memo gains no entry, every successor row filled so far
    # is whole, and the next call, under the full budget, is exact.
    ctx, lam, mu = GrassContext(3, 6), Partition((2, 1)), Partition((1,))
    full = tableaux.TORIC_BUDGET
    for budget in (100, 500, 1000):
        tableaux.loop_ids.cache_clear()
        schur._toric_rows.cache_clear()
        monkeypatch.setattr(tableaux, "TORIC_BUDGET", budget)
        with pytest.raises(QGrassError, match=f"over the budget of {budget} strip steps"):
            toric_schur_expand(lam, 1, mu, ctx, 5)
        assert schur._toric_rows.cache_info().currsize == 0
        loops = tableaux.loop_ids(3, 3)
        assert any(loops.successors)
        for size, table in enumerate(loops.successors):
            for loop, row in table.items():
                raw = _strip_successors_raw(loops.parts[loop], 3, 3, size, "horizontal")
                assert [loops.loop(state) for state in row] == raw
    monkeypatch.setattr(tableaux, "TORIC_BUDGET", full)
    got = toric_schur_expand(lam, 1, mu, ctx, 5)
    assert dict(got.terms) == _permutation_sum_expansion(lam, 1, mu, ctx, 5)


def test_the_meter_stops_a_successor_fill_part_way():
    # A strip of 3 cells above the staircase of 199 rows in Gr(200,400) can be placed in
    # about C(200, 3) = 1.3M ways, each a loop of 200 parts.  The fill spends as it
    # enumerates them, so the walk is refused inside it, and no row is stored.
    k = 200
    mu = Partition(tuple(range(k - 1, 0, -1)))
    lam = Partition((k, k - 1, k - 2) + mu.parts[3:])
    tableaux.loop_ids.cache_clear()
    schur._toric_rows.cache_clear()
    with pytest.raises(QGrassError, match="over the budget"):
        toric_schur_expand(lam, 0, mu, GrassContext(k, 2 * k), 1)
    assert not any(tableaux.loop_ids(k, k).successors)
    assert schur._toric_rows.cache_info().currsize == 0


def test_gw_toric_walks_under_the_budget(monkeypatch):
    ctx, two = GrassContext(3, 6), Partition((2, 1))
    schur._toric_rows.cache_clear()
    schur._toric_query.cache_clear()
    monkeypatch.setattr(tableaux, "TORIC_BUDGET", 100)
    with pytest.raises(QGrassError, match="over the budget of 100 strip steps"):
        gw_invariant(two, two, Partition((3, 3)), 0, ctx, "toric")
    assert gw_invariant(two, two, Partition((3, 3)), 0, ctx, "bcf") == 1


def test_gw_toric_query_matches_the_walk_rows_and_bcf():
    # The walk of the asked nu alone, read at lam[d], equals that nu's entry in the walk over
    # every nu of |nu| cells, and the bcf value, on every feasible tuple with n <= 7.
    for n in range(2, 8):
        for k in range(1, n):
            ctx = GrassContext(k, n)
            basis = enumerate_pkn(ctx)
            for mu, nu, lam in product(basis, repeat=3):
                d, excess = divmod(mu.size + nu.size - lam.size, n)
                if d < 0 or excess:
                    continue
                rows = schur._toric_rows(k, n, mu.parts, nu.size, k)
                walked = rows.get((lam.parts, d), {}).get(nu.parts, 0)
                toric = gw_invariant(mu, nu, lam, d, ctx, "toric")
                assert toric == walked == gw_invariant(mu, nu, lam, d, ctx), (mu, nu, lam, d)


def test_a_refused_toric_query_stores_nothing(monkeypatch):
    # The query memo gains no entry for a walk the meter refuses, and the same query under
    # the full budget is answered and stored.
    ctx, two = GrassContext(3, 6), Partition((2, 1))
    schur._toric_query.cache_clear()
    assert gw_invariant(two, two, Partition((3, 3)), 0, ctx, "toric") == 1
    before = schur._toric_query.cache_info().currsize
    monkeypatch.setattr(tableaux, "TORIC_BUDGET", 10)
    with pytest.raises(QGrassError, match="over the budget of 10 strip steps"):
        gw_invariant(two, Partition((2, 2)), Partition((3, 3, 1)), 0, ctx, "toric")
    assert schur._toric_query.cache_info().currsize == before
    monkeypatch.undo()
    assert gw_invariant(two, Partition((2, 2)), Partition((3, 3, 1)), 0, ctx, "toric") == 1
    assert schur._toric_query.cache_info().currsize == before + 1


def test_the_walk_charges_rows_that_reach_no_chains(monkeypatch):
    # Once a prefix has cancelled, its extensions still cost a Laplace row each, with no
    # grow_chains call left to charge them.
    # The 16 nu of 10 cells in 6 rows of at most 4 re-expand 47 rows between them.
    monkeypatch.setattr(schur, "grow_chains", lambda *args: {})

    def walk(size, nvars, budget):
        nus = _partitions_into(size, nvars, 4)
        return schur._toric_walk(2, 4, (), 1, nus, size, nvars, budget)

    assert len(list(walk(10, 6, 16 * 47))) == 16
    with pytest.raises(QGrassError, match="over the budget of 751 strip steps"):
        list(walk(10, 6, 16 * 47 - 1))
    # The rows are checked once they pass 4096 steps, not only when the walk ends.
    walked = []
    with pytest.raises(QGrassError, match="over the budget of 0 strip steps"):
        walked.extend(nu for nu, _ in walk(40, 16, 0))
    assert 0 < len(walked) < sum(1 for _ in _partitions_into(40, 16, 4)) // 2


def test_verify_tables_walk_under_the_toric_budget(monkeypatch):
    # verify's toric table reads the same walks as every query, under the same budget: with
    # one strip step it is refused at the first walk with a determinant row, and caches no
    # refused walk.  The one walk it keeps, mu = () and |nu| = 0, has no row and costs 0.
    ctx = GrassContext(4, 8)
    schur._toric_rows.cache_clear()
    monkeypatch.setattr(tableaux, "TORIC_BUDGET", 1)
    with pytest.raises(QGrassError, match="toric walk: over the budget of 1 strip steps"):
        verify.run(ctx, "backends")
    assert schur._toric_rows.cache_info().currsize == 1
    assert schur._toric_rows(4, 8, (), 0, 4) == {((), 0): {(): 1}}
    assert schur._toric_rows.cache_info()[:2] == (1, 2)  # that call hit; the refused one missed
    monkeypatch.undo()
    assert verify.run(ctx, "backends") == [
        {"check": "backend_agreement_and_nonnegativity", "status": "pass"}
    ]
    assert schur._toric_rows.cache_info().currsize > 0


def test_toric_expand_stabilizes_in_nvars():
    # observational: each coefficient settles once the variable count passes
    # the number of its parts
    cases = [
        (GrassContext(1, 3), Partition(), 1, Partition()),
        (GrassContext(2, 4), Partition((2, 1)), 1, Partition((1,))),
        (GrassContext(2, 4), Partition((2, 2)), 1, Partition((1, 1))),
    ]
    for ctx, lam, d, mu in cases:
        expansions = {m: toric_schur_expand(lam, d, mu, ctx, m) for m in (3, 4, 5)}
        for m in (3, 4):
            small = {nu: c for nu, c in expansions[m].terms.items() if len(nu) <= m}
            bigger = {nu: c for nu, c in expansions[m + 1].terms.items() if len(nu) <= m}
            assert small == bigger


def test_expansion_json_and_str():
    exp = expansion(3, ((2, 1), 1), ((1, 1, 1), -1))
    assert exp.to_json_dict() == {
        "nvars": 3,
        "terms": [
            {"partition": [2, 1], "coeff": 1},
            {"partition": [1, 1, 1], "coeff": -1},
        ],
    }
    assert str(exp) == "s[2,1] - s[1,1,1]"
    assert str(expansion(2)) == "0"
