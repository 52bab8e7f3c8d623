import time
from itertools import combinations_with_replacement, permutations, product

import pytest

from conftest import planar_kostka
from qgrass import (
    EMPTY,
    CylindricLoop,
    DoesNotFitBox,
    GrassContext,
    Partition,
    QGrassError,
    enumerate_pkn,
    enumerate_tableaux,
    is_strip,
    make_shape,
    quantum_kostka,
    quantum_pieri,
    strip_successors,
)
from qgrass import tableaux
from qgrass.partitions import Meter
from qgrass.tableaux import LoopIds, _strip_successors_raw, grow_chains

C24 = GrassContext(2, 4)
C616 = GrassContext(6, 16)


def loops(parts, offset=0, ctx=C24):
    return CylindricLoop(Partition(parts), offset, ctx)


def test_strip_successors_examples():
    assert {(s.base.parts, s.offset) for s in strip_successors(loops(()), 2, "horizontal")} == {
        ((2,), 0)
    }
    assert {(s.base.parts, s.offset) for s in strip_successors(loops((2, 2)), 2, "horizontal")} == {
        ((1, 1), 1)
    }
    any_loop = loops((2, 1))
    assert strip_successors(any_loop, 0, "horizontal") == [any_loop]
    assert strip_successors(any_loop, 0, "vertical") == [any_loop]
    # oversized strips cannot exist
    assert strip_successors(any_loop, 3, "horizontal") == []
    assert strip_successors(any_loop, 3, "vertical") == []


def _strip_successors_every_row(base, k, cols, size, direction):
    """The enumerator as it was before it skipped the rows a strip cannot enter."""
    m = base + (0,) * (k - len(base))
    if direction == "horizontal":
        rows = [(m[i], m[i - 1] if i else m[-1] + cols) for i in range(k)]
    else:
        rows = [(p, p + 1) for p in m]
    grown = [((), size)]
    for lo, hi in rows:
        grown = [
            (u + (v,), left - v + lo)
            for u, left in grown
            for v in range(lo, min(hi, lo + left, u[-1] if u else hi) + 1)
        ]
    found = []
    for u, left in grown:
        if left or u[0] > u[-1] + cols:
            continue
        if u[0] > cols:
            u, dinc = tuple(v - 1 for v in u[1:]) + (u[0] - 1 - cols,), 1
        else:
            dinc = 0
        found.append((tuple(v for v in u if v), dinc))
    return found


def test_strip_enumerator_walks_only_the_rows_a_strip_enters():
    for n in range(2, 10):
        for k in range(1, n):
            cols = n - k
            for word in combinations_with_replacement(range(cols, -1, -1), k):
                base = tuple(p for p in word if p)
                for size in range(-1, n + 1):
                    for direction in ("horizontal", "vertical"):
                        args = (base, k, cols, size, direction)
                        assert _strip_successors_raw(*args) == _strip_successors_every_row(*args)
    # Two cells over (1) in Gr(20000,40000): the rows below the third hold 0 and are skipped.
    started = time.perf_counter()
    found = _strip_successors_raw((1,), 20000, 20000, 2, "horizontal")
    assert found == [((2, 1), 0), ((3,), 0)]
    assert time.perf_counter() - started < 0.5


def test_strip_successors_are_strips_with_small_offset_jump():
    for ctx in (GrassContext(1, 3), C24, GrassContext(2, 5), GrassContext(3, 6)):
        for mu in enumerate_pkn(ctx):
            base = CylindricLoop(mu, 0, ctx)
            for direction, bound in (("horizontal", ctx.cols), ("vertical", ctx.k)):
                for size in range(1, bound + 1):
                    for succ in strip_successors(base, size, direction):
                        assert succ.offset in (0, 1)
                        shape = make_shape(succ.base, succ.offset, mu, ctx)
                        assert shape is not EMPTY
                        assert shape.size == size
                        assert is_strip(shape, direction)


def test_strip_successors_complete():
    # every valid strip-sized shape over mu appears among the successors, once
    for ctx in (C24, GrassContext(2, 5), GrassContext(3, 6), GrassContext(3, 7)):
        for mu in enumerate_pkn(ctx):
            base = CylindricLoop(mu, 0, ctx)
            for direction in ("horizontal", "vertical"):
                found = set()
                for size in range(1, ctx.n):
                    succs = [
                        (s.base.parts, s.offset) for s in strip_successors(base, size, direction)
                    ]
                    assert len(succs) == len(set(succs)), (ctx, mu.parts, direction, size)
                    found.update((parts, d, size) for parts, d in succs)
                expected = set()
                for lam in enumerate_pkn(ctx):
                    for d in (0, 1, 2):
                        shape = make_shape(lam, d, mu, ctx)
                        if shape is EMPTY or shape.size == 0:
                            continue
                        if shape.size < ctx.n and is_strip(shape, direction):
                            expected.add((lam.parts, d, shape.size))
                assert found == expected, (ctx, mu.parts, direction)


def test_quantum_kostka_zero_rules():
    lam, mu = Partition((2, 1)), Partition((1,))
    assert quantum_kostka(lam, 0, mu, (2, -1, 1), C24) == 0
    assert quantum_kostka(lam, 0, mu, (3,), C24) == 0
    assert quantum_kostka(lam, 0, mu, (1,), C24) == 0  # wrong total
    with pytest.raises(DoesNotFitBox):
        quantum_kostka(Partition((5,)), 0, mu, (1,), C24)
    # a negative offset is refused before the weight is read, even one too wide for the box
    for shape in ((lam, -1, mu, (1,)), (Partition((1,)), -1, Partition(), (3,))):
        with pytest.raises(QGrassError, match="d must be >= 0, got -1"):
            quantum_kostka(*shape, C24)
    # The offset and every weight are exact ints; an int weight out of range still counts 0.
    for d in (True, 0.0):
        with pytest.raises(QGrassError, match="offset difference d must be an int"):
            quantum_kostka(Partition((2,)), d, mu, (1,), C24)
    for beta in ((True,), (1.0,), (5, True)):
        with pytest.raises(QGrassError, match="weight entry must be an int"):
            quantum_kostka(Partition((2,)), 0, mu, beta, C24)
    assert quantum_kostka(Partition((2,)), 0, mu, (1,), C24) == 1


def test_quantum_kostka_classical_reduction():
    for lam in enumerate_pkn(C24):
        for mu in enumerate_pkn(C24):
            for beta in product(range(3), repeat=3):
                assert quantum_kostka(lam, 0, mu, beta, C24) == planar_kostka(lam, mu, beta)


def test_quantum_kostka_symmetric_in_weight():
    for ctx in (C24, GrassContext(2, 5)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                for d in (1, 2):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY or shape.size > 6:
                        continue
                    for beta in product(range(ctx.cols + 1), repeat=3):
                        if sum(beta) != shape.size:
                            continue
                        counts = {
                            quantum_kostka(lam, d, mu, p, ctx)
                            for p in permutations(beta)
                        }
                        assert len(counts) == 1


def test_quantum_kostka_equal_weight_orders():
    shape = Partition((2, 1)), 1, Partition((2, 1))
    assert quantum_kostka(*shape, (2, 1), C24) == quantum_kostka(*shape, (1, 2), C24)
    assert quantum_kostka(*shape, (2, 2), C24) == 1


def test_figure_tableau_count_frozen():
    # one tableau is drawn in the source figure; the full count is a regression value
    count = quantum_kostka(
        Partition((9, 7, 6, 2, 2)), 2, Partition((9, 9, 7, 3, 3, 1)),
        (3, 10, 4, 6, 2, 1), C616,
    )
    assert count == 6888


def test_kostka_counts_under_the_toric_budget(monkeypatch):
    # The figure's count spends 202,501 strip steps from cold successor rows: admitted at
    # exactly that budget, refused one step below it.
    shape = Partition((9, 7, 6, 2, 2)), 2, Partition((9, 9, 7, 3, 3, 1)), (3, 10, 4, 6, 2, 1)
    tableaux.loop_ids.cache_clear()
    monkeypatch.setattr(tableaux, "TORIC_BUDGET", 202_501)
    assert quantum_kostka(*shape, C616) == 6888
    tableaux.loop_ids.cache_clear()
    monkeypatch.setattr(tableaux, "TORIC_BUDGET", 202_500)
    with pytest.raises(QGrassError, match="toric walk: over the budget of 202500 strip steps"):
        quantum_kostka(*shape, C616)


def test_strip_enumerator_callers_walk_under_the_toric_budget(monkeypatch):
    # A strip of 3 cells above the staircase (199, ..., 1) on Gr(200,400) can be placed in
    # about 1.3M ways; unmetered, quantum_pieri ran past 8 s on it.  Both public callers of
    # the strip enumerator are refused inside it, under the budget read at call time.
    k = 200
    ctx, mu = GrassContext(k, 2 * k), Partition(tuple(range(k - 1, 0, -1)))
    for call in (
        lambda: quantum_pieri("h", 3, mu, ctx),
        lambda: strip_successors(CylindricLoop(mu, 0, ctx), 3, "horizontal"),
    ):
        start = time.perf_counter()
        with pytest.raises(QGrassError, match="toric walk: over the budget of 4194304 strip"):
            call()
        assert time.perf_counter() - start < 10
    monkeypatch.setattr(tableaux, "TORIC_BUDGET", 2)
    with pytest.raises(QGrassError, match="over the budget of 2 strip steps"):
        quantum_pieri("e", 1, Partition(), C24)
    with pytest.raises(QGrassError, match="over the budget of 2 strip steps"):
        strip_successors(loops(()), 1, "vertical")


def test_enumerate_tableaux_counts_match_kostka():
    for ctx in (GrassContext(1, 3), C24):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                for d in (0, 1):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY or shape.size > 4:
                        continue
                    chains = list(enumerate_tableaux(shape, 3))
                    by_weight: dict[tuple, int] = {}
                    for chain in chains:
                        assert len(chain.loops) == 4
                        assert chain.loops[0] == CylindricLoop(mu, 0, ctx)
                        assert chain.loops[-1] == CylindricLoop(lam, d, ctx)
                        assert sum(chain.weights) == shape.size
                        by_weight[chain.weights] = by_weight.get(chain.weights, 0) + 1
                    for beta, count in by_weight.items():
                        assert count == quantum_kostka(lam, d, mu, beta, ctx)


def test_enumerate_tableaux_edge_cases():
    empty = make_shape(Partition((1,)), 0, Partition((1,)), C24)
    chains = list(enumerate_tableaux(empty, 2))
    assert len(chains) == 1 and chains[0].weights == (0, 0)
    c13 = GrassContext(1, 3)
    row = make_shape(Partition((2,)), 0, Partition(), c13)
    chains = list(enumerate_tableaux(row, 1))
    assert len(chains) == 1 and chains[0].weights == (2,)


def test_grow_chains_reports_its_strip_steps():
    # The fill of the row of (1,1,1) in Gr(4,6) walks four rows, of 2, 2, 2 and 3 prefixes
    # of 1 to 4 cells: one step per row, and per prefix two plus one per four cells, each
    # checked at once.  Then 16 for the call and one per successor a count passes to, left
    # pending; a cancelled count passes nothing.
    ids = LoopIds(4, 2)
    chains = {ids.state((1, 1, 1), 0): 1, ids.state((2,), 0): 0}
    meter = Meter(10**9, "{}")
    grow_chains(chains, 1, 1, ids, 1, meter)
    row = ids.successors[1][ids.id[1, 1, 1]]
    assert len(row) == 2 and (10**9 - meter.left, meter.pending) == (3 * 5 + 10, 16 + 2)
    # The ends of steps are checked once their pending steps pass 4096.
    for calls in range(2, 229):
        grow_chains(chains, 1, 1, ids, 1, meter)
        assert meter.pending == (18 * calls if calls < 228 else 0), calls
    assert 10**9 - meter.left == 25 + 18 * 228
    # A long step checks as it goes, once past 4096 steps, not only at its end.
    many = {ids.state((1, 1, 1), d): 1 for d in range(3000)}
    meter = Meter(10**9, "{}")
    grow_chains(many, 1, 3000, ids, 1, meter)
    assert (10**9 - meter.left, meter.pending) == (16 + 2 * 2041, 2 * (3000 - 2041))
