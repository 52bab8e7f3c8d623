import pytest

from qgrass import (
    EMPTY,
    ContextMismatch,
    CylindricLoop,
    CylindricShape,
    GrassContext,
    NotToric,
    Partition,
    QGrassError,
    complement_shape,
    down_transform,
    enumerate_pkn,
    is_strip,
    is_toric,
    loop_leq,
    make_shape,
    render_ascii,
    torus_cells,
    torus_equivalent,
    up_transform,
)
from qgrass.cylindric import _toric_by_columns, _toric_by_rows

C24 = GrassContext(2, 4)
C616 = GrassContext(6, 16)


def fig3_shape():
    return make_shape(Partition((9, 7, 6, 2, 2)), 2, Partition((9, 9, 7, 3, 3, 1)), C616)


def test_loop_value():
    ctx = GrassContext(5, 13)
    loop = CylindricLoop(Partition((5, 3, 3, 3, 1)), 2, ctx)
    assert loop.value(3) == 7
    mu = CylindricLoop(Partition((2, 1)), 0, C24)
    assert [mu.value(i) for i in (1, 2)] == [2, 1]
    for i in range(-6, 7):
        assert loop.value(i + 5) == loop.value(i) - 8


def test_loop_leq():
    loop = CylindricLoop(Partition((2, 1)), 0, C24)
    assert loop_leq(loop, loop)
    inner = CylindricLoop(Partition((1,)), 0, C24)
    assert loop_leq(inner, loop)
    assert not loop_leq(loop, inner)
    # interval endpoints touch exactly where the figure says they do
    lam = CylindricLoop(Partition((9, 6, 6, 4, 3)), 0, C616)
    mu_c = Partition((6, 4, 3, 2, 2, 1))
    assert loop_leq(lam, CylindricLoop(mu_c, 2, C616))
    assert not loop_leq(lam, CylindricLoop(mu_c, 1, C616))
    with pytest.raises(ContextMismatch):
        loop_leq(loop, CylindricLoop(Partition(), 0, GrassContext(2, 5)))


def test_make_shape():
    shape = fig3_shape()
    assert isinstance(shape, CylindricShape)
    assert shape.size == 26
    assert make_shape(Partition((2, 1)), 0, Partition((2, 1)), C24).size == 0
    assert make_shape(Partition(), 0, Partition((1,)), C24) is EMPTY
    # The offset is an exact int: a float or a bool is refused, not read.
    for d in (0.5, 1.0, True):
        with pytest.raises(QGrassError, match="offset difference d must be an int"):
            make_shape(Partition((2, 1)), d, Partition((1,)), C24)


def test_shape_size_matches_cells_and_wrap_count():
    for ctx in (GrassContext(1, 3), C24, GrassContext(3, 6)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                for d in range(4):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY:
                        continue
                    cells = list(shape.cells())
                    assert shape.size == len(cells)
                    assert (shape.size - (lam.size - mu.size)) % ctx.n == 0
                    # d cells land on the wrap diagonal
                    wrap = sum(1 for i, j in cells if (j - i) % ctx.n == (-ctx.k) % ctx.n)
                    assert wrap == d


def test_is_toric():
    assert is_toric(fig3_shape())
    sh = make_shape(Partition(), 1, Partition(), GrassContext(1, 3))
    assert not is_toric(sh)
    # plain skew shapes inside the box are always toric
    for lam in enumerate_pkn(C24):
        for mu in enumerate_pkn(C24):
            shape = make_shape(lam, 0, mu, C24)
            if shape is not EMPTY:
                assert is_toric(shape)


def test_toric_criteria_agree():
    for ctx in (GrassContext(1, 3), C24, GrassContext(2, 5), GrassContext(3, 6)):
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                for d in range(4):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY:
                        continue
                    assert is_toric(shape) == _toric_by_columns(shape) == _toric_by_rows(shape)


def test_down_transform():
    empty = CylindricLoop(Partition(), 0, C24)
    down = down_transform(empty)
    assert down.base == Partition((2, 2)) and down.offset == 0
    fig1 = CylindricLoop(Partition((6, 4, 4, 2)), 0, GrassContext(4, 10))
    down = down_transform(fig1)
    assert down.base == Partition((5, 3, 1, 1)) and down.offset == 3
    assert up_transform(down) == fig1
    # the two presentations bound the same region on the torus
    for lam in enumerate_pkn(C24):
        loop = CylindricLoop(lam, 0, C24)
        assert torus_equivalent(loop, down_transform(loop))


def test_torus_equivalent():
    loop = CylindricLoop(Partition((2, 1)), 1, C24)
    assert torus_equivalent(loop, loop)
    assert torus_equivalent(down_transform(loop), loop)
    assert not torus_equivalent(
        CylindricLoop(Partition(), 0, C24), CylindricLoop(Partition(), 1, C24)
    )


def test_complement_shape_partitions_torus():
    for ctx in (GrassContext(1, 3), C24, GrassContext(2, 5), GrassContext(3, 6)):
        full = {(i, j) for i in range(ctx.k) for j in range(ctx.cols)}
        for lam in enumerate_pkn(ctx):
            for mu in enumerate_pkn(ctx):
                for d in range(4):
                    shape = make_shape(lam, d, mu, ctx)
                    if shape is EMPTY or not is_toric(shape):
                        continue
                    comp = complement_shape(shape)
                    cells, ccells = torus_cells(shape), torus_cells(comp)
                    assert len(cells) == shape.size and len(ccells) == comp.size
                    assert shape.size + comp.size == ctx.k * ctx.cols
                    assert cells | ccells == full and not cells & ccells
                    again = complement_shape(comp)
                    assert torus_cells(again) == cells
                    assert torus_equivalent(again.upper, shape.upper)


def test_complement_full_and_errors():
    zero = make_shape(Partition((2, 1)), 0, Partition((2, 1)), C24)
    comp = complement_shape(zero)
    assert comp.size == 4
    not_toric = make_shape(Partition(), 1, Partition(), GrassContext(1, 3))
    with pytest.raises(NotToric):
        complement_shape(not_toric)


def test_is_strip():
    single = make_shape(Partition((1,)), 0, Partition(), C24)
    assert is_strip(single, "horizontal") and is_strip(single, "vertical")
    assert not is_strip(fig3_shape(), "horizontal")
    assert not is_strip(fig3_shape(), "vertical")
    wrap = make_shape(Partition((1, 1)), 1, Partition((2, 2)), C24)
    assert wrap.size == 2 and is_strip(wrap, "horizontal")


def test_render_ascii_matches_figure():
    # English-orientation cells of the toric tableau figure
    art = render_ascii(fig3_shape())
    rows = art.splitlines()
    cells = {(i, j) for i, row in enumerate(rows) for j, ch in enumerate(row) if ch == "#"}
    expected = {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 9),
        (1, 0), (1, 1), (1, 9),
        (2, 0), (2, 7), (2, 8), (2, 9),
        (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
        (4, 3), (4, 4), (4, 5), (4, 6), (4, 7),
        (5, 1), (5, 2), (5, 3),
    }
    assert cells == expected
