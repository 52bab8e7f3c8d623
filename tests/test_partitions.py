import copy
import inspect
import pickle
import random
import sys
import threading
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, strategies as st

from conftest import brute_conjugate
from qgrass import (
    DoesNotFitBox,
    GrassContext,
    IndexOutOfRange,
    NegativePart,
    NonIntegerPart,
    NotWeaklyDecreasing,
    Partition,
    QGrassError,
    complement,
    conjugate,
    cyclic_shift,
    diag,
    enumerate_pkn,
    format_partition,
    from_word01,
    parse_partition,
    phi,
    quantum_product,
    schubert_class,
    to_word01,
)
import qgrass
from qgrass import partitions
from qgrass.partitions import (
    EMPTY_PARTITION,
    basis_table,
    box_partitions_by_size,
    format_terms,
    graded_key,
    masked_det,
    masked_walk,
)

CTX = GrassContext(4, 10)
FIG1 = Partition((6, 4, 4, 2))


def small_contexts():
    return [GrassContext(1, 3), GrassContext(2, 4), GrassContext(2, 5), GrassContext(3, 6)]


box_partition = st.builds(
    lambda ctx, seed: enumerate_pkn(ctx)[seed % ctx.num_classes],
    st.sampled_from(small_contexts()),
    st.integers(0, 10**6),
)


def test_make_partition():
    assert Partition((6, 4, 4, 2)).parts == (6, 4, 4, 2)
    assert Partition((0, 0)) == Partition()
    with pytest.raises(NotWeaklyDecreasing):
        Partition((1, 2))
    with pytest.raises(NegativePart):
        Partition((2, -1))


@pytest.mark.parametrize("parts", [(2.7, 1), (True,), (2, 1.0), ("2",)])
def test_non_integer_parts_are_rejected(parts):
    with pytest.raises(NonIntegerPart):
        Partition(parts)


def test_text_format_round_trip():
    assert parse_partition("6,4,4,2") == FIG1
    assert parse_partition("") == Partition()
    assert parse_partition("0") == Partition()
    assert format_partition(FIG1) == "6,4,4,2"
    assert format_partition(Partition()) == "0"


def test_format_terms():
    assert format_terms([]) == "0"
    assert format_terms([(1, 0, ())]) == "1"
    assert format_terms([(-1, 0, ())]) == "-1"
    assert format_terms([(-2, 1, (2, 1))]) == "-2*q*s[2,1]"
    assert format_terms([(1, 0, (1,)), (-1, 2, ()), (3, -1, (2,))]) == "s[1] - q^2 + 3*q^-1*s[2]"


def test_word01_figure_values():
    assert to_word01(FIG1, CTX).bits == (0, 0, 1, 0, 0, 1, 1, 0, 0, 1)
    c24 = GrassContext(2, 4)
    assert to_word01(Partition(), c24).bits == (1, 1, 0, 0)
    assert to_word01(Partition((2, 2)), c24).bits == (0, 0, 1, 1)
    with pytest.raises(DoesNotFitBox):
        to_word01(Partition((5,)), c24)


def test_conjugate():
    assert conjugate(FIG1) == Partition((4, 4, 3, 3, 1, 1))
    assert conjugate(Partition()) == Partition()
    assert conjugate(Partition((3, 1))) == brute_conjugate(Partition((3, 1)))


def test_complement():
    assert complement(FIG1, CTX) == Partition((4, 2, 2))
    c24 = GrassContext(2, 4)
    assert complement(Partition(), c24) == Partition((2, 2))
    c26 = GrassContext(2, 6)
    assert complement(complement(Partition((3, 1)), c26), c26) == Partition((3, 1))


def test_cyclic_shift():
    assert cyclic_shift(Partition((1,)), GrassContext(1, 3), 1) == Partition()
    assert cyclic_shift(FIG1, CTX, 10) == FIG1
    assert cyclic_shift(FIG1, CTX, 1) == Partition((5, 3, 3, 1))


def test_phi():
    assert phi(FIG1, CTX, 10) == 4
    assert phi(FIG1, CTX, 0) == 0
    assert phi(FIG1, CTX, 3) == 1
    for i in range(-12, 13):
        assert phi(FIG1, CTX, i + 10) == phi(FIG1, CTX, i) + 4


def test_diag():
    assert diag(FIG1, CTX, -4) == 0
    assert diag(FIG1, CTX, 6) == 0
    assert diag(Partition(), CTX, 0) == 0
    assert diag(FIG1, CTX, 0) == 3
    with pytest.raises(IndexOutOfRange):
        diag(FIG1, CTX, 7)


def test_diag_profile_counts_the_cells_of_every_diagonal():
    for n in range(2, 9):
        for k in range(1, n):
            ctx = GrassContext(k, n)
            for lam in enumerate_pkn(ctx):
                cells = [c - r for r, p in enumerate(lam.parts, start=1) for c in range(1, p + 1)]
                for i in range(-k, n - k + 1):
                    assert diag(lam, ctx, i) == cells.count(i), (ctx, lam, i)


def test_enumerate_pkn():
    assert [p.parts for p in enumerate_pkn(GrassContext(1, 3))] == [(), (1,), (2,)]
    assert len(enumerate_pkn(GrassContext(2, 4))) == 6
    assert len(enumerate_pkn(GrassContext(3, 6))) == 20
    # graded and deterministic
    sizes = [p.size for p in enumerate_pkn(GrassContext(3, 6))]
    assert sizes == sorted(sizes)


@given(box_partition)
def test_word_round_trip(pair):
    for ctx in small_contexts():
        if ctx.fits(pair):
            assert from_word01(to_word01(pair, ctx), ctx) == pair


@given(st.sampled_from(small_contexts()), st.integers(0, 200))
def test_complement_involution_and_word_reversal(ctx, seed):
    lam = enumerate_pkn(ctx)[seed % ctx.num_classes]
    comp = complement(lam, ctx)
    assert complement(comp, ctx) == lam
    assert to_word01(comp, ctx).bits == tuple(reversed(to_word01(lam, ctx).bits))


@given(st.sampled_from(small_contexts()), st.integers(0, 200),
       st.integers(-7, 7), st.integers(-7, 7))
def test_cyclic_shift_additive(ctx, seed, a, b):
    lam = enumerate_pkn(ctx)[seed % ctx.num_classes]
    assert cyclic_shift(cyclic_shift(lam, ctx, a), ctx, b) == cyclic_shift(lam, ctx, a + b)


def test_diag0_identities():
    # diag_0 = k - phi_k, and the shifted-complement map is a diag_0-preserving involution
    for ctx in small_contexts():
        for lam in enumerate_pkn(ctx):
            assert diag(lam, ctx, 0) == ctx.k - phi(lam, ctx, ctx.k)
            tilde = cyclic_shift(complement(lam, ctx), ctx, ctx.cols)
            assert diag(tilde, ctx, 0) == diag(lam, ctx, 0)
            again = cyclic_shift(complement(tilde, ctx), ctx, ctx.cols)
            assert again == lam


def test_phi_of_shift():
    for ctx in small_contexts():
        for lam in enumerate_pkn(ctx):
            for a in range(ctx.n):
                shifted = cyclic_shift(lam, ctx, a)
                for i in range(-3, ctx.n + 3):
                    assert phi(shifted, ctx, i) == phi(lam, ctx, i + a) - phi(lam, ctx, a)


def test_basis_table_matches_partition_functions():
    for ctx in small_contexts():
        table = basis_table(ctx)
        basis = enumerate_pkn(ctx)
        assert [Partition(p) for p in table.parts] == basis
        for i, lam in enumerate(basis):
            assert table.index[lam.parts] == i
            assert table.size[i] == lam.size
            assert table.parts[table.complement[i]] == complement(lam, ctx).parts
            assert [table.parts[j] for j in table.shift[i]] == [
                cyclic_shift(lam, ctx, a).parts for a in range(ctx.n)
            ]
            assert list(table.phi[i]) == [phi(lam, ctx, r) for r in range(ctx.n + 1)]


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[r][t] * b[t][c] for t in range(2)) for c in range(2)) for r in range(2)
    )


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _leibniz(a):
    m = len(a)
    total = ((0, 0), (0, 0))
    for w in permutations(range(m)):
        term = ((1, 0), (0, 1))
        for i in range(m):
            term = _mat_mul(term, a[i][w[i]])
        inversions = sum(w[x] > w[y] for x in range(m) for y in range(x + 1, m))
        if inversions % 2:
            term = _mat_mul(term, ((-1, 0), (0, -1)))
        total = _mat_add(total, term)
    return total


def test_masked_det_matches_leibniz():
    # Entries are 2 x 2 integer matrices, so the check also sees that each
    # term multiplies its entries in row order.  The first matrices have
    # about half their entries zero anywhere; the others have the zero
    # pattern of the Jacobi-Trudi callers, entry (i, j) zero for j < i - lam_i.
    rng = random.Random(4)
    zero = ((0, 0), (0, 0))
    one = ((1, 0), (0, 1))

    def nonzero():
        while True:
            e = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
            if e != zero:
                return e

    cases = []
    for m in range(6):
        for _ in range(20):
            a = [[zero if rng.random() < 0.5 else nonzero() for _ in range(m)] for _ in range(m)]
            # The leftmost nonzero column of each row need not grow down the rows.
            leftmost = [next((j for j, e in enumerate(row, 1) if e != zero), m + 1) for row in a]
            cases += [(a, [1] * m), (a, leftmost)]
        for _ in range(20):
            lam = sorted((rng.randint(0, m) for _ in range(m)), reverse=True)
            first = [i - p for i, p in enumerate(lam, 1)]
            a = [
                [zero if j < first[i - 1] or rng.random() < 0.2 else nonzero()
                 for j in range(1, m + 1)]
                for i in range(1, m + 1)
            ]
            cases.append((a, first))
    for a, first in cases:

        def entry(value, i, j, sign):
            e = a[i - 1][j - 1]
            return None if e == zero else _mat_mul(value, _mat_mul(e, ((sign, 0), (0, sign))))

        got = masked_det(len(a), one, entry, _mat_add, first)
        assert (zero if got is None else got) == _leibniz(a), (a, first)


def test_masked_walk_shares_prefixes(monkeypatch):
    # Keys are partitions in lexicographic order, larger parts first, so (2, 1) follows
    # (2, 1, 1), its extension.  Entry (i, j) of a key's matrix has the Jacobi-Trudi zero
    # pattern, zero for j < i - key_i, and is otherwise drawn once per (key[:i], j): the
    # row function reads no more of the key than key[:i].
    steps = []
    real_step = partitions.masked_step

    def counting_step(*args):
        steps.append(1)
        return real_step(*args)

    monkeypatch.setattr(partitions, "masked_step", counting_step)
    top, longest = 3, 4
    keys = sorted(
        (t for m in range(longest + 1) for t in combinations_with_replacement(range(top, 0, -1), m)),
        reverse=True,
    )
    assert keys.index((2, 1)) == keys.index((2, 1, 1)) + 1
    prefixes = {key[:r] for key in keys for r in range(1, len(key) + 1)}
    zero, one = ((0, 0), (0, 0)), ((1, 0), (0, 1))
    for seed in range(5):
        rng = random.Random(seed)
        cells = {}

        def cell(prefix, j):
            if (prefix, j) not in cells:
                e = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
                cells[prefix, j] = zero if rng.random() < 0.2 else e
            return zero if j < len(prefix) - prefix[-1] else cells[prefix, j]

        def row(key, i):
            def entry(value, i, j, sign):
                e = _mat_mul(cell(key[:i], j), ((sign, 0), (0, sign)))
                return None if e == zero else _mat_mul(value, e)

            # Later rows have parts at most key_i, so rows 1..i take every column up to i - key_i.
            first = i - key[i - 1]
            return range(max(1, first), longest + 1), (1 << max(0, first)) - 1, entry

        del steps[:]
        seen = []
        for key, got in masked_walk(keys, one, row, _mat_add):
            seen.append(key)
            m = len(key)
            a = [[cell(key[:i], j) for j in range(1, m + 1)] for i in range(1, m + 1)]
            assert (zero if got is None else got) == _leibniz(a), (seed, key)
        assert seen == keys
        assert len(steps) == len(prefixes), seed


def test_box_enumerator_streams_and_keeps_no_memo():
    assert inspect.isgeneratorfunction(partitions._partitions_into)
    assert not hasattr(partitions._partitions_into, "cache_info")


def test_box_enumerator_matches_a_brute_force_filter():
    # Every weakly decreasing max_parts-tuple of parts up to max_part, trailing zeros dropped,
    # in graded_key order.  A negative total yields nothing, max_parts = 0 included.
    for total in range(-2, 11):
        for max_parts in range(5):
            for max_part in range(5):
                brute = sorted(
                    (
                        tuple(p for p in parts if p)
                        for parts in product(range(max_part, -1, -1), repeat=max_parts)
                        if sum(parts) == total and list(parts) == sorted(parts, reverse=True)
                    ),
                    key=graded_key,
                )
                found = list(partitions._partitions_into(total, max_parts, max_part))
                assert found == brute, (total, max_parts, max_part)
    # Partitions of thousands of parts, which an enumerator recursing once per part could
    # not reach: the parts of 3000 cells, at most 2 each, in at most 2999 rows, and the
    # one column of 2000 cells of Gr(5000,5001).
    found = list(partitions._partitions_into(3000, 2999, 2))
    assert found == [(2,) * a + (1,) * (3000 - 2 * a) for a in range(1500, 0, -1)]
    assert list(partitions._partitions_into(2000, 1999, 1)) == []
    assert box_partitions_by_size(GrassContext(5000, 5001), 2000) == [Partition((1,) * 2000)]


def test_enumerations_share_the_interned_partitions():
    ctx = GrassContext(3, 6)
    basis = enumerate_pkn(ctx)
    again = enumerate_pkn(ctx)
    assert basis is not again
    assert all(a is b and Partition(a.parts) is a for a, b in zip(basis, again))
    basis.clear()
    assert len(enumerate_pkn(ctx)) == ctx.num_classes
    for m in range(ctx.k * ctx.cols + 1):
        assert all(Partition(lam.parts) is lam for lam in box_partitions_by_size(ctx, m))
    # one table for the package: a box partition of Gr(2,5) is that of Gr(3,6)
    shared = {lam.parts: lam for lam in enumerate_pkn(ctx)}
    assert all(shared[lam.parts] is lam for lam in enumerate_pkn(GrassContext(2, 5)))


def test_one_partition_per_parts():
    lam = Partition((3, 1))
    assert Partition([3, 1]) is lam
    assert Partition(p for p in (3, 1)) is lam
    assert Partition((3, 1, 0, 0)) is lam
    assert parse_partition("3,1") is lam
    assert Partition() is Partition((0, 0)) is EMPTY_PARTITION
    assert Partition((3, 1)) == lam and Partition((3,)) != lam
    assert conjugate(conjugate(lam)) is lam


def test_equal_keys_of_other_types_do_not_find_the_interned_object():
    one = Partition((1,))
    # (True,) and (1.0,) equal (1,) as dict keys: the type check runs before the lookup.
    for parts in ((True,), (1.0,), (1, True)):
        with pytest.raises(NonIntegerPart):
            Partition(parts)
    assert Partition((1,)) is one
    ctx = GrassContext(1, 2)
    for k, n in ((True, 2), (1.0, 2), (1, 2.0), (2.5, 5), ("2", 5), (None, 3)):
        with pytest.raises(QGrassError, match="integer"):
            GrassContext(k, n)
    assert GrassContext(1, 2) is ctx and type(ctx.k) is int


def test_one_context_per_k_and_n():
    ctx = GrassContext(2, 5)
    assert GrassContext(k=2, n=5) is ctx and GrassContext(2, 5) == ctx
    assert GrassContext(3, 5) != ctx
    assert (ctx.k, ctx.n, ctx.cols, ctx.num_classes) == (2, 5, 3, 10)
    assert repr(ctx) == "GrassContext(k=2, n=5)"
    for k, n in ((0, 3), (3, 3), (4, 3), (-1, 2)):
        with pytest.raises(QGrassError, match="context requires 1 <= k < n"):
            GrassContext(k, n)
    for obj, name in ((ctx, "k"), (Partition((2, 1)), "parts")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_pickle_and_copy_return_the_interned_objects():
    ctx = GrassContext(2, 5)
    for obj in (Partition((2, 1)), EMPTY_PARTITION, ctx):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) is obj
        assert copy.copy(obj) is obj
        assert copy.deepcopy(obj) is obj
    # inside containers too, so a copied class still equals the original
    s21, s1 = schubert_class(Partition((2, 1)), ctx), schubert_class(Partition((1,)), ctx)
    product = quantum_product(s21, s1)
    assert copy.deepcopy(product) == product
    assert pickle.loads(pickle.dumps(product)) == product


def test_a_partition_is_not_its_parts():
    lam = Partition((2, 1))
    assert lam != (2, 1) and (2, 1) != lam
    assert len({lam: "partition", (2, 1): "tuple"}) == 2


C24 = GrassContext(2, 4)
ONE = Partition((1,))


def _boundary_calls():
    """(name, call of one argument) for every public callable that takes a partition."""
    q = qgrass
    cls = q.schubert_class(ONE, C24)
    expansion, op = q.skew_expand(Partition((2,)), ONE, 2), q.schubert_op(ONE, C24)
    two = Partition((2,))
    calls = {
        "GrassContext.require_fits": lambda x: C24.require_fits(ONE, x),
        "to_word01": lambda x: q.to_word01(x, C24),
        "conjugate": q.conjugate,
        "complement": lambda x: q.complement(x, C24),
        "cyclic_shift": lambda x: q.cyclic_shift(x, C24, 1),
        "phi": lambda x: q.phi(x, C24, 1),
        "diag": lambda x: q.diag(x, C24, 0),
        "format_partition": q.format_partition,
        "CylindricLoop": lambda x: q.CylindricLoop(x, 0, C24),
        "CylindricShape": lambda x: q.CylindricShape(two, 0, x, C24),
        "make_shape": lambda x: q.make_shape(x, 0, ONE, C24),
        "schubert_class": lambda x: q.schubert_class(x, C24),
        "rimhook_reduce": lambda x: q.rimhook_reduce(x, C24),
        "quantum_pieri": lambda x: q.quantum_pieri("h", 1, x, C24),
        "giambelli_class": lambda x: q.giambelli_class(x, C24),
        "lr_coefficient": lambda x: q.lr_coefficient(ONE, x, two),
        "skew_expand": lambda x: q.skew_expand(two, x, 2),
        "toric_schur_expand": lambda x: q.toric_schur_expand(two, 0, x, C24, 2),
        "dmin_dmax": lambda x: q.dmin_dmax(ONE, x, C24),
        "essential_interval": lambda x: q.essential_interval(ONE, ONE, x, C24),
        "q_power_set": lambda x: q.q_power_set(x, ONE, C24),
        "gw_triple": lambda x: q.gw_triple(ONE, x, ONE, C24),
        "hidden_symmetry_check": lambda x: q.hidden_symmetry_check(x, ONE, ONE, 1, 0, -1, C24),
        "check_strange_duality_pair": lambda x: q.check_strange_duality_pair(ONE, x, C24),
        "quantum_kostka": lambda x: q.quantum_kostka(two, 0, x, (1,), C24),
        "schubert_op": lambda x: q.schubert_op(x, C24),
        "QuantumClass.coefficient": lambda x: cls.coefficient(x, 0),
        "SchurExpansion.coefficient": expansion.coefficient,
        "NilTLOperator.column": op.column,
    }
    for backend in ("bcf", "toric", "niltl"):
        calls[f"gw_invariant[{backend}]"] = (
            lambda x, b=backend: q.gw_invariant(ONE, x, two, 0, C24, b)
        )
    # A list cannot be a dict key, so these two take a parts tuple only.
    keyed = {
        "QuantumClass": lambda x: q.QuantumClass(C24, {(x, 0): 1}),
        "SchurExpansion": lambda x: q.SchurExpansion(2, {x: 1}),
    }
    return calls, keyed


@pytest.mark.parametrize("parts", [(1,), [1], (1, 2)], ids=["tuple", "list", "unsorted"])
def test_every_public_function_refuses_parts_for_a_partition(parts):
    # Partition(parts) is the one conversion: a parts tuple or list is refused with
    # QGrassError, never read (a lookup by (1,) would find nothing) and never an
    # AttributeError or TypeError from deep inside.
    calls, keyed = _boundary_calls()
    if type(parts) is tuple:
        calls.update(keyed)
    for name, call in calls.items():
        try:
            call(parts)
        except QGrassError as exc:
            assert "is not a Partition" in str(exc), (name, exc)
        else:
            pytest.fail(f"{name} accepted {parts!r}")
        if parts != (1, 2):
            call(Partition(parts))  # the Partition of the same parts is accepted


# An int argument given a bool or a float: each was once read as an int or failed deep
# inside with TypeError.
INT_ARGUMENTS = {
    "phi": lambda: qgrass.phi(ONE, C24, 0.5),
    "diag": lambda: qgrass.diag(ONE, C24, 0.5),
    "cyclic_shift": lambda: qgrass.cyclic_shift(ONE, C24, True),
    "CylindricLoop": lambda: qgrass.CylindricLoop(ONE, 0.5, C24),
    "CylindricShape": lambda: qgrass.CylindricShape(ONE, 0, ONE, C24, shift=0.5),
    "quantum_pieri": lambda: qgrass.quantum_pieri("h", 1.0, ONE, C24),
    "generator_op": lambda: qgrass.generator_op(True, C24),
    "word_operator": lambda: qgrass.word_operator(C24, (1, True)),
    "eh_op": lambda: qgrass.eh_op("h", True, C24),
    "z_op": lambda: qgrass.z_op(True, C24),
}


@pytest.mark.parametrize("name", list(INT_ARGUMENTS))
def test_every_int_argument_is_checked(name):
    # True hashes like 1, so a memo that holds the entry of 1 must not hand it back.
    qgrass.generator_op(1, C24), qgrass.eh_op("h", 1, C24), qgrass.eh_op("e", 1, C24)
    with pytest.raises(QGrassError, match="must be an int"):
        INT_ARGUMENTS[name]()


def test_threads_building_one_key_get_one_object():
    # A switch interval of 1 us makes threads interleave inside the constructor, where a
    # cache that checks and then stores hands two threads two objects of one key.
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(200):
            parts, kn = (10**6 + trial, 1), (trial + 1, 10**6 + trial)
            barrier = threading.Barrier(8)
            got = []

            def build():
                barrier.wait(timeout=10)
                got.append((Partition(parts), GrassContext(*kn)))

            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            lam, ctx = Partition(parts), GrassContext(*kn)
            assert len(got) == 8 and all(a is lam and c is ctx for a, c in got), trial
    finally:
        sys.setswitchinterval(before)
