"""The three benchmark workloads: inputs from a seed, timed passes, output checks.

Everything here runs inside one worker process (see worker.py).  Inputs are
built from plain integer tuples enumerated by this module, so the reference
data does not depend on the package's own enumeration order.  The package is
driven only through its public names (``qgrass.<name>``) and ``qgrass.cli.main``,
looked up at call time so that traced runs see the shimmed bindings.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import random
import time
import zlib
from pathlib import Path

import qgrass
import qgrass.cli

REFERENCE_PATH = Path(__file__).with_name("reference.json")

TABLE_CONTEXTS = ((3, 8), (4, 8), (4, 9))
CROSSCHECK_CONTEXT = (4, 8)
CROSSCHECK_TUPLES = 2000
CROSSCHECK_TORIC_CALLS = 3
WARM_REPEATS = 5
BACKENDS = ("bcf", "toric", "niltl")
SWEEP_ARGV = ("verify", "--k", "3", "--n", "6", "--scope", "all")
SWEEP_CHECKS = 19

# README examples, pinned verbatim.
PIN_QPROD = "q*s[2] + q*s[1,1]"
PIN_QPOWERS_ARGV = (
    "qpowers", "--k", "6", "--n", "16", "--lambda", "9,6,6,4,3", "--mu", "9,8,8,7,6,4",
)
PIN_QPOWERS = "[2, 3]"


def box_basis(k: int, n: int) -> list[tuple[int, ...]]:
    """Partitions in the k x (n-k) box, by size, then larger first parts first."""
    cols = n - k
    found: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], bound: int) -> None:
        found.append(prefix)
        if len(prefix) < k:
            for p in range(1, bound + 1):
                grow(prefix + (p,), p)

    grow((), cols)
    found.sort(key=lambda t: (sum(t), tuple(-p for p in t)))
    return found


def feasible_tuples(k: int, n: int) -> list[tuple[int, int, int, int]]:
    """Every (mu, nu, lam, d) as basis indices with |lam| = |mu| + |nu| - d*n.

    Canonical order: mu, then nu, then d, then lam, each in box_basis order.
    """
    basis = box_basis(k, n)
    by_size: dict[int, list[int]] = {}
    for i, parts in enumerate(basis):
        by_size.setdefault(sum(parts), []).append(i)
    out = []
    for i, mu in enumerate(basis):
        for j, nu in enumerate(basis):
            total = sum(mu) + sum(nu)
            for d in range(total // n + 1):
                for l in by_size.get(total - d * n, ()):
                    out.append((i, j, l, d))
    return out


def toric_pool(k: int, n: int) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Fixed pool of toric shapes lam/d/mu of 5 cells for the m! expansion path.

    At nvars = k + 3 each expansion sums over (k+3)! permutations for every
    partition of 5.  On Gr(4,8) that takes about 0.2 s on a 2-core virtual
    machine, so a run can afford a few.
    """
    basis = box_basis(k, n)
    ctx = qgrass.GrassContext(k, n)
    pool = []
    for lam in basis:
        for mu in basis:
            for d in (0, 1):
                size = sum(lam) + d * n - sum(mu)
                if size != 5:
                    continue
                shape = qgrass.make_shape(qgrass.Partition(lam), d, qgrass.Partition(mu), ctx)
                if shape is not qgrass.EMPTY and qgrass.is_toric(shape):
                    pool.append((lam, d, mu))
    return random.Random(0).sample(pool, 24)


def median(values):
    return sorted(values)[len(values) // 2]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def product_terms(cls) -> list[tuple[int, tuple[int, ...], int]]:
    """Canonical form of a QuantumClass: sorted (q-degree, partition, coefficient)."""
    return sorted((d, lam.parts, c) for (lam, d), c in cls.terms.items())


def expansion_terms(exp) -> list[tuple[tuple[int, ...], int]]:
    return sorted((nu.parts, c) for nu, c in exp.terms.items())


def row_key(kn: tuple[int, int], parts: tuple[int, ...]) -> str:
    return f"{kn[0]},{kn[1]}:{','.join(map(str, parts))}"


def shape_key(lam: tuple[int, ...], d: int, mu: tuple[int, ...]) -> str:
    return f"{','.join(map(str, lam))}/{d}/{','.join(map(str, mu))}"


def encode_values(values: list[int]) -> str:
    return base64.b64encode(zlib.compress(bytes(values), 9)).decode()


def decode_values(text: str) -> list[int]:
    return list(zlib.decompress(base64.b64decode(text)))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Result:
    """What one worker measured and checked; serialized to the parent as JSON."""

    def __init__(self):
        self.cold_s = 0.0
        self.warm_s = 0.0
        self.op_ms: list[float] = []
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


class Table:
    """quantum_product over every unordered basis pair of each context, cold then warm."""

    name = "table"

    def __init__(self, seed: int, worker: int):
        rng = random.Random(f"{seed}:{worker}")
        self.ops = []  # (context index, row index, a, b, ctx)
        self._bases = []
        for ci, (k, n) in enumerate(TABLE_CONTEXTS):
            ctx = qgrass.GrassContext(k, n)
            self._bases.append(box_basis(k, n))
            basis = [qgrass.Partition(p) for p in self._bases[-1]]
            block = [
                (ci, i, basis[i], basis[j], ctx)
                for i in range(len(basis))
                for j in range(i, len(basis))
            ]
            rng.shuffle(block)
            self.ops.extend(block)

    def _pass(self, mark=None):
        quantum_product = qgrass.quantum_product
        schubert_class = qgrass.schubert_class
        clock = time.perf_counter
        products = []
        lat = []
        start = clock()
        for _, _, a, b, ctx in self.ops:
            t0 = clock()
            try:
                products.append(quantum_product(schubert_class(a, ctx), schubert_class(b, ctx)))
            except Exception as exc:  # a raising op is a failed op, not a crash
                products.append(exc)
            lat.append(clock() - t0)
            if mark is not None:
                mark("quantum_product")
        return clock() - start, products, lat

    def run(self, res: Result, mark=None) -> None:
        res.cold_s, self._cold, lat = self._pass(mark)
        res.op_ms = [x * 1e3 for x in lat]
        warm = []
        for _ in range(WARM_REPEATS):
            elapsed, self._warm, _ = self._pass(mark)
            warm.append(elapsed)
        res.warm_s = median(warm)
        res.ops = 2 * len(self.ops)

    def check(self, res: Result, reference: dict) -> None:
        bad: set[int] = set()
        first = None
        rows: dict[tuple[int, int], list[int]] = {}
        for pos, ((ci, i, a, b, _), cls, again) in enumerate(zip(self.ops, self._cold, self._warm)):
            rows.setdefault((ci, i), []).append(pos)
            if isinstance(cls, Exception) or cls != again:
                bad.add(pos)
                first = first or f"{a!r} * {b!r}: cold {cls!r}, warm {again!r}"
        want = reference["table"]
        for (ci, i), members in rows.items():
            key = row_key(TABLE_CONTEXTS[ci], self._bases[ci][i])
            row = [
                (self.ops[pos][3].parts, product_terms(self._cold[pos]))
                for pos in members
                if pos not in bad
            ]
            if want.get(key) != digest(sorted(row)):
                bad.update(members)
                first = first or f"table row {key} does not match the reference digest"
        if bad:
            # Each wrong product counts once for the cold and once for the warm pass.
            res.fail(2 * len(bad), f"{len(bad)} products wrong; first: {first}")

    @staticmethod
    def reference() -> dict:
        """Per-row digests of the full tables, as the current code computes them."""
        out = {}
        for k, n in TABLE_CONTEXTS:
            ctx = qgrass.GrassContext(k, n)
            basis = box_basis(k, n)
            for i, a in enumerate(basis):
                row = []
                for b in basis[i:]:
                    cls = qgrass.quantum_product(
                        qgrass.schubert_class(qgrass.Partition(a), ctx),
                        qgrass.schubert_class(qgrass.Partition(b), ctx),
                    )
                    row.append((b, product_terms(cls)))
                out[row_key((k, n), a)] = digest(sorted(row))
        return out


class Crosscheck:
    """A seeded sample of feasible (mu, nu, lam, d) through all three backends.

    Plus a few toric_schur_expand calls at nvars = k + 3, which sum over all
    (k+3)! permutations.
    """

    name = "crosscheck"

    def __init__(self, seed: int, worker: int):
        k, n = CROSSCHECK_CONTEXT
        rng = random.Random(seed)
        self.ctx = qgrass.GrassContext(k, n)
        self.basis = [qgrass.Partition(p) for p in box_basis(k, n)]
        feasible = feasible_tuples(k, n)
        # One tuple from each of CROSSCHECK_TUPLES equal slices of the
        # canonical order, so every mu is sampled in proportion and the cost of
        # a sample varies little from seed to seed.
        step = len(feasible) / CROSSCHECK_TUPLES
        self.picks = [int(i * step) + rng.randrange(int((i + 1) * step) - int(i * step))
                      for i in range(CROSSCHECK_TUPLES)]
        pool = toric_pool(k, n)
        self.toric = [
            (qgrass.Partition(lam), d, qgrass.Partition(mu))
            for lam, d, mu in rng.sample(pool, CROSSCHECK_TORIC_CALLS)
        ]
        # Each worker visits the sample in its own order, so the medians over
        # workers average out which tuple happens to fill a cache first.
        random.Random(f"{seed}:{worker}").shuffle(self.picks)
        self.tuples = [feasible[p] for p in self.picks]
        self.nvars = k + 3

    def _pass(self, mark=None):
        gw = qgrass.gw_invariant
        basis, ctx = self.basis, self.ctx
        clock = time.perf_counter
        values = []
        lat = []
        start = clock()
        for i, j, l, d in self.tuples:
            t0 = clock()
            mu, nu, lam = basis[i], basis[j], basis[l]
            try:
                values.append(tuple(gw(mu, nu, lam, d, ctx, backend=b) for b in BACKENDS))
            except Exception as exc:  # a raising op is a failed op, not a crash
                values.append((exc,))
            lat.append(clock() - t0)
            if mark is not None:
                mark("gw_invariant")
        return clock() - start, values, lat

    def run(self, res: Result, mark=None) -> None:
        elapsed, self._values, lat = self._pass(mark)
        res.op_ms = [x * 1e3 for x in lat]
        start = time.perf_counter()
        self._expansions = []
        for lam, d, mu in self.toric:
            try:
                exp = qgrass.toric_schur_expand(lam, d, mu, self.ctx, self.nvars)
            except Exception as exc:  # a raising op is a failed op, not a crash
                exp = exc
            self._expansions.append(exp)
            if mark is not None:
                mark("toric_schur_expand")
        res.cold_s = elapsed + time.perf_counter() - start
        warm = []
        for _ in range(WARM_REPEATS):
            t, self._warm_values, _ = self._pass(mark)
            warm.append(t)
        res.warm_s = median(warm)
        res.ops = 2 * len(self.tuples) + len(self.toric)

    def check(self, res: Result, reference: dict) -> None:
        ref = reference["crosscheck"]
        want = decode_values(ref["values"])
        if digest(want) != ref["digest"]:
            res.fail(res.ops, "crosscheck reference values are corrupt")
            return
        for pick, values, again in zip(self.picks, self._values, self._warm_values):
            for got in (values, again):
                if len(got) != len(BACKENDS) or set(got) != {want[pick]}:
                    res.fail(1, f"tuple #{pick}: backends gave {got}, reference {want[pick]}")
        k, n = CROSSCHECK_CONTEXT
        gw_index = {t: p for p, t in enumerate(feasible_tuples(k, n))}
        basis = box_basis(k, n)
        index = {parts: i for i, parts in enumerate(basis)}
        for (lam, d, mu), exp in zip(self.toric, self._expansions):
            key = shape_key(lam.parts, d, mu.parts)
            if isinstance(exp, Exception):
                res.fail(1, f"toric expansion of {key} raised {exp!r}")
                continue
            ok = reference["toric"].get(key) == digest(expansion_terms(exp))
            # Coefficients of box partitions are structure constants, so they
            # must also match the crosscheck reference (an independent check).
            size = sum(lam.parts) + d * n - sum(mu.parts)
            for j, nu in enumerate(basis):
                if sum(nu) == size:
                    pick = gw_index[(index[mu.parts], j, index[lam.parts], d)]
                    ok = ok and exp.coefficient(qgrass.Partition(nu)) == want[pick]
            if not ok:
                res.fail(1, f"toric expansion of {key} at nvars={self.nvars} is wrong")

    @staticmethod
    def reference() -> dict:
        k, n = CROSSCHECK_CONTEXT
        ctx = qgrass.GrassContext(k, n)
        basis = [qgrass.Partition(p) for p in box_basis(k, n)]
        values = [
            qgrass.gw_invariant(basis[i], basis[j], basis[l], d, ctx)
            for i, j, l, d in feasible_tuples(k, n)
        ]
        toric = {}
        for lam, d, mu in toric_pool(k, n):
            exp = qgrass.toric_schur_expand(
                qgrass.Partition(lam), d, qgrass.Partition(mu), ctx, k + 3
            )
            toric[shape_key(lam, d, mu)] = digest(expansion_terms(exp))
        return {
            "crosscheck": {"values": encode_values(values), "digest": digest(values)},
            "toric": toric,
        }


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = qgrass.cli.main(list(argv))
        except Exception as exc:  # a raising command is a failed op, not a crash
            return -1, repr(exc)
    return code, out.getvalue()


class Sweep:
    """`qgrass verify --k 3 --n 6 --scope all` through cli.main, cold then warm.

    The input is the exhaustive identity suite of one context, so the seed
    changes nothing; it is still recorded with the run.
    """

    name = "sweep"

    def __init__(self, seed: int, worker: int):
        self.argv = SWEEP_ARGV

    def run(self, res: Result, mark=None) -> None:
        self._outputs = []
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            self._outputs.append(run_cli(self.argv))
            times.append(time.perf_counter() - t0)
            if mark is not None:
                mark("cli.main verify")
        res.cold_s, res.warm_s = times
        res.op_ms = [t * 1e3 for t in times]
        res.ops = 2 * SWEEP_CHECKS

    def check(self, res: Result, reference: dict) -> None:
        for code, text in self._outputs:
            lines = text.splitlines()
            passed = sum(1 for line in lines if line.startswith("PASS "))
            if code != 0 or passed != SWEEP_CHECKS or len(lines) != SWEEP_CHECKS:
                res.fail(max(SWEEP_CHECKS - passed, 1),
                         f"verify exited {code} with {passed} PASS lines of {len(lines)}")


WORKLOADS = {w.name: w for w in (Table, Crosscheck, Sweep)}


def run_pins(res: Result) -> None:
    """The README examples, checked verbatim."""
    ctx = qgrass.GrassContext(2, 4)
    s21 = qgrass.schubert_class(qgrass.Partition((2, 1)), ctx)
    got = str(qgrass.quantum_product(s21, s21))
    if got != PIN_QPROD:
        res.fail(1, f"s21*s21 in Gr(2,4) printed {got!r}, expected {PIN_QPROD!r}")
    code, text = run_cli(PIN_QPOWERS_ARGV)
    if code != 0 or text.strip() != PIN_QPOWERS:
        res.fail(1, f"qpowers Gr(6,16) exited {code} printing {text.strip()!r}")
    res.ops = 2
