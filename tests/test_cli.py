import json
import sys
import time

from qgrass import FormMismatch, quantum, symmetry, verify
from qgrass.cli import main
from qgrass.niltl import NilTLOperator
from qgrass.partitions import GrassContext, Partition, basis_table, enumerate_pkn
from qgrass.quantum import quantum_product, schubert_class


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qprod_text(capsys):
    code, out, _ = run(capsys, "qprod", "--k", "2", "--n", "4", "--lambda", "2,1", "--mu", "2,1")
    assert code == 0
    assert out.strip() == "q*s[2] + q*s[1,1]"


def test_qprod_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "qprod", "--k", "2", "--n", "4",
        "--lambda", "2,1", "--mu", "2,1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "k": 2, "n": 4,
        "terms": [
            {"d": 1, "partition": [2], "coeff": 1},
            {"d": 1, "partition": [1, 1], "coeff": 1},
        ],
    }
    assert json.dumps(payload, sort_keys=True) == out.strip()


def test_toric_schur_golden(capsys):
    code, out, _ = run(
        capsys, "toric-schur", "--k", "1", "--n", "3",
        "--lambda", "0", "--d", "1", "--mu", "0", "--nvars", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nvars"] == 3
    assert payload["terms"] == [
        {"coeff": 1, "partition": [2, 1]},
        {"coeff": -1, "partition": [1, 1, 1]},
    ]


def test_toric_schur_nvars_bounds(capsys):
    argv = ("toric-schur", "--k", "1", "--n", "3", "--lambda", "0", "--d", "1", "--mu", "0")
    for nvars in ("-1", "17"):
        code, out, err = run(capsys, *argv, "--nvars", nvars)
        assert code == 1 and out == ""
        assert f"0 <= --nvars <= 16, got {nvars}" in err
    code, out, _ = run(capsys, *argv, "--nvars", "0")
    assert code == 0 and out.strip() == "0"


def test_toric_schur_ten_variables(capsys):
    # Past the former bound of 8 that the sum over all nvars! permutations needed.
    code, out, _ = run(
        capsys, "toric-schur", "--k", "4", "--n", "8",
        "--lambda", "2,2", "--d", "1", "--mu", "1", "--nvars", "10",
    )
    assert code == 0
    assert out.strip() == (
        "s[4,3,3,1] + s[4,3,2,1,1] - s[3,3,2,1,1,1] + s[2,2,2,1,1,1,1,1]"
        " - s[2,1,1,1,1,1,1,1,1,1]"
    )


def test_qpowers_golden(capsys):
    code, out, _ = run(
        capsys, "qpowers", "--k", "6", "--n", "16",
        "--lambda", "9,6,6,4,3", "--mu", "9,8,8,7,6,4",
    )
    assert code == 0
    assert out.strip() == "[2, 3]"
    code, out, _ = run(
        capsys, "qpowers", "--k", "6", "--n", "16",
        "--lambda", "9,6,6,4,3", "--mu", "9,8,8,7,6,4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"dmin": 2, "dmax": 3}
    assert json.dumps(json.loads(out), sort_keys=True) == out.strip()


def test_gw_subcommand(capsys):
    code, out, _ = run(
        capsys, "gw", "--k", "2", "--n", "4",
        "--lambda", "1,1", "--mu", "2,1", "--nu", "2,1", "--backend", "all",
    )
    assert code == 0
    assert out.strip() == "d=1: bcf=1 toric=1 niltl=1"
    # omitted d picks the unique feasible degree
    code, out, _ = run(
        capsys, "gw", "--k", "2", "--n", "4",
        "--lambda", "1,1", "--mu", "2,1", "--nu", "2,1", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["values"] == [{"d": 1, "value": 1}]


def test_reduce_subcommand(capsys):
    code, out, _ = run(capsys, "reduce", "--k", "2", "--n", "4", "--lambda", "4")
    assert code == 0 and out.strip() == "-q"
    code, out, _ = run(capsys, "reduce", "--k", "2", "--n", "4", "--lambda", "3,1")
    assert code == 0 and out.strip() == "q"
    code, out, _ = run(capsys, "reduce", "--k", "2", "--n", "4", "--lambda", "5,2")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(
        capsys, "reduce", "--k", "2", "--n", "4", "--lambda", "4,2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"vanished": False, "core": [1, 1], "d": 1, "sign": 1}


def test_kostka_subcommand(capsys):
    code, out, _ = run(
        capsys, "kostka", "--k", "2", "--n", "4",
        "--lambda", "1,1", "--d", "1", "--mu", "2,1", "--beta", "2,1",
    )
    assert code == 0 and out.strip() == "1"


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "qprod", "--k", "2", "--n", "4", "--lambda", "3,1", "--mu", "1")
    assert code == 1 and "box" in err
    code, _, err = run(capsys, "qprod", "--k", "2", "--n", "4", "--lambda", "x", "--mu", "1")
    assert code == 1
    code, _, err = run(capsys, "verify", "--k", "3", "--n", "20")
    assert code == 1 and "cap" in err


def test_verify_bounds_the_relation_suite(capsys):
    # Gr(1,18): N = 18 is under the cap, but 2^18 * 18 is above the relation bound
    argv = ("verify", "--k", "1", "--n", "18")
    code, out, err = run(capsys, *argv, "--scope", "relations")
    assert code == 1 and out == "" and "2^20" in err
    code, out, _ = run(capsys, *argv, "--scope", "symmetries")
    assert code == 0 and "PASS strange_duality_transport" in out.splitlines()
    code, _, err = run(capsys, "verify", "--k", "3", "--n", "20")
    assert code == 1 and "cap" in err
    # Gr(5,11): N = 462 is under the cap, but N^3 * n^2 is above the sweep bound
    code, out, err = run(capsys, "verify", "--k", "5", "--n", "11", "--scope", "symmetries")
    assert code == 1 and out == "" and "2^31" in err


def test_verify_bounds_the_basis_before_counting_it(capsys):
    # C(10^6, 5 * 10^5) has over 300,000 digits; the cap check must neither form nor print it.
    code, out, err = run(capsys, "verify", "--k", "500000", "--n", "1000000")
    assert code == 1 and out == "" and "cap" in err and "Traceback" not in err
    assert len(err) < 200


def test_gw_bounds_the_niltl_backend(capsys):
    # schubert_op(sigma_11) builds h_1 .. h_k; words * N: Gr(3,18) 987 * 816 is under 2^20,
    # Gr(3,19) 1159 * 969 is above it, and Gr(5,18) 12615 * 8568 far above.
    argv = ("gw", "--lambda", "2,1", "--mu", "1", "--nu", "1,1")
    code, out, _ = run(capsys, *argv, "--k", "3", "--n", "18", "--backend", "niltl")
    assert code == 0 and out.strip() == "d=0: value=1"
    for backend in ("niltl", "all"):
        code, out, err = run(capsys, *argv, "--k", "3", "--n", "19", "--backend", backend)
        assert code == 1 and out == "" and "2^20" in err
    code, out, _ = run(capsys, *argv, "--k", "3", "--n", "19", "--backend", "bcf")
    assert code == 0 and out.strip() == "d=0: value=1"
    code, out, err = run(capsys, *argv, "--k", "5", "--n", "18", "--backend", "niltl")
    assert code == 1 and out == "" and "2^20" in err
    # Without a feasible degree no operator is built, so nothing is refused.
    argv = ("gw", "--k", "5", "--n", "18", "--lambda", "1", "--mu", "1", "--nu", "1,1")
    code, out, _ = run(capsys, *argv, "--backend", "niltl")
    assert code == 0 and "no feasible degree" in out
    # A one-row nu builds h_(nu_1) alone: n words on C(n, 2) classes, though h_2 would
    # put Gr(2,46) at 1081 * 1035, above 2^20.
    argv = ("gw", "--k", "2", "--lambda", "1,1", "--mu", "1", "--nu", "1", "--backend", "niltl")
    for n in ("14", "46"):
        code, out, _ = run(capsys, *argv, "--n", n)
        assert code == 0 and out.strip() == "d=0: value=1", n


def test_qprod_in_a_tall_box(capsys):
    # The work follows the rows of the factors, not the height k of the box.
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "qprod", "--k", "20000", "--n", "40000", "--lambda", "2,1", "--mu", "1"
    )
    elapsed = time.perf_counter() - started
    assert code == 0 and out.strip() == "s[3,1] + s[2,2] + s[2,1,1]"
    assert elapsed < 5.0, f"qprod in Gr(20000, 40000) took {elapsed:.3f}s"


def test_gw_no_feasible_degree(capsys):
    argv = ("gw", "--k", "2", "--n", "4", "--lambda", "1", "--mu", "1", "--nu", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == (
        "no feasible degree: |mu| + |nu| - |lambda| = 1 is not a nonnegative multiple of n = 4"
    )
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["values"] == []


def test_gw_requires_nu(capsys):
    code, out, err = run(capsys, "gw", "--k", "2", "--n", "4", "--lambda", "1", "--mu", "1")
    assert code == 1 and out == ""
    assert "the following arguments are required: --nu" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "4", "--scope", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    names = {line.split()[1] for line in lines}
    assert "generating_function_identity" in names
    assert "backend_agreement_and_nonnegativity" in names
    assert "q_power_interval" in names

    code, out, _ = run(
        capsys, "verify", "--k", "1", "--n", "3", "--scope", "relations", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(entry["status"] == "pass" for entry in payload)


def test_verify_gr_1_2_passes(capsys):
    # With n = 2 both neighbours of a generator are the other one, so the braid relation
    # does not apply; its entry still reports, and every check passes.
    code, out, _ = run(capsys, "verify", "--k", "1", "--n", "2", "--scope", "all")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 19 and all(line.startswith("PASS ") for line in lines)
    assert "PASS generator_braids_vanish" in lines


def test_verify_with_jobs(capsys):
    # verify has no --jobs option, so argparse rejects it as a usage error.
    code, out, err = run(capsys, "verify", "--k", "2", "--n", "4", "--scope", "backends", "--jobs", "2")
    assert code == 1 and out == ""
    assert "usage:" in err and "unrecognized arguments: --jobs 2" in err
    # the basis bound is a constant, not an option
    code, out, err = run(capsys, "verify", "--k", "2", "--n", "4", "--cap", "10")
    assert code == 1 and out == "" and "unrecognized arguments: --cap 10" in err


def test_verify_fails_on_a_corrupted_coefficient(capsys, monkeypatch):
    # sigma_1 * sigma_1 = sigma_2 + sigma_11 in Gr(2,4); report 2 for sigma_11.
    real = verify._basis_qprod

    def corrupted(ctx, a, b):
        prod = real(ctx, a, b)
        if (a, b) == ((1,), (1,)):
            prod = {**prod, ((1, 1), 0): prod[((1, 1), 0)] + 1}
        return prod

    argv = ("verify", "--k", "2", "--n", "4", "--scope", "symmetries")
    # the table and the pointwise oracle read the same product
    monkeypatch.setattr(verify, "_basis_qprod", corrupted)
    monkeypatch.setattr(symmetry, "_basis_qprod", corrupted)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert "FAIL hidden_cyclic_symmetry" in lines
    assert "FAIL strange_duality_transport" in lines and "FAIL s3_symmetry" in lines
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    entry = next(e for e in json.loads(out) if e["check"] == "hidden_cyclic_symmetry")
    *triple, a, b = entry["counterexample"]
    lam, mu, nu = (Partition(tuple(p)) for p in triple)
    assert not symmetry.hidden_symmetry_check(lam, mu, nu, a, b, -a - b, GrassContext(2, 4))
    # The same product as quantum_product reads it too: every check that reads the bcf
    # product reports its first pair, and the backends their values.
    monkeypatch.setattr(quantum, "_basis_qprod", corrupted)
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "4", "--scope", "all", "--format", "json")
    assert code == 2
    assert [e for e in json.loads(out) if e["status"] == "fail"] == [
        {"check": name, "status": "fail", "counterexample": witness} for name, witness in (
            ("backend_agreement_and_nonnegativity", [[1], [1], [1, 1], 0, [2, 1, 1]]),
            ("s3_symmetry", [[1], [1], [1, 1]]),
            ("hidden_cyclic_symmetry", [[1], [1], [1, 1], 0, 1]),
            ("strange_duality_transport", [[1], [1]]),
            ("strange_duality_multiplicative", [[1], [1]]),
            ("classical_limit", [[1], [1]]),
        )
    ]
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "PASS hidden_cyclic_symmetry" in out.splitlines()


def test_verify_builds_the_product_rows_once(capsys, monkeypatch):
    # every check but the relation suite reads one table
    builds = []
    real = verify.product_rows
    monkeypatch.setattr(verify, "product_rows", lambda ctx: builds.append(ctx) or real(ctx))
    for scope, count in (
        ("backends", 1), ("intervals", 1), ("classical", 1), ("symmetries", 1), ("all", 1),
        ("relations", 0),
    ):
        builds.clear()
        code, _, _ = run(capsys, "verify", "--k", "2", "--n", "4", "--scope", scope)
        assert code == 0 and len(builds) == count, scope


def test_a_second_verify_run_misses_no_memo():
    # Every memo of the package is an lru_cache, so a second run in the same process
    # adds no miss to any of them, and the product, LR and toric memos serve it.
    memos = {
        f"{fn.__module__}.{fn.__qualname__}": fn
        for name, module in list(sys.modules.items()) if name.startswith("qgrass")
        for fn in vars(module).values() if hasattr(fn, "cache_info")
    }
    ctx = GrassContext(3, 6)
    verify.run(ctx, "all")
    before = {name: fn.cache_info() for name, fn in memos.items()}
    verify.run(ctx, "all")
    after = {name: fn.cache_info() for name, fn in memos.items()}
    assert {name: after[name].misses - before[name].misses for name in memos} == dict.fromkeys(
        memos, 0
    )
    for name in ("qgrass.quantum._qprod_raw", "qgrass.schur._lr_count", "qgrass.schur._toric_rows"):
        assert after[name].hits > before[name].hits, name


def test_verify_refuses_a_product_term_of_the_wrong_degree(capsys, monkeypatch):
    # q sigma_2 in sigma_1 * sigma_1 on Gr(2,4): the sizes fix its degree at 0, not 1.
    real = verify._basis_qprod

    def corrupted(ctx, a, b):
        prod = real(ctx, a, b)
        return {**prod, ((2,), 1): 1} if (a, b) == ((1,), (1,)) else prod

    monkeypatch.setattr(verify, "_basis_qprod", corrupted)
    code, out, err = run(capsys, "verify", "--k", "2", "--n", "4", "--scope", "symmetries")
    assert code == 1 and out == ""
    assert err.strip() == "error: q^1 sigma_(2,) in (1,) * (1,): wrong degree"


def test_verify_fails_on_a_corrupted_toric_coefficient(capsys, monkeypatch):
    # sigma_1 * sigma_1 = sigma_2 + sigma_11 in Gr(2,4); the toric backend
    # reports 2 for sigma_11.
    real = verify._walk_rows

    def corrupted(k, n, mu, size, nvars):
        rows = real(k, n, mu, size, nvars)
        if mu == (1,) and ((1, 1), 0) in rows:
            row = rows[(1, 1), 0]
            rows = {**rows, ((1, 1), 0): {**row, (1,): row[(1,)] + 1}}
        return rows

    argv = ("verify", "--k", "2", "--n", "4", "--scope", "backends")
    monkeypatch.setattr(verify, "_walk_rows", corrupted)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "FAIL backend_agreement_and_nonnegativity" in out.splitlines()
    assert "  counterexample: ((1,), (1,), (1, 1), 0, (1, 2, 1))" in out.splitlines()
    # (mu, nu, lam, d, (bcf, toric, niltl))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out) == [{
        "check": "backend_agreement_and_nonnegativity", "status": "fail",
        "counterexample": [[1], [1], [1, 1], 0, [1, 2, 1]],
    }]
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "PASS backend_agreement_and_nonnegativity" in out.splitlines()


def test_backend_tables_intern_no_new_row(monkeypatch):
    # Agreeing backends give rows the product table already holds, so their ids are its
    # ids; one wrong toric coefficient makes exactly one new row.
    for k, n in ((2, 4), (2, 5), (3, 5), (3, 6)):
        ctx = GrassContext(k, n)
        ids, pool = verify.product_rows(ctx)
        toric, niltl = verify._toric_rows(ctx, pool), verify._niltl_rows(ctx, pool)
        assert len(pool) == len(set(ids)), (k, n)
        dim = len(enumerate_pkn(ctx))
        pairs = [i * dim + j for i in range(dim) for j in range(i, dim)]
        assert [toric[p] for p in pairs] == [niltl[p] for p in pairs] == [ids[p] for p in pairs]
    real = verify._walk_rows

    def corrupted(k, n, mu, size, nvars):
        rows = real(k, n, mu, size, nvars)
        if mu == (1,) and ((1, 1), 0) in rows:
            row = rows[(1, 1), 0]
            rows = {**rows, ((1, 1), 0): {**row, (1,): row[(1,)] + 1}}
        return rows

    monkeypatch.setattr(verify, "_walk_rows", corrupted)
    ctx = GrassContext(2, 4)
    ids, pool = verify.product_rows(ctx)
    verify._toric_rows(ctx, pool)
    assert len(pool) == len(set(ids)) + 1


def test_backend_tables_validate_no_item(monkeypatch):
    # Validation belongs at the public boundary: once warm, the backend tables read the
    # memos without asking any partition whether it fits.
    ctx = GrassContext(3, 6)
    verify.run(ctx, "backends")
    ids, pool = verify.product_rows(ctx)

    def refuse(self, lam):
        raise AssertionError(f"require_fits({lam!r}) in the backend tables")

    monkeypatch.setattr(GrassContext, "require_fits", refuse)
    assert verify.check_backends(ctx, ids, pool) is None


def test_verify_fails_on_a_corrupted_niltl_entry(capsys, monkeypatch):
    # The operator of sigma_1 on Gr(2,4) sends sigma_1 to sigma_2 + sigma_11; report 2
    # for sigma_11.
    real = verify.schubert_op

    def corrupted(nu, ctx):
        op = real(nu, ctx)
        if nu.parts == (1,):
            index = basis_table(ctx).index
            rows = [dict(row) for row in op.rows]
            rows[index[(1, 1)]][index[(1,)]] += 1
            op = NilTLOperator(ctx, rows, op.degree)
        return op

    argv = ("verify", "--k", "2", "--n", "4", "--scope", "backends")
    monkeypatch.setattr(verify, "schubert_op", corrupted)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines() == [
        "FAIL backend_agreement_and_nonnegativity",
        "  counterexample: ((1,), (1,), (1, 1), 0, (1, 1, 2))",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out) == [{
        "check": "backend_agreement_and_nonnegativity", "status": "fail",
        "counterexample": [[1], [1], [1, 1], 0, [1, 1, 2]],
    }]
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines() == ["PASS backend_agreement_and_nonnegativity"]


def test_verify_compares_the_niltl_rows_below_the_diagonal(capsys, monkeypatch):
    # Row (i, j) with i > j is sigma_(nu_j) acting on sigma_(mu_i).  On Gr(2,4) the operator
    # of sigma_1 sends sigma_2 to sigma_21; a 2 there shows only in the rows i > j.
    real = verify.schubert_op

    def corrupted(nu, ctx):
        op = real(nu, ctx)
        if nu.parts == (1,):
            index = basis_table(ctx).index
            rows = [dict(row) for row in op.rows]
            rows[index[(2, 1)]][index[(2,)]] += 1
            op = NilTLOperator(ctx, rows, op.degree)
        return op

    monkeypatch.setattr(verify, "schubert_op", corrupted)
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "4", "--scope", "backends")
    assert code == 2
    assert out.splitlines() == [
        "FAIL backend_agreement_and_nonnegativity",
        "  counterexample: ((2,), (1,), (2, 1), 0, (1, 1, 2))",
    ]


def test_verify_fails_on_a_negative_coefficient(capsys, monkeypatch):
    # sigma_1 * sigma_21 = q + sigma_22 in Gr(2,4); all three backends report -1 for q.
    real_qprod, real_toric, real_op = quantum._basis_qprod, verify._walk_rows, verify.schubert_op

    def qprod(ctx, a, b):
        prod = real_qprod(ctx, a, b)
        return {**prod, ((), 1): -1} if (a, b) == ((1,), (2, 1)) else prod

    def toric(k, n, mu, size, nvars):
        rows = real_toric(k, n, mu, size, nvars)
        if (mu, size) != ((1,), 3):
            return rows
        return {**rows, ((), 1): {**rows.get(((), 1), {}), (2, 1): -1}}

    def op(nu, ctx):
        found = real_op(nu, ctx)
        if nu.parts == (2, 1):
            index = basis_table(ctx).index
            rows = [dict(row) for row in found.rows]
            rows[index[()]][index[(1,)]] = -1
            found = NilTLOperator(ctx, rows, found.degree)
        return found

    for module, name, fake in (
        (verify, "_basis_qprod", qprod), (quantum, "_basis_qprod", qprod),
        (verify, "_walk_rows", toric), (verify, "schubert_op", op),
    ):
        monkeypatch.setattr(module, name, fake)
    code, out, _ = run(capsys, "verify", "--k", "2", "--n", "4", "--scope", "all", "--format", "json")
    assert code == 2
    witnesses = {e["check"]: e.get("counterexample") for e in json.loads(out)}
    assert witnesses["backend_agreement_and_nonnegativity"] == [[1], [2, 1], [], 1, [-1, -1, -1]]
    assert witnesses["classical_limit"] == [[1], [2, 1]]
    assert witnesses["q_power_interval"] is None


def test_verify_duality_degrees_fall_back_to_each_pair(capsys, monkeypatch):
    # One wrong diag_0 breaks the per-class degree identities of both dualities; each
    # check then names the first pair that the pointwise forms reject, and exits 2.
    ctx = GrassContext(3, 6)
    real = verify.diag

    def shifted(lam, c, i):
        return real(lam, c, i) + (lam.parts == (2, 1) and i == 0)

    # the sweeps and the pointwise oracles read the same diag_0
    monkeypatch.setattr(verify, "diag", shifted)
    monkeypatch.setattr(symmetry, "diag", shifted)
    code, out, _ = run(capsys, "verify", "--k", "3", "--n", "6", "--scope", "symmetries")
    assert code == 2
    assert out.splitlines()[2:] == [
        "FAIL strange_duality_transport", "  counterexample: ((), (3, 2, 1))",
        "FAIL strange_duality_multiplicative", "  counterexample: ((1,), (2,))",
    ]
    basis = enumerate_pkn(ctx)
    pairs = [(lam, mu) for i, lam in enumerate(basis) for mu in basis[i:]]
    transport = next(p for p in pairs if not symmetry.check_strange_duality_pair(*p, ctx))
    assert [p.parts for p in transport] == [(), (3, 2, 1)]

    def multiplicative(lam, mu):
        a, b = schubert_class(lam, ctx), schubert_class(mu, ctx)
        image = quantum_product(symmetry.strange_duality(a), symmetry.strange_duality(b))
        return symmetry.strange_duality(quantum_product(a, b)) == image

    assert [p.parts for p in next(p for p in pairs if not multiplicative(*p))] == [(1,), (2,)]


def test_verify_fails_when_an_interval_form_raises(capsys, monkeypatch):
    # a pair whose interval form cannot be built is a counterexample, not a skip
    real = verify.dmin_dmax

    def broken(lam, mu, ctx):
        if (lam.parts, mu.parts) == ((1,), (2,)):
            raise FormMismatch("injected")
        return real(lam, mu, ctx)

    argv = ("verify", "--k", "2", "--n", "4", "--scope", "intervals")
    monkeypatch.setattr(verify, "dmin_dmax", broken)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines() == ["FAIL q_power_interval", "  counterexample: ((1,), (2,))"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out) == [
        {"check": "q_power_interval", "status": "fail", "counterexample": [[1], [2]]}
    ]
    monkeypatch.undo()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines() == ["PASS q_power_interval"]
    # a q-power the interval does not hold: q in sigma_2 * sigma_2 = sigma_22
    real_qprod = verify._basis_qprod

    def corrupted(ctx, a, b):
        prod = real_qprod(ctx, a, b)
        return {**prod, ((), 1): 1} if (a, b) == ((2,), (2,)) else prod

    monkeypatch.setattr(verify, "_basis_qprod", corrupted)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines() == ["FAIL q_power_interval", "  counterexample: ((2,), (2,))"]
