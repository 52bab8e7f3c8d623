import json
import re
import sys
import time

import pytest

from qgrass import FormMismatch, QGrassError, niltl, quantum, schur, symmetry, tableaux, verify
from qgrass.cli import main
from qgrass.niltl import NilTLOperator
from qgrass.partitions import GrassContext, Partition, basis_table, enumerate_pkn
from qgrass.quantum import quantum_product, schubert_class


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_lines_keep_the_option_order(capsys):
    # argparse lays out help differently across Python versions, so only the option tokens
    # of each usage line are pinned, in order, with the bracket of each optional one.
    for command, tokens in (
        ("qprod", "--k --n [--format --lambda --mu"),
        ("gw", "--k --n [--format --lambda --nu [--d [--backend --mu"),
        ("toric-schur", "--k --n [--format --lambda [--d --nvars --mu"),
        ("kostka", "--k --n [--format --lambda [--d --beta --mu"),
        ("qpowers", "--k --n [--format --lambda --mu"),
        ("reduce", "--k --n [--format --lambda"),
        ("verify", "--k --n [--format [--scope"),
    ):
        code, out, _ = run(capsys, command, "--help")
        usage = out.split("\n\n")[0]
        assert code == 0 and usage.startswith(f"usage: qgrass {command} ")
        assert re.findall(r"\[?--[\w-]+", usage) == tokens.split(), command


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


def test_toric_schur_bounds_the_walk(capsys):
    # --nvars <= 16 bounds the variables, not the walk: at d = 2 on Gr(20,40) the walk would
    # list 15,356,023 nu.  It spends its budget of strip steps and is refused, storing nothing.
    before = schur._toric_rows.cache_info().currsize
    code, out, err = run(
        capsys, "toric-schur", "--k", "20", "--n", "40",
        "--lambda", "10,10", "--d", "2", "--mu", "0", "--nvars", "16",
    )
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.strip() == "error: toric walk: over the budget of 4194304 strip steps"
    assert schur._toric_rows.cache_info().currsize == before


def test_toric_schur_meter_admits_cheap_walks(capsys):
    # A price that left mu out refused these; each walk takes well under a second.
    for argv, expected in (
        (("--k", "20", "--n", "40", "--lambda", "10,10", "--d", "0", "--mu", "0", "--nvars", "4"),
         "s[10,10]"),
        (("--k", "8", "--n", "16", "--lambda", "4,4", "--d", "1", "--mu", "0", "--nvars", "8"),
         "0"),
        (("--k", "2000", "--n", "4000", "--lambda", "2,1", "--d", "0", "--mu", "1",
          "--nvars", "16"), "s[2] + s[1,1]"),
    ):
        code, out, err = run(capsys, "toric-schur", *argv)
        assert (code, out.strip(), err) == (0, expected, ""), argv


def test_gw_toric_refuses_past_the_budget(capsys):
    # The toric backend walks the determinant of the asked nu alone.  On Gr(12,24) that walk
    # still passes the budget; the Gr(10,20) analog, which the walk over every nu of |nu|
    # cells refused, is answered, and agrees with bcf.
    square = "12,12,12,12,12,12,6,6,6,6,6,6"
    code, out, err = run(
        capsys, "gw", "--k", "12", "--n", "24", "--lambda", ",".join(["6"] * 12),
        "--mu", square, "--nu", square, "--backend", "toric",
    )
    assert (code, out) == (1, "")
    assert err.strip() == "error: toric walk: over the budget of 4194304 strip steps"
    square = "10,10,10,10,10,5,5,5,5,5"
    for backend in ("toric", "bcf"):
        code, out, err = run(
            capsys, "gw", "--k", "10", "--n", "20", "--lambda", ",".join(["5"] * 10),
            "--mu", square, "--nu", square, "--backend", backend,
        )
        assert (code, out.strip(), err) == (0, "d=5: value=1", ""), backend


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


def test_kostka_refuses_past_the_budget(capsys):
    # A strip of 3 cells above the staircase of 199 rows in Gr(200,400) has about
    # C(200, 3) = 1.3M placements.  The count had no bound and ran past 60 s; it now spends
    # the toric budget of strip steps and is refused part way through its one fill.
    mu = ",".join(str(p) for p in range(199, 0, -1))
    lam = "200,199,198," + ",".join(str(p) for p in range(196, 0, -1))
    tableaux.loop_ids.cache_clear()
    started = time.perf_counter()
    code, out, err = run(
        capsys, "kostka", "--k", "200", "--n", "400",
        "--lambda", lam, "--d", "0", "--mu", mu, "--beta", "3",
    )
    assert time.perf_counter() - started < 2
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.strip() == "error: toric walk: over the budget of 4194304 strip steps"


def test_gw_reads_partitions_of_thousands_of_parts(capsys):
    # The box enumerator once recursed once per part, and these requests ended in a
    # RecursionError traceback: the toric walk over the nu of 2000 cells in Gr(5000,5001),
    # which now spends its budget, and the nil-TL basis of Gr(1500,1501).
    ones = ",".join(["1"] * 2000)
    argv = ("gw", "--k", "5000", "--n", "5001", "--lambda", ones, "--mu", "0", "--nu", ones)
    assert run(capsys, *argv) == (0, "d=0: value=1\n", "")
    code, out, err = run(capsys, *argv, "--backend", "toric")
    assert (code, out) == (1, "") and "Traceback" not in err
    assert err.strip() == "error: toric walk: over the budget of 4194304 strip steps"
    code, out, err = run(
        capsys, "gw", "--k", "1500", "--n", "1501",
        "--lambda", "1", "--mu", "0", "--nu", "1", "--backend", "niltl",
    )
    assert (code, out, err) == (0, "d=0: value=1\n", "")


def test_invalid_input_exit_code(capsys):
    code, _, err = run(capsys, "qprod", "--k", "2", "--n", "4", "--lambda", "3,1", "--mu", "1")
    assert code == 1 and "box" in err
    code, _, err = run(capsys, "qprod", "--k", "2", "--n", "4", "--lambda", "x", "--mu", "1")
    assert code == 1
    code, _, err = run(capsys, "verify", "--k", "3", "--n", "20")
    assert code == 1 and "cap" in err


def test_a_context_outside_1_le_k_lt_n_is_refused(capsys):
    for k, n in (("4", "4"), ("0", "4"), ("5", "4"), ("-1", "3")):
        code, out, err = run(capsys, "qprod", "--k", k, "--n", n, "--lambda", "1", "--mu", "1")
        assert code == 1 and out == "" and "context requires" in err and "Traceback" not in err
    code, out, err = run(capsys, "verify", "--k", "0", "--n", "3")
    assert code == 1 and out == "" and "context requires" in err


def test_verify_bounds_the_relation_suite(capsys):
    # The suite makes about n^2 products of N rows.  Gr(1,18) passes; Gr(1,200), N = 200
    # under the cap, has n^2 * N = 8M above the relation bound and is refused before any
    # operator is built.
    code, out, _ = run(capsys, "verify", "--k", "1", "--n", "18", "--scope", "relations")
    assert code == 0 and {line.split()[0] for line in out.splitlines()} == {"PASS"}
    started = time.perf_counter()
    argv = ("verify", "--k", "1", "--n", "200")
    code, out, err = run(capsys, *argv, "--scope", "relations")
    assert code == 1 and out == "" and "n^2 * N = 8000000" in err and "2^20" in err
    assert time.perf_counter() - started < 1.0
    code, out, _ = run(capsys, *argv[:-1], "18", "--scope", "symmetries")
    assert code == 0 and "PASS strange_duality_transport" in out.splitlines()
    code, _, err = run(capsys, "verify", "--k", "3", "--n", "20")
    assert code == 1 and "cap" in err
    # The sweeps check group generators only, so no bound on n prices them: Gr(1,100) passes.
    code, out, _ = run(capsys, "verify", "--k", "1", "--n", "100", "--scope", "symmetries")
    assert code == 0 and [line.split()[0] for line in out.splitlines()] == ["PASS"] * 4


def test_verify_bounds_the_basis_before_counting_it(capsys):
    # C(10^6, 5 * 10^5) has over 300,000 digits; the cap check must neither form nor print it.
    code, out, err = run(capsys, "verify", "--k", "500000", "--n", "1000000")
    assert code == 1 and out == "" and "cap" in err and "Traceback" not in err
    assert len(err) < 200


def test_gw_bounds_the_niltl_backend(capsys):
    # The walk of sigma_11 asks for h_1 .. h_k, each built by its letter DP, and multiplies
    # them.  Gr(3,19) and Gr(5,18) fit the budget; the latter charges 12.5M on 8568 classes,
    # 8.1M letter steps for h_1 .. h_5 and 4.4M multiply-adds.
    # In Gr(11,22) the DP of h_1 alone charges 22 reads of 705,432 classes and 11 per class
    # for their masks, which is refused before anything is built.
    argv = ("gw", "--lambda", "2,1", "--mu", "1", "--nu", "1,1")
    budget = f"niltl walk: over the budget of {niltl.NILTL_BUDGET} "
    for n in ("18", "19"):
        code, out, _ = run(capsys, *argv, "--k", "3", "--n", n, "--backend", "niltl")
        assert code == 0 and out.strip() == "d=0: value=1", n
    for k, n in (("3", "19"), ("5", "18")):
        code, out, _ = run(capsys, *argv, "--k", k, "--n", n, "--backend", "all")
        assert code == 0 and out.strip() == "d=0: bcf=1 toric=1 niltl=1", (k, n)
    started = time.perf_counter()
    for backend in ("niltl", "all"):
        code, out, err = run(capsys, *argv, "--k", "11", "--n", "22", "--backend", backend)
        assert code == 1 and out == "" and budget in err and "Traceback" not in err
    assert time.perf_counter() - started < 1.0
    # Without a feasible degree no operator is built, so nothing is refused.
    argv = ("gw", "--k", "5", "--n", "18", "--lambda", "1", "--mu", "1", "--nu", "1,1")
    code, out, _ = run(capsys, *argv, "--backend", "niltl")
    assert code == 0 and "no feasible degree" in out
    # A one-row nu builds h_(nu_1) alone.
    argv = ("gw", "--k", "2", "--lambda", "1,1", "--mu", "1", "--nu", "1", "--backend", "niltl")
    for n in ("14", "46"):
        code, out, _ = run(capsys, *argv, "--n", n)
        assert code == 0 and out.strip() == "d=0: value=1", n
    # A box too large to count is refused before any operator of its N rows is built, the
    # identity that nu = () starts from too.
    for mu, nu in (("1", "1,1"), ("2,1", "0")):
        started = time.perf_counter()
        code, out, err = run(
            capsys, "gw", "--k", "20000", "--n", "40000",
            "--lambda", "2,1", "--mu", mu, "--nu", nu, "--backend", "niltl",
        )
        assert code == 1 and out == "" and budget in err, nu
        assert time.perf_counter() - started < 1.0


def test_verify_backends_runs_under_the_niltl_budget(capsys):
    # Gr(1,24) has only 24 classes, but its nil-TL table builds every h_c, and h_12 alone
    # sums C(24, 12) words.  The letter DP builds them without listing a word, so the walk of
    # nu = (12), the costliest, charges 8,850, and the check passes at once.
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", "--k", "1", "--n", "24", "--scope", "backends")
    elapsed = time.perf_counter() - started
    assert (code, out, err) == (0, "PASS backend_agreement_and_nonnegativity\n", "")
    assert elapsed < 10.0, f"verify took {elapsed:.1f}s"


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


def test_gw_refuses_a_negative_degree(capsys):
    argv = ("gw", "--k", "2", "--n", "4", "--lambda", "1", "--mu", "1", "--nu", "0")
    for backend in ("bcf", "all"):
        code, out, err = run(capsys, *argv, "--d", "-1", "--backend", backend)
        assert code == 1 and out == ""
        assert "gw requires --d >= 0" in err and "Traceback" not in err
    code, out, _ = run(capsys, *argv, "--d", "0")
    assert code == 0 and out.strip() == "d=0: value=1"


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
            prod = {**prod, (Partition((1, 1)), 0): prod[(Partition((1, 1)), 0)] + 1}
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
            ("giambelli", [[1, 1]]),
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
    # an unknown scope is refused before any work (Gr(5,11) would build 462^2 products)
    builds.clear()
    for ctx in (GrassContext(2, 4), GrassContext(5, 11)):
        with pytest.raises(QGrassError, match="unknown scope 'bogus'"):
            verify.run(ctx, "bogus")
    assert builds == []


def test_verify_walks_the_niltl_operators_before_the_tables(monkeypatch):
    # A nil-TL walk past its budget refuses the backend check before any table is built.
    builds = []
    real = verify.product_rows
    monkeypatch.setattr(verify, "product_rows", lambda ctx: builds.append(ctx) or real(ctx))
    monkeypatch.setattr(niltl, "NILTL_BUDGET", 0)
    niltl._schubert_walk.cache_clear()
    niltl._schubert_op.cache_clear()
    with pytest.raises(QGrassError, match="niltl walk: over the budget of 0 "):
        verify.run(GrassContext(3, 6), "backends")
    assert builds == []


def test_a_second_verify_run_misses_no_memo():
    # A second run in the same process adds no miss to any lru_cache memo, and the product,
    # LR and toric walk memos serve it.
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
    for name in ("qgrass.quantum._qprod_raw", "qgrass.schur._lr_by_content",
                 "qgrass.schur._toric_rows"):
        assert after[name].hits > before[name].hits, name


def test_verify_refuses_a_product_term_of_the_wrong_degree(capsys, monkeypatch):
    # q sigma_2 in sigma_1 * sigma_1 on Gr(2,4): the sizes fix its degree at 0, not 1.
    real = verify._basis_qprod

    def corrupted(ctx, a, b):
        prod = real(ctx, a, b)
        return {**prod, (Partition((2,)), 1): 1} if (a, b) == ((1,), (1,)) else prod

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

    def refuse(self, *lams):
        raise AssertionError(f"require_fits{lams!r} in the backend tables")

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
        return {**prod, (Partition(()), 1): -1} if (a, b) == ((1,), (2, 1)) else prod

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
        return {**prod, (Partition(()), 1): 1} if (a, b) == ((2,), (2,)) else prod

    monkeypatch.setattr(verify, "_basis_qprod", corrupted)
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.splitlines() == ["FAIL q_power_interval", "  counterexample: ((2,), (2,))"]
