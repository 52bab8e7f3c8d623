"""Command line front end: products, invariants, expansions, verification.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .errors import QGrassError
from .partitions import GrassContext, Partition, format_terms, parse_partition
from .quantum import BACKENDS, gw_invariant, quantum_product, rimhook_reduce, schubert_class
from .schur import toric_schur_expand
from .symmetry import dmin_dmax, q_power_set
from .tableaux import quantum_kostka

# Bounds toric-schur's work: the coefficient of s_nu runs over up to 2^len(nu) column sets.
MAX_NVARS = 16
# Bounds the word actions of gw --backend niltl|all: (h words built) * N, each word acting on
# every class.  Near the bound a cold call takes 0.02-1.1 s (5th to 95th percentile) on a
# 2-core machine, at most 1.8 s: the query also builds the rest of its (nu_1, nu_2) walk.
MAX_NILTL_WORK = 2**20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _context(args) -> GrassContext:
    return GrassContext(args.k, args.n)


def _add_common(sub, *, nvars=False, d=False, beta=False, backend=False):
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    if backend:
        sub.add_argument("--nu", type=parse_partition, required=True)
    if d:
        sub.add_argument("--d", type=int, default=None)
    if nvars:
        sub.add_argument("--nvars", type=int, required=True)
    if beta:
        sub.add_argument("--beta", type=str, required=True,
                         help="weight composition, comma separated")
    if backend:
        sub.add_argument("--backend", choices=BACKENDS + ("all",), default="bcf")


def _cmd_qprod(args) -> int:
    ctx = _context(args)
    result = quantum_product(
        schubert_class(args.lam, ctx), schubert_class(args.mu, ctx)
    )
    if args.format == "json":
        _emit_json(result.to_json_dict())
    else:
        print(result)
    return 0


def _niltl_words(ctx: GrassContext, nu: Partition, cap: int) -> int:
    """At least the number of h words schubert_op(nu) builds, or cap + 1 once that passes cap.

    schubert_op reads nu from the walk of every box partition with the same nu_1 and nu_2.
    Row 1 of their k x k determinant asks for every h_c with c = nu_1 .. nu_1 + k - 1 when a
    lower row can take column 1 (nu_2 > 0); otherwise it builds h_(nu_1) alone.  Lower rows ask
    for smaller c, and h_c sums C(n, c) words; this sums them over c = 1 .. top.
    """
    top = min(ctx.n - 1, nu.part(1) + (ctx.k - 1 if nu.part(2) else 0))
    words, binom = 0, 1
    for c in range(top):
        binom = binom * (ctx.n - c) // (c + 1)
        words += binom
        if words > cap:
            return cap + 1
    return words


def _cmd_gw(args) -> int:
    ctx = _context(args)
    mu, nu, lam = args.mu, args.nu, args.lam
    if args.d is not None:
        degrees = [args.d]
    else:
        num = mu.size + nu.size - lam.size
        q, r = divmod(num, ctx.n)
        degrees = [q] if (r == 0 and q >= 0) else []
    for p in (mu, nu, lam):
        ctx.require_fits(p)
    built = any(d >= 0 and lam.size == mu.size + nu.size - d * ctx.n for d in degrees)
    if args.backend in ("niltl", "all") and built:
        # Every word acts on all N classes, and N >= n bounds how far the words are counted.
        words = _niltl_words(ctx, nu, MAX_NILTL_WORK // ctx.n)
        if words * verify.count_classes(ctx, MAX_NILTL_WORK) > MAX_NILTL_WORK:
            raise QGrassError(
                f"niltl backend: the h words of sigma_{nu.parts} on C({ctx.n}, {ctx.k}) classes"
                f" are above the bound 2^20 = {MAX_NILTL_WORK}"
            )
    rows = []
    for d in degrees:
        if args.backend == "all":
            values = {b: gw_invariant(mu, nu, lam, d, ctx, b) for b in BACKENDS}
            rows.append({"d": d, **values})
        else:
            rows.append({"d": d, "value": gw_invariant(mu, nu, lam, d, ctx, args.backend)})
    if args.format == "json":
        _emit_json({
            "k": ctx.k, "n": ctx.n,
            "lambda": list(lam.parts), "mu": list(mu.parts), "nu": list(nu.parts),
            "values": rows,
        })
    elif not rows:
        print(
            f"no feasible degree: |mu| + |nu| - |lambda| = {mu.size + nu.size - lam.size}"
            f" is not a nonnegative multiple of n = {ctx.n}"
        )
    else:
        for row in rows:
            detail = " ".join(f"{key}={row[key]}" for key in row if key != "d")
            print(f"d={row['d']}: {detail}")
    return 0


def _cmd_toric_schur(args) -> int:
    ctx = _context(args)
    if args.d is None or args.d < 0:
        raise QGrassError("toric-schur requires --d >= 0")
    if not 0 <= args.nvars <= MAX_NVARS:
        raise QGrassError(
            f"toric-schur requires 0 <= --nvars <= {MAX_NVARS}, got {args.nvars}"
        )
    expansion = toric_schur_expand(args.lam, args.d, args.mu, ctx, args.nvars)
    if args.format == "json":
        _emit_json(expansion.to_json_dict())
    else:
        print(expansion)
    return 0


def _cmd_kostka(args) -> int:
    ctx = _context(args)
    if args.d is None or args.d < 0:
        raise QGrassError("kostka requires --d >= 0")
    try:
        beta = tuple(int(tok) for tok in args.beta.split(",")) if args.beta else ()
    except ValueError as exc:
        raise QGrassError(f"cannot parse weight {args.beta!r}") from exc
    value = quantum_kostka(args.lam, args.d, args.mu, beta, ctx)
    if args.format == "json":
        _emit_json({"value": value})
    else:
        print(value)
    return 0


def _cmd_qpowers(args) -> int:
    ctx = _context(args)
    interval = dmin_dmax(args.lam, args.mu, ctx)
    powers = q_power_set(args.lam, args.mu, ctx)
    if powers != set(interval.members()):
        print(
            f"error: product powers {sorted(powers)} disagree with interval "
            f"[{interval.dmin}, {interval.dmax}]",
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        _emit_json(interval.to_json_dict())
    else:
        print(f"[{', '.join(str(d) for d in interval.members())}]")
    return 0


def _cmd_reduce(args) -> int:
    ctx = _context(args)
    red = rimhook_reduce(args.lam, ctx)
    if args.format == "json":
        _emit_json({
            "vanished": red.vanished,
            "core": None if red.vanished else list(red.core.parts),
            "d": red.d,
            "sign": red.sign,
        })
    else:
        print(format_terms([] if red.vanished else [(red.sign, red.d, red.core.parts)]))
    return 0


def _cmd_verify(args) -> int:
    report = verify.run(_context(args), args.scope)
    if args.format == "json":
        _emit_json(report)
    else:
        for entry in report:
            print(f"{'PASS' if entry['status'] == 'pass' else 'FAIL'} {entry['check']}")
            if "counterexample" in entry:
                print(f"  counterexample: {entry['counterexample']}")
    return 2 if any(entry["status"] != "pass" for entry in report) else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qgrass", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("qprod", help="quantum product of two basis classes")
    _add_common(sub)
    sub.add_argument("--mu", type=parse_partition, required=True)
    sub.set_defaults(func=_cmd_qprod)

    sub = subs.add_parser("gw", help="structure constant of a triple")
    _add_common(sub, d=True, backend=True)
    sub.add_argument("--mu", type=parse_partition, required=True)
    sub.set_defaults(func=_cmd_gw)

    sub = subs.add_parser("toric-schur", help="Schur expansion of a cylindric shape")
    _add_common(sub, d=True, nvars=True)
    sub.add_argument("--mu", type=parse_partition, required=True)
    sub.set_defaults(func=_cmd_toric_schur)

    sub = subs.add_parser("kostka", help="cylindric tableau count for a weight")
    _add_common(sub, d=True, beta=True)
    sub.add_argument("--mu", type=parse_partition, required=True)
    sub.set_defaults(func=_cmd_kostka)

    sub = subs.add_parser("qpowers", help="q-power interval of a product")
    _add_common(sub)
    sub.add_argument("--mu", type=parse_partition, required=True)
    sub.set_defaults(func=_cmd_qpowers)

    sub = subs.add_parser("reduce", help="rim-hook reduction of one shape")
    _add_common(sub)
    sub.set_defaults(func=_cmd_reduce)

    sub = subs.add_parser("verify", help="run identity suites exhaustively")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument(
        "--scope",
        choices=("relations", "symmetries", "backends", "intervals", "classical", "all"),
        default="all",
    )
    sub.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except QGrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
