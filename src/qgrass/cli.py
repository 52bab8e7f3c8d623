"""Command line front end: products, invariants, expansions, verification.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .errors import QGrassError
from .partitions import GrassContext, format_terms, parse_partition
from .quantum import BACKENDS, gw_invariant, quantum_product, rimhook_reduce, schubert_class
from .schur import toric_schur_expand
from .symmetry import dmin_dmax, q_power_set
from .tableaux import quantum_kostka

MAX_NVARS = 16


def _emit(args, payload, text) -> None:
    print(json.dumps(payload, sort_keys=True) if args.format == "json" else text)


def _cmd_qprod(args, ctx) -> int:
    result = quantum_product(schubert_class(args.lam, ctx), schubert_class(args.mu, ctx))
    _emit(args, result.to_json_dict(), result)
    return 0


def _cmd_gw(args, ctx) -> int:
    mu, nu, lam = args.mu, args.nu, args.lam
    if args.d is not None:
        if args.d < 0:
            raise QGrassError("gw requires --d >= 0")
        degrees = [args.d]
    else:
        q, r = divmod(mu.size + nu.size - lam.size, ctx.n)
        degrees = [q] if (r == 0 and q >= 0) else []
    ctx.require_fits(mu, nu, lam)
    rows = []
    for d in degrees:
        if args.backend == "all":
            values = {b: gw_invariant(mu, nu, lam, d, ctx, b) for b in BACKENDS}
            rows.append({"d": d, **values})
        else:
            rows.append({"d": d, "value": gw_invariant(mu, nu, lam, d, ctx, args.backend)})
    payload = {
        "k": ctx.k, "n": ctx.n,
        "lambda": list(lam.parts), "mu": list(mu.parts), "nu": list(nu.parts),
        "values": rows,
    }
    text = "\n".join(
        f"d={row['d']}: " + " ".join(f"{key}={row[key]}" for key in row if key != "d")
        for row in rows
    ) or (
        f"no feasible degree: |mu| + |nu| - |lambda| = {mu.size + nu.size - lam.size}"
        f" is not a nonnegative multiple of n = {ctx.n}"
    )
    _emit(args, payload, text)
    return 0


def _cmd_toric_schur(args, ctx) -> int:
    if args.d is None or args.d < 0:
        raise QGrassError("toric-schur requires --d >= 0")
    if not 0 <= args.nvars <= MAX_NVARS:
        raise QGrassError(
            f"toric-schur requires 0 <= --nvars <= {MAX_NVARS}, got {args.nvars}"
        )
    expansion = toric_schur_expand(args.lam, args.d, args.mu, ctx, args.nvars)
    _emit(args, expansion.to_json_dict(), expansion)
    return 0


def _cmd_kostka(args, ctx) -> int:
    if args.d is None or args.d < 0:
        raise QGrassError("kostka requires --d >= 0")
    try:
        beta = tuple(int(tok) for tok in args.beta.split(",")) if args.beta else ()
    except ValueError as exc:
        raise QGrassError(f"cannot parse weight {args.beta!r}") from exc
    value = quantum_kostka(args.lam, args.d, args.mu, beta, ctx)
    _emit(args, {"value": value}, value)
    return 0


def _cmd_qpowers(args, ctx) -> int:
    interval = dmin_dmax(args.lam, args.mu, ctx)
    powers = q_power_set(args.lam, args.mu, ctx)
    if powers != set(interval.members()):
        print(
            f"error: product powers {sorted(powers)} disagree with interval "
            f"[{interval.dmin}, {interval.dmax}]",
            file=sys.stderr,
        )
        return 2
    _emit(args, interval.to_json_dict(), f"[{', '.join(str(d) for d in interval.members())}]")
    return 0


def _cmd_reduce(args, ctx) -> int:
    red = rimhook_reduce(args.lam, ctx)
    payload = {
        "vanished": red.vanished,
        "core": None if red.vanished else list(red.core.parts),
        "d": red.d,
        "sign": red.sign,
    }
    _emit(args, payload, format_terms([] if red.vanished else [(red.sign, red.d, red.core.parts)]))
    return 0


def _cmd_verify(args, ctx) -> int:
    report = verify.run(ctx, args.scope)
    lines = []
    for entry in report:
        lines.append(f"{'PASS' if entry['status'] == 'pass' else 'FAIL'} {entry['check']}")
        if "counterexample" in entry:
            lines.append(f"  counterexample: {entry['counterexample']}")
    _emit(args, report, "\n".join(lines))
    return 2 if any(entry["status"] != "pass" for entry in report) else 0


# The argparse settings of every option, and each command's handler, help and options after
# --k --n --format, in usage order.
OPTIONS = {
    "--k": dict(type=int, required=True),
    "--n": dict(type=int, required=True),
    "--format": dict(choices=("text", "json"), default="text"),
    "--lambda": dict(dest="lam", type=parse_partition, required=True),
    "--mu": dict(type=parse_partition, required=True),
    "--nu": dict(type=parse_partition, required=True),
    "--d": dict(type=int),
    "--nvars": dict(type=int, required=True),
    "--beta": dict(required=True, help="weight composition, comma separated"),
    "--backend": dict(choices=BACKENDS + ("all",), default="bcf"),
    "--scope": dict(choices=verify.SCOPES, default="all"),
}
COMMANDS = {
    "qprod": (_cmd_qprod, "quantum product of two basis classes", "--lambda --mu"),
    "gw": (_cmd_gw, "structure constant of a triple", "--lambda --nu --d --backend --mu"),
    "toric-schur": (
        _cmd_toric_schur, "Schur expansion of a cylindric shape", "--lambda --d --nvars --mu"
    ),
    "kostka": (_cmd_kostka, "cylindric tableau count for a weight", "--lambda --d --beta --mu"),
    "qpowers": (_cmd_qpowers, "q-power interval of a product", "--lambda --mu"),
    "reduce": (_cmd_reduce, "rim-hook reduction of one shape", "--lambda"),
    "verify": (_cmd_verify, "run identity suites exhaustively", "--scope"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgrass", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, names) in COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for name in ("--k", "--n", "--format", *names.split()):
            sub.add_argument(name, **OPTIONS[name])
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, GrassContext(args.k, args.n))
    except QGrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
