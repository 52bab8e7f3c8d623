"""Command line front end: products, invariants, expansions, verification.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import QGrassError
from .niltl import verify_relations
from .partitions import (
    GrassContext,
    box_partitions_by_size,
    enumerate_pkn,
    format_terms,
    parse_partition,
)
from .quantum import (
    giambelli_class,
    gw_invariant,
    quantum_product,
    rimhook_reduce,
    schubert_class,
)
from .schur import lr_coefficient, toric_schur_expand
from .symmetry import (
    check_strange_duality_pair,
    dmin_dmax,
    hidden_symmetry_sweep,
    q_power_set,
    s3_symmetry_sweep,
    strange_duality,
)
from .tableaux import quantum_kostka

BACKENDS = ("bcf", "toric", "niltl")
# Bounds toric-schur's work: the coefficient of s_nu runs over up to 2^len(nu) column sets.
MAX_NVARS = 16
# Bounds verify's relation suite: eh_op composes all 2^n - 2 cyclic words over N classes.
MAX_RELATION_WORK = 2**20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _context(args) -> GrassContext:
    return GrassContext(args.k, args.n)


def _add_common(sub, *, nvars=False, d=False, nu=False, beta=False, backend=False):
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--lambda", dest="lam", type=parse_partition, required=True)
    if nu or backend:
        sub.add_argument("--nu", type=parse_partition, required=nu)
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


def _cmd_gw(args) -> int:
    ctx = _context(args)
    mu, nu, lam = args.mu, args.nu, args.lam
    if args.d is not None:
        degrees = [args.d]
    else:
        num = mu.size + nu.size - lam.size
        q, r = divmod(num, ctx.n)
        degrees = [q] if (r == 0 and q >= 0) else []
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


def _feasible_degrees(ctx, total: int) -> list[int]:
    degrees = []
    for d in range(total // ctx.n + 1):
        if 0 <= total - d * ctx.n <= ctx.k * ctx.cols:
            degrees.append(d)
    return degrees


def _basis_pairs(ctx) -> list[tuple]:
    basis = enumerate_pkn(ctx)
    return [(lam, mu) for i, lam in enumerate(basis) for mu in basis[i:]]


def _check_backends(ctx) -> bool:
    def pair_ok(mu, nu) -> bool:
        for d in _feasible_degrees(ctx, mu.size + nu.size):
            for lam in box_partitions_by_size(ctx, mu.size + nu.size - d * ctx.n):
                values = [gw_invariant(mu, nu, lam, d, ctx, b) for b in BACKENDS]
                if len(set(values)) != 1 or values[0] < 0:
                    return False
        return True

    return all(pair_ok(*pair) for pair in _basis_pairs(ctx))


def _check_s3(ctx) -> bool:
    return s3_symmetry_sweep(ctx) is None


def _check_hidden(ctx) -> bool:
    return hidden_symmetry_sweep(ctx) is None


def _check_strange(ctx) -> bool:
    return all(check_strange_duality_pair(*pair, ctx) for pair in _basis_pairs(ctx))


def _check_dtilde(ctx) -> bool:
    def pair_ok(lam, mu) -> bool:
        a, b = schubert_class(lam, ctx), schubert_class(mu, ctx)
        return strange_duality(quantum_product(a, b)) == quantum_product(
            strange_duality(a), strange_duality(b)
        )

    return all(pair_ok(*pair) for pair in _basis_pairs(ctx))


def _check_intervals(ctx) -> bool:
    def pair_ok(lam, mu) -> bool:
        try:
            interval = dmin_dmax(lam, mu, ctx)
        except QGrassError:
            return False
        powers = q_power_set(lam, mu, ctx)
        return bool(powers) and powers == set(interval.members())

    return all(pair_ok(*pair) for pair in _basis_pairs(ctx))


def _check_classical(ctx) -> bool:
    def pair_ok(lam, mu) -> bool:
        product = quantum_product(schubert_class(lam, ctx), schubert_class(mu, ctx))
        for nu in box_partitions_by_size(ctx, lam.size + mu.size):
            if product.coefficient(nu, 0) != lr_coefficient(lam, mu, nu):
                return False
        return all(c >= 0 for c in product.terms.values())

    return all(pair_ok(*pair) for pair in _basis_pairs(ctx))


def _check_giambelli(ctx) -> bool:
    return all(
        giambelli_class(lam, ctx) == schubert_class(lam, ctx) for lam in enumerate_pkn(ctx)
    )


def _cmd_verify(args) -> int:
    ctx = _context(args)
    if ctx.num_classes > args.cap:
        raise QGrassError(
            f"basis has {ctx.num_classes} elements, above the cap {args.cap}"
        )
    work = 2**ctx.n * ctx.num_classes
    if args.scope in ("relations", "all") and work > MAX_RELATION_WORK:
        raise QGrassError(
            f"relation suite: 2^n * N = {work} is above the bound 2^20 = {MAX_RELATION_WORK}"
        )
    report: list[dict[str, str]] = []
    if args.scope in ("relations", "all"):
        report.extend(verify_relations(ctx))
    suites = {
        "backends": [("backend_agreement_and_nonnegativity", _check_backends)],
        "symmetries": [
            ("s3_symmetry", _check_s3),
            ("hidden_cyclic_symmetry", _check_hidden),
            ("strange_duality_transport", _check_strange),
            ("strange_duality_multiplicative", _check_dtilde),
        ],
        "intervals": [("q_power_interval", _check_intervals)],
        "classical": [
            ("classical_limit", _check_classical),
            ("giambelli", _check_giambelli),
        ],
    }
    selected: list[tuple[str, object]] = []
    if args.scope == "all":
        for group in suites.values():
            selected.extend(group)
    elif args.scope in suites:
        selected.extend(suites[args.scope])
    for name, fn in selected:
        ok = fn(ctx)
        report.append({"check": name, "status": "pass" if ok else "fail"})
    failed = any(entry["status"] != "pass" for entry in report)
    if args.format == "json":
        _emit_json(report)
    else:
        for entry in report:
            print(f"{'PASS' if entry['status'] == 'pass' else 'FAIL'} {entry['check']}")
    return 2 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qgrass", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("qprod", help="quantum product of two basis classes")
    _add_common(sub)
    sub.add_argument("--mu", type=parse_partition, required=True)
    sub.set_defaults(func=_cmd_qprod)

    sub = subs.add_parser("gw", help="structure constant of a triple")
    _add_common(sub, d=True, nu=True, backend=True)
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
    sub.add_argument("--cap", type=int, default=500)
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
