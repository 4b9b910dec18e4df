"""Command-line surface: asymp, compare, validate.

Exit codes: 0 success, 1 validation failure or an oracle refusal (no
CSV is written then), 2 usage error.  JSON
documents carry a "schema": "twin-gap/1" field; CSV uses '.' decimals,
17 significant digits, and a mandatory header row, so identical configs
reproduce byte-identical output.

TWIN_GAP_THREADS caps BLAS parallelism (default: all cores).
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _parse_gap(args) -> "GapPair":
    from .elliptic import GapPair
    from .errors import DomainError
    if args.v1 is None or args.v2 is None:
        raise DomainError("both --v1 and --v2 are required")
    if not args.v1 < args.v2:
        raise DomainError("v1 must be < v2")
    return GapPair(args.v1, args.v2)


def cmd_asymp(args) -> int:
    from .asymptotics import expand, expansion_one_gap
    from .errors import TwinGapError

    try:
        if args.onegap:
            breakdown = expansion_one_gap(args.s)
        else:
            breakdown = expand(args.s, _parse_gap(args), args.regime)
    except TwinGapError as exc:
        return _usage_error(str(exc))

    d = breakdown.as_dict()
    if args.format == "json":
        doc = {"schema": "twin-gap/1", "command": "asymp", "s": args.s,
               "v1": args.v1, "v2": args.v2, **d}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        keys = ["leading_s2", "log_s_term", "theta_term", "constant_term", "total"]
        lines = [",".join(["s"] + keys + ["regime"]),
                 ",".join([_fmt(args.s)] + [_fmt(d[k]) for k in keys]
                          + [d["regime"]])]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        rows = [f"regime        {d['regime']}",
                f"leading_s2    {_fmt(d['leading_s2'])}",
                f"log_s_term    {_fmt(d['log_s_term'])}",
                f"theta_term    {_fmt(d['theta_term'])}",
                f"constant_term {_fmt(d['constant_term'])}",
                f"total         {_fmt(d['total'])}"]
        if d["error_order"]:
            rows.append(f"error_order   {d['error_order']}")
        for w in d["warnings"]:
            rows.append(f"warning       {w}")
        _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    from .asymptotics import expansion_one_gap, expansion_two_gap
    from .errors import TwinGapError
    from .oracle import _START_NODES, fredholm_logdet

    try:
        svals = [float(tok) for tok in args.s_values.split(",") if tok.strip()]
    except ValueError as exc:
        return _usage_error(f"bad --s-values: {exc}")
    if not svals:
        return _usage_error("empty s-range")
    if any(s <= 0 for s in svals):
        return _usage_error("s values must be positive")
    if not all(math.isfinite(s) for s in svals):
        return _usage_error("s values must be finite")
    if args.max_nodes < _START_NODES:
        return _usage_error(f"--max-nodes must be at least {_START_NODES}")
    try:
        if args.onegap:
            intervals = [(-1.0, 1.0)]
            asym = [expansion_one_gap(s).total for s in svals]
        else:
            gap = _parse_gap(args)
            intervals = [(-1.0, gap.v1), (gap.v2, 1.0)]
            asym = [expansion_two_gap(s, gap).total for s in svals]
    except TwinGapError as exc:
        return _usage_error(str(exc))

    lines = ["s,asym_total,oracle_logdet,difference,oracle_error_estimate,unreliable_flag"]
    for s, pred in zip(svals, asym):
        try:
            res = fredholm_logdet(s, intervals, max_nodes=args.max_nodes)
        except TwinGapError as exc:
            sys.stderr.write(f"error: oracle refused: {exc}\n")
            return 1
        lines.append(",".join([
            _fmt(s), _fmt(pred), _fmt(res.log_det),
            _fmt(pred - res.log_det), _fmt(res.error_estimate),
            "1" if res.unreliable else "0"]))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_validate(args) -> int:
    from .errors import TwinGapError
    from .identities import SUITE_NAMES, run_suite

    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return _usage_error(f"--tol must be finite and positive, got {args.tol}")
    if args.suite not in SUITE_NAMES:
        return _usage_error(f"unknown suite {args.suite!r}; "
                            f"choose from {', '.join(SUITE_NAMES)}")
    try:
        reports = run_suite(args.suite, fine=(args.grid == "fine"))
    except TwinGapError as exc:
        return _usage_error(str(exc))

    worst: dict[str, dict] = {}
    for rep in reports:
        tol = rep.tolerance if args.tol is None else args.tol
        entry = worst.setdefault(rep.identity_id, {
            "worst_residual": 0.0, "tolerance": tol,
            "checks": 0, "failures": 0, "worst_inputs": {}})
        entry["checks"] += 1
        if rep.residual >= entry["worst_residual"]:
            entry["worst_residual"] = rep.residual
            entry["worst_inputs"] = rep.inputs
        if not rep.residual < tol:
            entry["failures"] += 1
    ok = all(e["failures"] == 0 for e in worst.values())
    doc = {"schema": "twin-gap/1", "command": "validate", "suite": args.suite,
           "grid": args.grid, "ok": ok,
           "identities": {k: worst[k] for k in sorted(worst)}}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twingap",
        description="Two-gap sine-kernel determinant asymptotics and oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asymp", help="evaluate an asymptotic expansion")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--v1", type=float)
    p.add_argument("--v2", type=float)
    p.add_argument("--onegap", action="store_true",
                   help="single gap (-1,1); ignores --v1/--v2")
    p.add_argument("--regime", default="auto",
                   choices=["auto", "FixedTwoGap", "OneGap", "Merging",
                            "MergingLimit", "Separating"])
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const",
                     const="json", default="text")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_asymp)

    p = sub.add_parser("compare", help="asymptotics vs the Nystrom oracle (CSV)")
    p.add_argument("--s-values", required=True,
                   help="comma-separated list, e.g. 4,6,8")
    p.add_argument("--v1", type=float)
    p.add_argument("--v2", type=float)
    p.add_argument("--onegap", action="store_true")
    p.add_argument("--max-nodes", type=int, default=800)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="run identity residual suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--grid", default="coarse", choices=["coarse", "fine"])
    p.add_argument("--tol", type=float, default=None,
                   help="override every per-identity tolerance "
                        "(finite and positive)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
