"""Command-line front end.

Commands: ring-info, count, table, total, lift, verify, oracle-compare.
Counts are emitted as decimal strings so arbitrary-precision values
survive JSON round-trips; CSV tables use the column order (type, count).
Exit status: 0 when every requested check passes, 1 on a mismatch or a
construction dead-end, 2 on usage, parse, or budget errors.

The lift command reads a JSON chain description::

    {
      "preset": "R4,1",            // or "ring": "CR(2^2,1;3,1;1)"
      "n": 3,
      "type": [0, 1, 1, 1],        // full-depth row-count profile
      "members": [                  // innermost chain member first
        [],                         // list of generator rows per member
        [["1", "1", "0"]]           // row entries in residue-field notation
      ]
    }

Row entries may be residue-field strings ("0", "1", "ξ", "ξ^2", "x^2+1")
or plain bitmask integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .chain import (
    PRESET_NAMES,
    ChainRingSpec,
    cr_from_int,
    format_ring_spec,
    parse_ring_spec,
    preset,
    to_u_adic,
)
from .enumeration import _all_types, _check_length, total_counts
from .fieldcodes import make_field_code
from .galois import format_field_elem, parse_field_elem
from .lifting import (
    SOChain,
    construct_self_orthogonal,
    expected_chain_length,
    stage_count_formula,
    stage_plan,
    validate_chain,
)
from .oracle import BudgetError, OracleBudget, default_budget
from .ringcodes import RingCode
from .tables import GOLDEN_TABLES, CountReport, compare_count, reproduce_table

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
_json_scalar = json.JSONEncoder(ensure_ascii=False).encode

def _ring_from_args(args: argparse.Namespace) -> ChainRingSpec:
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "ring", None):
        return parse_ring_spec(args.ring)
    raise ValueError("a ring is required: pass --preset or --ring")


def _parse_type(text: str, e: int) -> Tuple[int, ...]:
    try:
        lambdas = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse type {text!r}; expected e.g. 0,1,0,0")
    if len(lambdas) != e:
        raise ValueError(
            f"type {text!r} has {len(lambdas)} entries; the ring needs {e}"
        )
    if any(lam < 0 for lam in lambdas):
        raise ValueError(f"type {text!r} has a negative entry")
    return lambdas


def _compare(
    args: argparse.Namespace, spec: ChainRingSpec, lambdas: Sequence[int], **opts
) -> CountReport:
    """compare_count for count and oracle-compare, which share --n,
    --self-dual and --budget and one query string."""
    kind = "sd" if args.self_dual else "so"
    return compare_count(
        f"{format_ring_spec(spec)} n={args.n} type={_type_str(lambdas)} {kind}",
        spec, args.n, lambdas, kind, budget=_budget_from_args(args), **opts,
    )


def _budget_from_args(args: argparse.Namespace) -> OracleBudget:
    """--budget, else CHAINCODES_BUDGET, read before any work so a
    malformed variable is refused even when no recount runs."""
    return default_budget() if args.budget is None else OracleBudget.lifted(args.budget)


def _type_str(lambdas: Sequence[int]) -> str:
    return ",".join(str(lam) for lam in lambdas)


def _emit_json(payload) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _json_text(value, depth: int = 0) -> str:
    """json.dumps(value, ensure_ascii=False, indent=2), byte for byte, for str or int keys.
    The library's indenting encoder leaves a reference cycle on every call, and
    that garbage made the cyclic collector's full passes land inside queries."""
    if not value or not isinstance(value, (dict, list, tuple)):
        return _json_scalar(value)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        items = [f"{pad}{_json_text(str(k))}: {_json_text(v, depth + 1)}" for k, v in value.items()]
        return "{" + ",".join(items) + pad[:-2] + "}"
    return "[" + ",".join(pad + _json_text(v, depth + 1) for v in value) + pad[:-2] + "]"


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _report_row(report: CountReport) -> List[str]:
    return [
        report.query,
        str(report.closed_form),
        "" if report.brute_force is None else str(report.brute_force),
        f"{report.elapsed:.3f}",
        "" if report.match is None else str(report.match).lower(),
    ]


_REPORT_HEADER = ["query", "closed_form", "brute_force", "elapsed", "match"]


def _report_payload(report: CountReport) -> Dict[str, object]:
    """The CSV row as JSON: a recount that did not run is null, match a bool."""
    row = dict(zip(_REPORT_HEADER, _report_row(report)))
    return dict(row, brute_force=row["brute_force"] or None, match=report.match)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_ring_info(args: argparse.Namespace) -> int:
    spec = _ring_from_args(args)
    gr = spec.gr
    two = [format_field_elem(gr, d) for d in to_u_adic(spec, cr_from_int(spec, 2))]
    info = {
        "ring": format_ring_spec(spec),
        "s": gr.s,
        "m": gr.m,
        "kappa": spec.kappa,
        "t": spec.t,
        "depth": spec.e,
        "residue_field_size": str(spec.q),
        "size": str(spec.size()),
        "chain_members": expected_chain_length(spec),
        "two_as_u_adic": two,
        "stage_plan": [
            {"level": level, "regime": tag} for level, tag in stage_plan(spec)
        ],
    }
    if args.format == "csv":
        rows = []
        for key, value in info.items():
            if key == "stage_plan":
                value = ";".join(f"{st['level']}:{st['regime']}" for st in value)
            elif key == "two_as_u_adic":
                value = ";".join(value)
            rows.append([key, str(value)])
        _emit_csv(["field", "value"], rows)
    else:
        _emit_json(info)
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    spec = _ring_from_args(args)
    lambdas = _parse_type(args.type, spec.e)
    report = _compare(args, spec, lambdas, recount=args.oracle)
    _, closed, brute, _, match = _report_row(report)
    if args.format == "csv":
        row = [_type_str(lambdas), closed, brute, match]
        _emit_csv(["type", "count", "oracle", "match"], [row])
    else:
        _emit_json(
            {
                "query": report.query,
                "closed_form": closed,
                "oracle": brute or None,  # "" when the recount did not run
                "match": report.match,
            }
        )
    return EXIT_OK if report.match is not False else EXIT_MISMATCH


def _cmd_table(args: argparse.Namespace) -> int:
    table = GOLDEN_TABLES[args.table]
    reports = reproduce_table(args.table, with_oracle=False)
    rows = [(lambdas, str(r.closed_form)) for (lambdas, _), r in zip(table.rows, reports)]
    if args.format == "json":
        _emit_json(
            {
                "table": args.table,
                "ring": format_ring_spec(preset(table.preset)),
                "n": table.n,
                "rows": [{"type": list(lambdas), "count": count} for lambdas, count in rows],
            }
        )
    else:
        _emit_csv(["type", "count"], [[_type_str(lambdas), count] for lambdas, count in rows])
    return EXIT_OK


def _cmd_total(args: argparse.Namespace) -> int:
    spec = _ring_from_args(args)
    so, sd = total_counts(spec, args.n)
    if args.format == "csv":
        _emit_csv(
            ["kind", "count"],
            [["self_orthogonal", str(so)], ["self_dual", str(sd)]],
        )
    else:
        _emit_json(
            {
                "query": f"{format_ring_spec(spec)} n={args.n}",
                "self_orthogonal": str(so),
                "self_dual": str(sd),
            }
        )
    return EXIT_OK


def _parse_chain_file(path: str) -> Tuple[ChainRingSpec, int, Tuple[int, ...], SOChain]:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    doc = json.loads(raw)
    if not isinstance(doc, dict):
        raise ValueError("chain description must be a JSON object")
    key = "preset" if "preset" in doc else "ring"
    if key not in doc:
        raise ValueError("chain description needs a 'preset' or 'ring' key")
    if not isinstance(doc[key], str):
        raise ValueError(f"chain description's {key!r} must be a string")
    spec = preset(doc[key]) if key == "preset" else parse_ring_spec(doc[key])
    try:
        n, lambdas, members_raw = doc["n"], tuple(doc["type"]), doc["members"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"chain description is missing or malformed: {exc}")
    if not _is_int(n):
        raise ValueError(f"chain description's 'n' (the code length) must be an integer, got {n!r}")
    _check_length(n)
    if not all(_is_int(x) and x >= 0 for x in lambdas):
        raise ValueError(
            f"chain description's 'type' entries must be nonnegative integers, got {list(lambdas)}"
        )
    if len(lambdas) != spec.e:
        raise ValueError(
            f"type has {len(lambdas)} entries; ring depth is {spec.e}"
        )
    if not isinstance(members_raw, list) or not all(isinstance(m, list) for m in members_raw):
        raise ValueError("chain members must be an array of arrays of rows")
    members = []
    for rows_raw in members_raw:
        rows = []
        for row in rows_raw:
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise ValueError("chain member rows must be length-n arrays")
            rows.append(tuple(_member_entry(spec, entry) for entry in row))
        members.append(make_field_code(spec.gr, n, rows))
    chain = SOChain(ring=spec, n=n, codes=tuple(members))
    return spec, n, lambdas, chain


def _is_int(value: object) -> bool:
    """Whether a JSON value is an integer (JSON true and false are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _member_entry(spec: ChainRingSpec, entry: object) -> int:
    """A chain member entry: a field bitmask in range(q), or field notation."""
    if isinstance(entry, str):
        return parse_field_elem(spec.gr, entry)
    if _is_int(entry) and 0 <= entry < spec.q:
        return entry
    raise ValueError(
        f"chain member entry {entry!r} is not an element of the residue field of "
        f"size {spec.q} (an integer bitmask below {spec.q} or a string such as \"ξ^2\")"
    )


def _generator_payload(code: RingCode) -> Dict[str, object]:
    spec = code.ring
    blocks = []
    for h in range(1, len(code.profile) + 1):
        rows = [
            [
                [format_field_elem(spec.gr, d) for d in to_u_adic(spec, x)[: code.precision(h)]]
                for x in row
            ]
            for row in code.block_rows[h - 1]
        ]
        blocks.append(
            {
                "u_power": code.u_power(h),
                "pivots": list(code.pivots[h - 1]),
                "rows": rows,
            }
        )
    return {
        "level": code.level,
        "n": code.n,
        "type": list(code.profile),
        "size": str(code.size()),
        "blocks": blocks,
    }


def _cmd_lift(args: argparse.Namespace) -> int:
    spec, n, lambdas, chain = _parse_chain_file(args.chain)
    problems = validate_chain(chain)
    if problems:
        _emit_json({"error": "invalid chain", "problems": problems})
        return EXIT_MISMATCH
    stages = []
    for level, tag in stage_plan(spec):
        count = stage_count_formula(spec, n, lambdas, chain.contains_one, level)
        stages.append({"level": level, "regime": tag, "count": str(count)})
    try:
        code = construct_self_orthogonal(chain, lambdas)
    except ValueError as exc:
        _emit_json({"error": str(exc), "stages": stages})
        return EXIT_MISMATCH
    _emit_json(
        {
            "ring": format_ring_spec(spec),
            "n": n,
            "type": list(lambdas),
            "stages": stages,
            "generator": _generator_payload(code),
        }
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    table = GOLDEN_TABLES[args.table]
    reports = reproduce_table(
        args.table,
        with_oracle=not args.no_oracle,
        max_oracle_count=args.max_oracle,
        budget=_budget_from_args(args),
    )
    rows = [
        (report, str(expected), report.closed_form == expected and report.match is not False)
        for report, (_, expected) in zip(reports, table.rows)
    ]
    ok = all(row_ok for _, _, row_ok in rows)
    if args.format == "csv":
        _emit_csv(
            _REPORT_HEADER + ["reference", "row_ok"],
            [_report_row(r) + [ref, str(row_ok).lower()] for r, ref, row_ok in rows],
        )
    else:
        payloads = [
            dict(_report_payload(r), reference=ref, row_ok=row_ok) for r, ref, row_ok in rows
        ]
        _emit_json({"table": args.table, "all_match": ok, "rows": payloads})
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    import random

    spec = _ring_from_args(args)
    if args.type:
        targets = [_parse_type(args.type, spec.e)]
    else:
        targets = list(_all_types(spec.e, args.n))
        if args.sample is not None:
            rng = random.Random(args.seed)
            targets = rng.sample(targets, min(args.sample, len(targets)))
    reports = [_compare(args, spec, lambdas, strict=bool(args.type)) for lambdas in targets]
    if args.format == "csv":
        _emit_csv(_REPORT_HEADER, [_report_row(r) for r in reports])
    else:
        _emit_json([_report_payload(r) for r in reports])
    return EXIT_OK if all(r.match is not False for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


# Building the parser costs far more than a closed-form count, so it is
# built on the first call and kept; importing the module stays cheap.
# reuse: 18,100 hits, 1 miss per 8 s of closed_form (seed 3)
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincodes",
        description="Self-orthogonal and self-dual codes over chain rings "
        "of even characteristic: counting, table reproduction, lifting, "
        "and brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring_args = argparse.ArgumentParser(add_help=False)
    group = ring_args.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES, help="built-in example ring")
    group.add_argument("--ring", help="ring spec string CR(2^s,m;kappa,t;g)")

    def fmt_args(default: str = "json") -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(
            "--format", choices=("json", "csv"), default=default, help="output format"
        )
        return parent

    budget_args = argparse.ArgumentParser(add_help=False)
    budget_args.add_argument(
        "--budget",
        type=int,
        help="candidate ceiling for exhaustive searches (also lifts the "
        "desk-scale guards, like the CHAINCODES_BUDGET variable)",
    )

    p = sub.add_parser(
        "ring-info", parents=[ring_args, fmt_args()], help="describe a chain ring"
    )
    p.set_defaults(handler=_cmd_ring_info)

    p = sub.add_parser(
        "count",
        parents=[ring_args, fmt_args(), budget_args],
        help="count codes of one type by the closed forms",
    )
    p.add_argument("--n", type=int, required=True, help="code length")
    p.add_argument("--type", required=True, help="comma-separated type, e.g. 0,1,0,0")
    p.add_argument("--self-dual", action="store_true", help="count self-dual codes")
    p.add_argument(
        "--oracle", action="store_true", help="also recount exhaustively and compare"
    )
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "table", parents=[fmt_args("csv")], help="reproduce a built-in reference table"
    )
    p.add_argument(
        "--table", type=int, required=True, choices=sorted(GOLDEN_TABLES), help="table number"
    )
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser(
        "total",
        parents=[ring_args, fmt_args()],
        help="total self-orthogonal and self-dual counts for one length",
    )
    p.add_argument("--n", type=int, required=True, help="code length")
    p.set_defaults(handler=_cmd_total)

    p = sub.add_parser(
        "lift",
        help="construct a self-orthogonal code from a JSON chain description",
    )
    p.add_argument(
        "--chain", required=True, help="path to the JSON chain description, or - for stdin"
    )
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser(
        "verify",
        parents=[fmt_args(), budget_args],
        help="check a reference table against the closed forms and the oracle",
    )
    p.add_argument(
        "--table", type=int, required=True, choices=sorted(GOLDEN_TABLES), help="table number"
    )
    p.add_argument(
        "--no-oracle", action="store_true", help="skip the exhaustive recount"
    )
    p.add_argument(
        "--max-oracle",
        type=int,
        help="skip the oracle on rows whose closed-form count exceeds this",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "oracle-compare",
        parents=[ring_args, fmt_args(), budget_args],
        help="closed forms vs exhaustive recounts, type by type",
    )
    p.add_argument("--n", type=int, required=True, help="code length")
    p.add_argument("--type", help="single comma-separated type; default sweeps all")
    p.add_argument("--self-dual", action="store_true", help="compare self-dual counts")
    p.add_argument(
        "--sample", type=int, help="compare only this many randomly chosen types"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --sample")
    p.set_defaults(handler=_cmd_oracle_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        for flag in ("budget", "max_oracle", "sample"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be nonnegative, got {value}")
        return args.handler(args)
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
