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
from .enumeration import _all_types, count_sd_type, count_so_type, total_counts
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
from .oracle import (
    BudgetError,
    CountReport,
    OracleBudget,
    brute_force_code_count,
    reproduce_table,
)
from .ringcodes import RingCode
from .tables import GOLDEN_TABLES

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

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


def _budget_from_args(args: argparse.Namespace) -> Optional[OracleBudget]:
    raw = getattr(args, "budget", None)
    if raw is None:
        return None
    return OracleBudget(max_candidates=raw, max_length=10**9, max_ring_bits=10**9)


def _type_str(lambdas: Sequence[int]) -> str:
    return ",".join(str(lam) for lam in lambdas)


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, ensure_ascii=False, indent=2)
    sys.stdout.write("\n")


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _report_payload(report: CountReport) -> Dict[str, object]:
    return {
        "query": report.query,
        "closed_form": str(report.closed_form),
        "brute_force": None if report.brute_force is None else str(report.brute_force),
        "elapsed": f"{report.elapsed:.3f}",
        "match": report.match,
    }


def _report_row(report: CountReport) -> List[str]:
    return [
        report.query,
        str(report.closed_form),
        "" if report.brute_force is None else str(report.brute_force),
        f"{report.elapsed:.3f}",
        "" if report.match is None else str(report.match).lower(),
    ]


_REPORT_HEADER = ["query", "closed_form", "brute_force", "elapsed", "match"]


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
    kind = "sd" if args.self_dual else "so"
    counter = count_sd_type if args.self_dual else count_so_type
    closed = counter(spec, args.n, lambdas)
    brute: Optional[int] = None
    if args.oracle:
        brute = brute_force_code_count(
            spec, args.n, lambdas, kind, budget=_budget_from_args(args)
        )
    match = None if brute is None else brute == closed
    payload = {
        "query": f"{format_ring_spec(spec)} n={args.n} type={_type_str(lambdas)} {kind}",
        "closed_form": str(closed),
        "oracle": None if brute is None else str(brute),
        "match": match,
    }
    if args.format == "csv":
        _emit_csv(
            ["type", "count", "oracle", "match"],
            [[
                _type_str(lambdas),
                str(closed),
                "" if brute is None else str(brute),
                "" if match is None else str(match).lower(),
            ]],
        )
    else:
        _emit_json(payload)
    return EXIT_OK if match is not False else EXIT_MISMATCH


def _cmd_table(args: argparse.Namespace) -> int:
    table = GOLDEN_TABLES[args.table]
    spec = preset(table.preset)
    rows = []
    for lambdas, _expected in table.rows:
        rows.append((lambdas, count_so_type(spec, table.n, lambdas)))
    if args.format == "json":
        _emit_json(
            {
                "table": args.table,
                "ring": format_ring_spec(spec),
                "n": table.n,
                "rows": [
                    {"type": list(lambdas), "count": str(count)}
                    for lambdas, count in rows
                ],
            }
        )
    else:
        _emit_csv(
            ["type", "count"],
            [[_type_str(lambdas), str(count)] for lambdas, count in rows],
        )
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
    if "preset" in doc:
        spec = preset(doc["preset"])
    elif "ring" in doc:
        spec = parse_ring_spec(doc["ring"])
    else:
        raise ValueError("chain description needs a 'preset' or 'ring' key")
    try:
        n = int(doc["n"])
        lambdas = tuple(int(x) for x in doc["type"])
        members_raw = doc["members"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"chain description is missing or malformed: {exc}")
    if len(lambdas) != spec.e:
        raise ValueError(
            f"type has {len(lambdas)} entries; ring depth is {spec.e}"
        )
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


def _member_entry(spec: ChainRingSpec, entry: object) -> int:
    """A chain member entry: a field bitmask in range(q), or field notation."""
    if isinstance(entry, str):
        return parse_field_elem(spec.gr, entry)
    if isinstance(entry, int) and not isinstance(entry, bool) and 0 <= entry < spec.q:
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
    rows = []
    ok = True
    for report, (lambdas, expected) in zip(reports, table.rows):
        row_ok = report.closed_form == expected and report.match is not False
        ok = ok and row_ok
        payload = _report_payload(report)
        payload["reference"] = str(expected)
        payload["row_ok"] = row_ok
        rows.append(payload)
    if args.format == "csv":
        _emit_csv(
            _REPORT_HEADER + ["reference", "row_ok"],
            [
                _report_row(report) + [row["reference"], str(row["row_ok"]).lower()]
                for report, row in zip(reports, rows)
            ],
        )
    else:
        _emit_json({"table": args.table, "all_match": ok, "rows": rows})
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    import random
    import time

    spec = _ring_from_args(args)
    kind = "sd" if args.self_dual else "so"
    counter = count_sd_type if args.self_dual else count_so_type
    if args.type:
        targets = [_parse_type(args.type, spec.e)]
    else:
        targets = list(_all_types(spec.e, args.n))
        if args.sample is not None:
            rng = random.Random(args.seed)
            targets = rng.sample(targets, min(args.sample, len(targets)))
    budget = _budget_from_args(args)
    reports = []
    ok = True
    for lambdas in targets:
        started = time.monotonic()
        closed = counter(spec, args.n, lambdas)
        brute: Optional[int] = None
        try:
            brute = brute_force_code_count(spec, args.n, lambdas, kind, budget=budget)
        except BudgetError:
            if args.type:
                raise
        match = None if brute is None else brute == closed
        ok = ok and match is not False
        reports.append(
            CountReport(
                query=f"{format_ring_spec(spec)} n={args.n} type={_type_str(lambdas)} {kind}",
                closed_form=closed,
                brute_force=brute,
                elapsed=time.monotonic() - started,
                match=match,
            )
        )
    if args.format == "csv":
        _emit_csv(_REPORT_HEADER, [_report_row(r) for r in reports])
    else:
        _emit_json([_report_payload(r) for r in reports])
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


# Building the parser costs far more than a closed-form count, so it is
# built on the first call and kept; importing the module stays cheap.
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
        return args.handler(args)
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
