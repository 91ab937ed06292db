"""Command-line interface: enum, correspond, table42, verify, model.

Exit codes: 0 success, 1 check failure, 2 usage error (including a group order
outside the catalog or an isomorphism search beyond its bound).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import CATALOG, catalog_group
from .dsl import build_group
from .errors import EnumerationOverflow, GroupSpecError, HgwError, UncoveredOrder
from .report import (
    FORMATS,
    emit_enum_table,
    model_report,
    run_fixture_paper24,
    write_table42,
)


def _add_format(parser: argparse.ArgumentParser, default: str = "md") -> None:
    parser.add_argument("--format", choices=FORMATS, default=default,
                        help=f"output format (default {default})")
    parser.add_argument("--json", action="store_const", const="json", dest="format",
                        help="shorthand for --format json")
    parser.add_argument("--csv", action="store_const", const="csv", dest="format",
                        help="shorthand for --format csv")


def _emit(doc_text: str, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(doc_text, encoding="utf-8")
    else:
        sys.stdout.write(doc_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgw",
        description="Hopf-Galois structure workbench: enumeration, correspondence "
                    "census, finite-field descent checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enum", help="enumerate Hopf-Galois structures for a group")
    p_enum.add_argument("--group", required=True, help="group expression, e.g. 'D21'")
    p_enum.add_argument("--out", help="write to this file instead of stdout")
    _add_format(p_enum)

    p_corr = sub.add_parser("correspond", help="census of (N, P, Psi(P)) triples")
    p_corr.add_argument("--group", required=True)
    p_corr.add_argument("--out", help="write to this file instead of stdout")
    _add_format(p_corr)

    p_t42 = sub.add_parser("table42", help="emit the degree-42 matrix and all six tables")
    p_t42.add_argument("--out", default="tables", help="output directory (default ./tables)")
    _add_format(p_t42)

    p_verify = sub.add_parser("verify", help="run a bundled verification fixture")
    p_verify.add_argument("--fixture", choices=["paper24"], required=True)
    p_verify.add_argument("--out", help="write the report to this file")
    _add_format(p_verify)

    p_model = sub.add_parser("model", help="finite-field descent checks over F_{p^n}")
    p_model.add_argument("--p", type=int, default=11, help="prime characteristic (default 11)")
    p_model.add_argument("--n", type=int, default=6, help="extension degree (default 6)")
    p_model.add_argument("--checks", default="all",
                         choices=["all", "fix", "rank", "exact", "fixedsum"])
    p_model.add_argument("--out", help="write the report to this file")
    _add_format(p_model)

    return parser


def _parse_group(parser: argparse.ArgumentParser, spec: str):
    """A group expression, or else a catalog class name such as ``SL(2,3)``."""
    try:
        return build_group(spec)
    except GroupSpecError as exc:
        if any(spec == name for entries in CATALOG.values() for name, _ in entries):
            return catalog_group(spec)
        parser.error(f"--group: {exc}")  # exits 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "enum":
            group = _parse_group(parser, args.group)
            doc = emit_enum_table(group, args.format)
            _emit(doc.render(), args.out)
        elif args.command == "correspond":
            group = _parse_group(parser, args.group)
            from .correspond import correspondence_rows
            from .enumeration import enumerate_hgs
            from .report import correspondence_table_doc

            records = enumerate_hgs(group)
            rows = correspondence_rows(group, records)
            doc = correspondence_table_doc(rows, args.format)
            _emit(doc.render(), args.out)
        elif args.command == "table42":
            written = write_table42(args.out, args.format)
            sys.stdout.write("\n".join(written) + "\n")
        elif args.command == "verify":
            doc = run_fixture_paper24(args.format)
            _emit(doc.render(), args.out)
        elif args.command == "model":
            checks = ("fix", "rank", "exact", "fixedsum") if args.checks == "all" else (args.checks,)
            doc = model_report(args.p, args.n, checks, args.format)
            _emit(doc.render(), args.out)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
    except (UncoveredOrder, EnumerationOverflow) as exc:
        covered = ", ".join(str(order) for order in sorted(CATALOG))
        sys.stderr.write(f"usage error: {exc} (covered orders: {covered})\n")
        return 2
    except GroupSpecError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except HgwError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
