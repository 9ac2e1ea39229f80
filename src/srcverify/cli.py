"""Command-line front end.

Subcommands mirror the service surface: verify a request file against a
chain fixture, query a stored record, strip metadata from a hex dump,
simulate a constructor, diff two codes, replay an attack scenario, lint a
profile's configuration, and filter a bytecode corpus for legacy-metadata
candidates.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

from .attacklab import (
    SCENARIOS,
    export_scenario_corpus,
    filter_r1_candidates,
    run_poc,
    scan_config,
)
from .bytecode import first_mismatch, parse_hex, render_hex
from .chain import MockChain
from .compiler import ExternalCompiler, VerificationRequest
from .errors import NoMatchError, VerifierError
from .matching import compare
from .metadata import scan_metadata, strip_spans
from .service import VerifyService, get_profile
from .simulator import HaltReason, execute_creation
from .store import RecordStore


def _add_world_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default="hardened",
                        help="verifier profile (default: hardened)")
    parser.add_argument("--chain", metavar="FIXTURE",
                        help="chain fixture file (default: empty chain)")
    parser.add_argument("--store", default="records", metavar="DIR",
                        help="record store directory (default: ./records)")


def _build_service(args) -> VerifyService:
    chain = MockChain.load_fixture(args.chain) if args.chain else MockChain()
    compiler = ExternalCompiler(shlex.split(args.compiler)) \
        if getattr(args, "compiler", None) else _RefusingCompiler()
    return VerifyService(get_profile(args.profile), compiler, chain,
                         RecordStore(args.store))


class _RefusingCompiler:
    def compile(self, sources, settings):
        raise VerifierError(
            "no compiler configured; pass --compiler '<command ...>'")


def _cmd_verify(args) -> int:
    request = VerificationRequest.from_json(Path(args.request).read_text(encoding="utf-8"))
    service = _build_service(args)
    record = service.submit_verification(request)
    print(json.dumps({
        "address": record.address,
        "grade": record.grade.value,
        "target": record.fully_qualified_target,
        "codeHash": "0x" + record.code_hash_at_verification.hex(),
        "warnings": record.warnings,
    }, indent=2))
    return 0


def _cmd_query(args) -> int:
    service = _build_service(args)
    view = service.query(args.address, strict=not args.lenient)
    print(json.dumps({
        "address": view.address,
        "grade": view.grade.value,
        "target": view.displayed_target,
        "sources": sorted(view.source_files),
        "warnings": list(view.warnings),
        "freshness": view.freshness.value if view.freshness else None,
    }, indent=2))
    return 0


def _cmd_strip_metadata(args) -> int:
    code = parse_hex(Path(args.hexfile).read_text(encoding="utf-8"))
    spans = scan_metadata(code)
    stripped = strip_spans(code, spans)
    if args.spans:
        print(json.dumps({
            "stripped": render_hex(stripped),
            "spans": [{"start": s.start, "end": s.end, "kind": s.kind.value}
                      for s in spans],
        }, indent=2))
    else:
        print(render_hex(stripped))
    return 0


def _cmd_simulate(args) -> int:
    creation = parse_hex(args.creation_hex)
    ctor_args = parse_hex(args.args) if args.args else b""
    result = execute_creation(creation, ctor_args)
    if result.halted is not HaltReason.RETURN:
        print(f"constructor halted with {result.halted.value} "
              f"after {result.steps} steps", file=sys.stderr)
        return 1
    print(render_hex(result.return_data))
    return 0


def _cmd_diff(args) -> int:
    a = parse_hex(args.hex_a)
    b = parse_hex(args.hex_b)
    try:
        compare(a, b, None, NoMatchError)
        equal_after_strip = True
    except NoMatchError:
        equal_after_strip = False
    print(json.dumps({
        "equal": a == b,
        "lengthA": len(a),
        "lengthB": len(b),
        "firstMismatch": first_mismatch(a, b),
        "equalAfterStrip": equal_after_strip,
        "spansA": [[s.start, s.end] for s in scan_metadata(a)],
        "spansB": [[s.start, s.end] for s in scan_metadata(b)],
    }, indent=2))
    return 0


def _cmd_poc(args) -> int:
    if args.scenario.lower() == "all":
        if not args.export:
            print("poc all requires --export DIR", file=sys.stderr)
            return 2
        written = export_scenario_corpus(args.export,
                                         profile=get_profile(args.profile))
        for directory in written:
            print(directory)
        return 0
    outcome = run_poc(args.scenario, args.profile, export_dir=args.export)
    payload = SCENARIOS[outcome.scenario_id].describe()
    payload["profile"] = outcome.profile
    payload["result"] = outcome.result
    payload["guards"] = list(outcome.guards)
    payload["evidence"] = outcome.evidence
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_scan_config(args) -> int:
    findings = scan_config(get_profile(args.profile))
    for flag, risk, note in findings:
        print(f"{risk}  {flag}: {note}")
    return 0


def _cmd_filter_r1(args) -> int:
    root = Path(args.corpus_dir)
    corpus = [(path.stem, parse_hex(path.read_text(encoding="utf-8")))
              for path in sorted(root.glob("*.hex"))]
    if not corpus:
        print(f"no *.hex files under {root}", file=sys.stderr)
        return 1
    for address, _ in filter_r1_candidates(corpus):
        print(address)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srcverify",
        description="source verification engine and attack lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a request file")
    p.add_argument("request", help="request JSON file")
    _add_world_options(p)
    p.add_argument("--compiler", metavar="CMD",
                   help="external compiler command (standard-JSON on stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("query", help="show a stored record")
    p.add_argument("address")
    _add_world_options(p)
    p.add_argument("--lenient", action="store_true",
                   help="serve stale records, stamped instead of refused")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("strip-metadata", help="remove metadata from a hex dump")
    p.add_argument("hexfile")
    p.add_argument("--spans", action="store_true",
                   help="also show the located spans as JSON")
    p.set_defaults(func=_cmd_strip_metadata)

    p = sub.add_parser("simulate", help="execute creation code locally")
    p.add_argument("creation_hex")
    p.add_argument("--args", metavar="HEX", help="constructor argument bytes")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diff", help="compare two bytecode hex strings")
    p.add_argument("hex_a")
    p.add_argument("hex_b")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("poc", help="replay an attack scenario")
    p.add_argument("scenario", help="R1..R8, or 'all' with --export")
    p.add_argument("--profile", default="hardened")
    p.add_argument("--export", metavar="DIR",
                   help="write chain fixture, requests, and manifest here")
    p.set_defaults(func=_cmd_poc)

    p = sub.add_parser("scan-config", help="lint a profile for unsafe toggles")
    p.add_argument("profile")
    p.set_defaults(func=_cmd_scan_config)

    p = sub.add_parser("filter-r1", help="filter a corpus of *.hex codes")
    p.add_argument("corpus_dir")
    p.set_defaults(func=_cmd_filter_r1)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VerifierError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
