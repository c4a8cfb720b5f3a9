"""Batch front-end: verify documents, enumerate trusses, chain transports.

Exit codes are uniform across subcommands: 0 when every check passes,
1 when the input parses but violates at least one defining law, 2 for
anything wrong with the input or invocation itself (unreadable file,
malformed JSON, unknown kind or step, dimension cap, enumeration
bound).  All output is deterministic; JSON output is canonical, so
identical inputs give byte-identical bytes on every run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import algfile
from .cocycle import InvertibleCocycle, cocycle_of_truss, truss_of_cocycle
from .errors import BoundExceededError, ParseError, TrussLabError
from .fields import RATIONALS, ascii_int
from .hopfmodules import TrussHopfModule, fundamental_iso
from .hopftruss import HopfTruss
from .report import VerificationReport, equation
from .settruss import (
    FiniteGroup,
    SkewTruss,
    check_enumeration_bound,
    cyclic_group,
    enumerate_skew_trusses,
    linearize,
    symmetric_group,
)

_STEP_ALIASES = {"E": "cocycle", "Q": "truss"}
_STEPS = ("verify", "linearize", "cocycle", "truss", "roundtrip", "fundamental")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return algfile.read_json(handle.read())


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    obj = algfile.parse_document(_read_json(args.path), kind=args.kind)
    rep = algfile.verify_structure(obj)
    if args.format == "json":
        sys.stdout.write(algfile.json_text(rep.to_dict()))
    else:
        print(rep)
    return 0 if rep.ok else 1


# -- enumerate ----------------------------------------------------------------


def _group_by_name(name: str, max_size: int) -> FiniteGroup:
    """The named group, refused by the enumeration bound before it is built."""
    match = re.fullmatch(r"Z([0-9]+)", name)
    if match:
        digits = match.group(1).lstrip("0") or "0"
        if len(digits) > len(str(max_size)):
            # Above the bound by its length alone; int() refuses long digit strings.
            size = digits if len(digits) <= 20 else f"of {len(digits)} digits"
            raise BoundExceededError(
                f"carrier size {size} exceeds enumeration bound {max_size}")
        n = int(digits)
        check_enumeration_bound(n, max_size)
        return cyclic_group(n)
    if name == "S3":
        return symmetric_group(3)
    try:
        doc = _read_json(name)
    except OSError:
        raise ParseError(f"unknown group {name!r}: not Zn, not S3, "
                         "and no such Cayley file") from None
    table = doc.get("table") if isinstance(doc, dict) else doc
    if not (isinstance(table, list) and table
            and all(isinstance(row, list) for row in table)):
        raise ParseError(f"Cayley file {name!r} must hold a table of rows "
                         "(bare, or under a \"table\" key)")
    check_enumeration_bound(len(table), max_size)
    for r, row in enumerate(table):
        for c, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError(f"Cayley file {name!r} entry [{r}][{c}] = "
                                 f"{json.dumps(x)} is not an integer")
    return FiniteGroup.from_table(table)


def cmd_enumerate(args) -> int:
    group = _group_by_name(args.group, args.max)
    trusses = enumerate_skew_trusses(group, max_size=args.max)
    text = algfile.json_text({
        "count": len(trusses),
        "group": args.group,
        "trusses": [algfile.document_of(t) for t in trusses],
    })
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- pipeline -----------------------------------------------------------------


def _truss_equality_report(current: HopfTruss, base: HopfTruss) -> VerificationReport:
    hopftruss = algfile.REGISTRY["hopftruss"]
    now, before = hopftruss.maps_of(current), hopftruss.maps_of(base)
    checks = tuple(
        equation(f"roundtrip.{name}", f"{name} returns unchanged from the transport",
                 now[name], before[name])
        for name in now)
    return VerificationReport("roundtrip", checks)


def _require(step: str, obj, want_type, want_name: str):
    if not isinstance(obj, want_type):
        raise ParseError(
            f"step {step!r} needs a {want_name}, have {algfile.kind_of(obj)!r}")


def cmd_pipeline(args) -> int:
    steps = [_STEP_ALIASES.get(s, s)
             for s in (part.strip() for part in args.steps.split(",")) if s]
    if not steps:
        raise ParseError("no steps given")
    unknown = [s for s in steps if s not in _STEPS]
    if unknown:
        raise ParseError(f"unknown steps {unknown}; choose from {list(_STEPS)} "
                         f"(aliases E={_STEP_ALIASES['E']}, Q={_STEP_ALIASES['Q']})")

    doc = _read_json(args.path)
    obj = algfile.parse_document(doc, kind=args.kind)
    entries = []

    def record(label: str, rep: VerificationReport, extra: dict | None = None) -> bool:
        entry = {"step": label, "kind": algfile.kind_of(obj), "pass": rep.ok,
                 "report": rep.to_dict()}
        entry.update(extra or {})
        entries.append((entry, rep))
        return rep.ok

    ok = record("input", algfile.verify_structure(obj))
    base_truss = None
    for step in steps:
        if not ok:
            break
        extra = None
        if step == "verify":
            rep = algfile.verify_structure(obj)
        elif step == "linearize":
            _require(step, obj, SkewTruss, "settruss")
            field = algfile.parse_field(doc["field"]) if "field" in doc else RATIONALS
            obj = linearize(obj, field)
            rep = algfile.verify_structure(obj)
        elif step == "cocycle":
            _require(step, obj, HopfTruss, "hopftruss")
            base_truss = obj
            obj = cocycle_of_truss(obj)
            rep = algfile.verify_structure(obj)
        elif step == "truss":
            _require(step, obj, InvertibleCocycle, "gic")
            obj = truss_of_cocycle(obj)
            rep = algfile.verify_structure(obj)
        elif step == "roundtrip":
            _require(step, obj, HopfTruss, "hopftruss")
            if base_truss is None:
                raise ParseError("step 'roundtrip' needs an earlier 'cocycle' step "
                                 "to compare against")
            rep = _truss_equality_report(obj, base_truss)
        else:
            _require(step, obj, TrussHopfModule, "trusshopfmodule")
            theta, _, rep = fundamental_iso(obj)
            extra = {"theta_shape": [theta.cod, theta.dom]}
        ok = record(step, rep, extra)

    if args.format == "json":
        sys.stdout.write(algfile.json_text({
            "pass": ok,
            "steps": [entry for entry, _ in entries],
        }))
    else:
        for entry, rep in entries:
            print(f"{entry['step']} [{entry['kind']}]: "
                  f"{'PASS' if entry['pass'] else 'FAIL'}")
            if "theta_shape" in entry:
                cod, dom = entry["theta_shape"]
                print(f"  theta: {cod} x {dom}")
            if not entry["pass"]:
                for line in rep.text_lines():
                    print("  " + line)
    return 0 if ok else 1


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusslab",
        description="Exact verification and transport of truss-type structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="check every defining law of a document")
    verify.add_argument("path", help="JSON document to check")
    verify.add_argument("--kind", choices=algfile.KINDS,
                        help="parse as this kind, overriding the document tag")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=cmd_verify)

    enum = sub.add_parser("enumerate",
                          help="list every skew truss over a fixed group")
    enum.add_argument("--group", required=True,
                      help="Zn, S3, or a JSON file holding a Cayley table")
    enum.add_argument("--max", type=ascii_int, default=6,
                      help="largest carrier size to attempt (default 6; "
                           "sizes above 7 are always refused)")
    enum.add_argument("--out", help="write the listing here instead of stdout")
    enum.set_defaults(func=cmd_enumerate)

    pipe = sub.add_parser("pipeline",
                          help="chain transports, verifying every stage")
    pipe.add_argument("path", help="JSON document to start from")
    pipe.add_argument("--steps", required=True,
                      help="comma-separated stages: linearize, cocycle (E), "
                               "truss (Q), roundtrip, verify, fundamental")
    pipe.add_argument("--kind", choices=algfile.KINDS,
                      help="parse as this kind, overriding the document tag")
    pipe.add_argument("--format", choices=("text", "json"), default="text")
    pipe.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (TrussLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
