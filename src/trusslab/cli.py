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
import re
import sys

from . import algfile
from .cocycle import cocycle_of_truss, roundtrip_report, truss_of_cocycle
from .errors import BoundExceededError, ParseError, TrussLabError
from .fields import RATIONALS, ascii_int
from .hopfmodules import fundamental_iso
from .report import VerificationReport, equation
from .settruss import (
    FiniteGroup,
    check_enumeration_bound,
    cyclic_group,
    enumerate_skew_trusses,
    linearize,
    symmetric_group,
)

_STEP_ALIASES = {"E": "cocycle", "Q": "truss"}
_ALIAS_TEXT = ", ".join(f"{alias}={step}" for alias, step in _STEP_ALIASES.items())


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
    """The named group, refused by the enumeration bound before it is built.
    A Cayley file's table is read as a document's tables are."""
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
    # json.loads makes exact dicts and lists
    table = doc.get("table") if type(doc) is dict else doc
    if not (type(table) is list and table
            and all(type(row) is list for row in table)):
        raise ParseError(f"Cayley file {name!r} must hold a table of rows "
                         "(bare, or under a \"table\" key)")
    check_enumeration_bound(len(table), max_size)
    return FiniteGroup.from_table(algfile.parse_table(name, table, len(table), len(table)))


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
#
# A step takes the current object and `run` (the input document, and the truss
# the last cocycle step consumed).  It gives the next object, its own report or
# None to verify the next object, and keys to add to the step's entry.


def _linearize(obj, run):
    doc = run["doc"]
    field = algfile.parse_field(doc["field"]) if "field" in doc else RATIONALS
    return linearize(obj, field), None, None


def _cocycle(obj, run):
    run["base"] = obj
    return cocycle_of_truss(obj), None, None


def _roundtrip(obj, run):
    if algfile.kind_of(obj) == "gic":
        return obj, roundtrip_report(obj), None
    if run["base"] is None:
        raise ParseError("step 'roundtrip' needs an earlier 'cocycle' step "
                         "to compare against")
    hopftruss = algfile.REGISTRY["hopftruss"]
    now, before = hopftruss.maps_of(obj), hopftruss.maps_of(run["base"])
    return obj, VerificationReport("roundtrip", tuple(
        equation(f"roundtrip.{name}", f"{name} returns unchanged from the transport",
                 now[name], before[name])
        for name in now)), None


def _fundamental(obj, run):
    theta, _, rep = fundamental_iso(obj)
    return obj, rep, {"theta_shape": [theta.cod, theta.dom]}


# step: (the document kinds it takes, none for any; what it does)
_STEPS = {
    "verify": ((), lambda obj, run: (obj, None, None)),
    "linearize": (("settruss",), _linearize),
    "cocycle": (("hopftruss",), _cocycle),
    "truss": (("gic",), lambda obj, run: (truss_of_cocycle(obj), None, None)),
    "roundtrip": (("hopftruss", "gic"), _roundtrip),
    "fundamental": (("trusshopfmodule",), _fundamental),
}


def cmd_pipeline(args) -> int:
    steps = [_STEP_ALIASES.get(s, s)
             for s in (part.strip() for part in args.steps.split(",")) if s]
    if not steps:
        raise ParseError("no steps given")
    unknown = [s for s in steps if s not in _STEPS]
    if unknown:
        raise ParseError(f"unknown steps {unknown}; choose from {list(_STEPS)} "
                         f"(aliases {_ALIAS_TEXT})")

    doc = _read_json(args.path)
    obj = algfile.parse_document(doc, kind=args.kind)
    run = {"doc": doc, "base": None}
    entries, ok = [], True
    for step in ("input", *steps):  # the input entry is a verify step's
        if not ok:
            break
        kinds, make = _STEPS["verify" if step == "input" else step]
        kind = algfile.kind_of(obj)
        if kinds and kind not in kinds:
            raise ParseError(f"step {step!r} needs a {' or '.join(kinds)}, have {kind!r}")
        obj, rep, extra = make(obj, run)
        rep = algfile.verify_structure(obj) if rep is None else rep
        ok = rep.ok
        entries.append(({"step": step, "kind": algfile.kind_of(obj), "pass": ok,
                         "report": rep.to_dict(), **(extra or {})}, rep))

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
                      help=f"comma-separated stages: {', '.join(_STEPS)} "
                           f"(aliases {_ALIAS_TEXT})")
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
        return exc.code or 0  # argparse exits with None or 0 after help, 2 on misuse
    try:
        return args.func(args)
    except (TrussLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
