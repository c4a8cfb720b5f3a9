"""Re-measure the ROADMAP baseline rows with the benchmark's clock.

    python3 bench/reference.py

Prints one markdown table row per path and size: the wall time of one
call, and the same time at the benchmark's nominal machine speed (see
README.md, "Steadiness").  Also prints the line count of src/trusslab.
The slowest rows (classifying Z6 and S3) take minutes.
"""

from __future__ import annotations

import sys
import time

import run

run.load_trusslab()

from trusslab import (RATIONALS, cocycle_of_truss, cyclic_group, enumerate_skew_trusses,  # noqa: E402
                      fundamental_iso, induction_functor, isomorphism_classes, linearize,
                      roundtrip_report, solve_antipode, symmetric_group, verify_hopf_truss)
from trusslab.settruss import trivial_truss  # noqa: E402


def group(name):
    return symmetric_group(3) if name == "S3" else cyclic_group(int(name[1:]))


def truss(name):
    return linearize(trivial_truss(group(name)), RATIONALS)


def timed(fn):
    cals = [run.calibration_pass() for _ in range(5)]
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    cals += [run.calibration_pass() for _ in range(5)]
    return out, wall, wall * run.speed(cals)


def main() -> int:
    print("| path | size | wall s | nominal s |")
    print("|---|---|---|---|")

    def row(path, size, fn):
        out, wall, nominal = timed(fn)
        print(f"| {path} | {size} | {wall:.3f} | {nominal:.3f} |", flush=True)
        return out

    for n in ("Z4", "Z6", "Z8"):
        h = truss(n)
        row("verify_hopf_truss (trivial truss, Q)", n, lambda: verify_hopf_truss(h))
    for n in ("Z4", "Z6"):
        h = truss(n)
        row("fundamental_iso(induction_functor(h, 2))", n,
            lambda: fundamental_iso(induction_functor(h, 2)))
    for n in ("Z8", "Z12"):
        h = truss(n)
        row("roundtrip_report(cocycle_of_truss(h))", n,
            lambda: roundtrip_report(cocycle_of_truss(h)))
    for n in ("Z8", "Z12"):
        h = truss(n)
        row("solve_antipode", n, lambda: solve_antipode(h.hopf_part().nonunital(), h.eta))
    for n in ("Z5", "Z6", "S3"):
        g = group(n)
        found = row("enumerate_skew_trusses", n, lambda: enumerate_skew_trusses(g, max_size=6))
        classes = row("isomorphism_classes of that output", n,
                      lambda: isomorphism_classes(found))
        print(f"|  | {n}: {len(found)} trusses, {len(classes)} classes | | |", flush=True)
    lines = sum(len(p.read_text().splitlines()) for p in sorted((run.SRC / "trusslab").glob("*.py")))
    print(f"\nsrc/trusslab: {lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
