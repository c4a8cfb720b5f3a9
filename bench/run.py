"""Benchmark of trusslab: one command, four workloads, seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; trusslab is imported from its
`src/`.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0`
the metrics are the end-to-end ones (see BENCHMARK.json); with
`--trace 1` they are the per-layer ones, taken with the tracer of
`tracing.py`.  README.md in this directory explains the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_PROBES = 9
# Nominal seconds of one calibration pass: times are reported as if the
# calibration loop had taken exactly this long beside them.
CAL_REF_S = 0.025
# Calibration time after each item, as a share of the item's wall time.
CAL_SHARE = 0.1

perf = time.perf_counter


def calibration_pass() -> float:
    """Wall seconds of a fixed interpreter-bound loop: Fraction arithmetic,
    dict updates under tuple keys, as trusslab's own inner loops do."""
    gc.collect()
    t0 = perf()
    acc, x = {}, Fraction(1, 3)
    for i in range(6000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + x * Fraction(i % 7 + 1)
    return perf() - t0


def speed(calibrations: list) -> float:
    """Factor from wall seconds to nominal seconds: CAL_REF_S over the mean
    calibration pass.  A mean over many passes spread through the run
    follows the machine's speed as it drifts; a single pass is too noisy."""
    return CAL_REF_S * len(calibrations) / sum(calibrations)


def load_trusslab() -> bool:
    """Import trusslab from this checkout's src/, and from nowhere else."""
    if not (SRC / "trusslab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import trusslab

    return Path(trusslab.__file__).resolve().is_relative_to(SRC)


def measure_setup(workload: str, seed: int) -> tuple:
    """Wall seconds from spawning a fresh interpreter until its inputs are
    ready, for each probe, and the calibration passes made between them."""
    times, cals = [], []
    for _ in range(SETUP_PROBES):
        cals.append(calibration_pass())
        t0 = perf()
        with subprocess.Popen([sys.executable, str(Path(__file__)), "--workload", workload,
                               "--seed", str(seed), "--probe"],
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(perf() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    return times, cals


class Tally:
    """Attempted items, the errors of those that raised, and every problem
    the oracles found in the output of those that did not."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = []
        self.problems = []
        self.check_s = 0.0

    def run(self, wl, inp):
        """Run and check one item; returns its wall time, or None if it raised."""
        self.attempted += 1
        gc.collect()
        t0 = perf()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a failed item is counted, not fatal
            self.errors.append(f"{inp.label}: raised {type(exc).__name__}: {exc}")
            return None
        dt = perf() - t0
        self.problems += wl.check(inp, out)
        self.check_s += perf() - t0 - dt
        return dt


def next_round(r0: float, c0: float, tally: Tally) -> float:
    """Expected seconds of another round like the one begun at r0.  Check
    time is left out: the first output of each input is checked in full,
    later ones are only compared with it."""
    return perf() - r0 - (tally.check_s - c0)


def timed_rounds(wl, tally: Tally, seconds: float) -> tuple:
    """Whole rounds until the next would overrun `seconds`.

    A round runs every input once.  After each item, calibration passes
    run for at least CAL_SHARE of the item's wall time (one pass at
    least), so the passes sample the machine's speed evenly over the run.
    Returns the wall times per input label, the calibration passes and
    the number of rounds.
    """
    walls = {inp.label: [] for inp in wl.inputs}
    cals = []
    rounds = 0
    deadline = perf() + seconds
    while True:
        r0, c0 = perf(), tally.check_s
        for inp in wl.inputs:
            t = tally.run(wl, inp)
            if t is not None:
                walls[inp.label].append(t)
            spent = 0.0
            while True:
                cals.append(calibration_pass())
                spent += cals[-1]
                if spent >= CAL_SHARE * (t or 0.0):
                    break
        rounds += 1
        if perf() + next_round(r0, c0, tally) > deadline:
            return walls, cals, rounds


def traced_rounds(wl, tally: Tally, seconds: float, tracer) -> dict:
    """Alternate untraced and traced rounds, one run of each input per round.

    Per-layer figures are medians over traced rounds; the overhead is the
    median traced round time against the median untraced one.  On `cli`
    the children of traced rounds run under the tracer too, and the
    untraced rounds give the per-command wall times.
    """
    is_cli = wl.name == "cli"
    per_round, plain, traced, cli_ms = [], [], [], {}
    deadline = perf() + seconds
    while True:
        r0, c0 = perf(), tally.check_s
        with_trace = len(plain) > len(traced)
        if with_trace:
            lo, before = len(tracer.spans), tracer.counts.copy()
            tracer.install()
            if is_cli:
                wl.trace_to = wl.workdir / "child-spans.json"
        for inp in wl.inputs:
            if not with_trace:
                t = tally.run(wl, inp)
                if is_cli and t is not None:
                    cli_ms.setdefault(inp.kind, []).append(t * 1000)
                continue
            tracer.item += 1
            sid = tracer.open(f"item:{inp.label}")
            tally.run(wl, inp)
            if is_cli and wl.trace_to.exists():
                tracer.absorb(json.loads(wl.trace_to.read_text()), sid)
                wl.trace_to.unlink()
            tracer.close(sid)
        if with_trace:
            tracer.uninstall()
            if is_cli:
                wl.trace_to = None
            per_round.append(tracer.summarize(lo, len(tracer.spans)) + (tracer.counts - before))
            traced.append(perf() - r0)
        else:
            plain.append(perf() - r0)
        if traced and perf() + next_round(r0, c0, tally) > deadline:
            return {"rounds": per_round, "plain": plain, "traced": traced, "cli_ms": cli_ms}


def end_to_end(wl, walls: dict, cals: list, setup: tuple) -> dict:
    """The four end-to-end metrics; times are at nominal machine speed."""
    peak_kib = wl.peak_kib if wl.name == "cli" else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    k = speed(cals)
    every = [t for ts in walls.values() for t in ts]
    setup_walls, setup_cals = setup
    return {
        "setup_s": (statistics.median(setup_walls) * speed(setup_cals), "s"),
        "items_per_s": (len(every) / (sum(every) * k), "1/s"),
        "item_p50_ms": (statistics.median(statistics.fmean(ts) for ts in walls.values() if ts)
                        * k * 1000, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def per_layer(result: dict, metric_specs: list) -> dict:
    rounds = result["rounds"]
    out = {}
    for spec in metric_specs:
        name, unit = spec["name"], spec["unit"]
        if name == "trace.overhead_pct":
            value = 100 * (statistics.median(result["traced"])
                           / statistics.median(result["plain"]) - 1)
        elif name == "cli.import_s":
            value = statistics.median([r[name] / r["cli.import_calls"] for r in rounds
                                       if r.get("cli.import_calls")] or [0])
        elif name.startswith("cli.") and name.endswith("_ms"):
            value = statistics.median(result["cli_ms"].get(name[4:-3], [0]))
        else:
            value = statistics.median(r.get(name, 0) for r in rounds)
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if not load_trusslab():
        print(f"error: no trusslab sources under {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.probe:
        workloads.setup_probe(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally()
    try:
        wl.prepare()
        tally.run(wl, wl.inputs[0])  # warm-up: loads code paths, not timed
        if args.trace:
            tracer = tracing.Tracer()
            result = traced_rounds(wl, tally, args.seconds, tracer)
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            metrics = per_layer(result, spec["per_layer"])
            print(f"{args.workload}: {len(result['traced'])} traced and "
                  f"{len(result['plain'])} untraced rounds, {len(tracer.spans)} spans")
        else:
            setup = measure_setup(args.workload, args.seed)
            walls, cals, rounds = timed_rounds(wl, tally, args.seconds)
            metrics = end_to_end(wl, walls, cals, setup)
            print(f"{args.workload}: {rounds} rounds of {len(wl.inputs)} items; wall "
                  f"setup {statistics.median(setup[0]):.4f} s; nominal over wall "
                  f"time {speed(cals):.3f} in the rounds, {speed(setup[1]):.3f} in set-up")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in (tally.errors + tally.problems)[:20]:
        print(f"problem: {problem}")
    correct = not tally.problems
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
