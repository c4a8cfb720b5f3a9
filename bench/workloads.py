"""The four benchmark workloads.

Each workload builds its inputs from the seed (`prepare`), runs one item
on one input (`run`) and checks an item's output against the
independent oracles (`check`, which returns a list of problems).  Items
of the three in-process workloads call trusslab directly; `cli` runs the
`trusslab` command as one child process at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import gen
import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

LINEAR_GROUPS = ["Z4", "Z2xZ2", "Z5", "Z6", "S3"]
# Seeded labelings of each group in one set_search round.  Search cost
# moves by up to a fifth with the labeling, so every group runs under
# several.  Z4 is the middle group by cost, so its mean sets item_p50_ms;
# at about 50 ms a run, it gets more labelings than the others to give
# that mean enough runs.
SEARCH_LABELINGS = {"Z2": 3, "Z3": 3, "Z4": 12, "Z2xZ2": 3, "Z5": 3}
PRIMES = (5, 7, 11)
XDIM = 2


class Input:
    def __init__(self, label: str, **data) -> None:
        self.label = label
        self.reference = None
        self.__dict__.update(data)


def _set_truss(t1, t2):
    from trusslab import FiniteGroup, FiniteSemigroup, SkewTruss

    group = FiniteGroup.from_table(t1)
    return SkewTruss(group, FiniteSemigroup(t2),
                     tuple(t2[a][group.unit] for a in range(len(t1))))


def _report_problems(label: str, rep) -> list:
    return [] if rep.ok else [f"{label}: {[c.name for c in rep.failures()]} fail"]


class TransportQ:
    """Set-level trusses linearized over Q and taken through E, Q and back."""

    name = "transport_q"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        self.inputs = [Input(name, t1=t1, t2=t2, truss=_set_truss(t1, t2))
                       for name, t1, t2 in gen.seeded_trusses(self.seed, LINEAR_GROUPS,
                                                              self.name)]

    def run(self, inp):
        from trusslab import (RATIONALS, cocycle_of_truss, linearize, roundtrip_report,
                              solve_antipode, truss_of_cocycle, verify_cocycle,
                              verify_hopf_truss)

        h = linearize(inp.truss, RATIONALS)
        rep_h = verify_hopf_truss(h)
        c = cocycle_of_truss(h)
        rep_c = verify_cocycle(c)
        back = truss_of_cocycle(c)
        rep_r = roundtrip_report(c)
        s = solve_antipode(h.hopf_part().nonunital(), h.eta)
        return h, rep_h, rep_c, back, rep_r, s

    def check(self, inp, out) -> list:
        h, rep_h, rep_c, back, rep_r, s = out
        problems = oracles.settruss_problems(inp.t1, inp.t2)
        problems += oracles.linearize_problems(h, inp.t1, inp.t2)
        problems += _report_problems("verify_hopf_truss", rep_h)
        problems += _report_problems("verify_cocycle", rep_c)
        problems += _report_problems("roundtrip_report", rep_r)
        problems += oracles.same_maps_problems("truss_of_cocycle(cocycle_of_truss(h))",
                                               oracles.truss_map_list(back),
                                               oracles.truss_map_list(h))
        return problems + oracles.antipode_problems(s, inp.t1)


class ModulesFp(TransportQ):
    """Hopf trusses over F_p through induction, the fundamental theorem and
    the functors between truss modules and cocycle modules."""

    name = "modules_fp"

    def prepare(self) -> None:
        super().prepare()
        self.p = PRIMES[self.seed % len(PRIMES)]

    def run(self, inp):
        from trusslab import (adjunction_check, functor_G_H, functor_H_tr_pi,
                              fundamental_iso, induction_functor, linearize, prime_field,
                              regular_truss_module, verify_pi_module)

        h = linearize(inp.truss, prime_field(self.p))
        m = induction_functor(h, XDIM)
        theta, theta_inv, rep_f = fundamental_iso(m)
        rep_a = adjunction_check(h, XDIM, m)
        rm = regular_truss_module(h)
        pm = functor_G_H(rm)
        rep_p = verify_pi_module(pm)
        back = functor_H_tr_pi(pm)
        return h, theta, theta_inv, rep_f, rep_a, rm, rep_p, back

    def check(self, inp, out) -> list:
        h, theta, theta_inv, rep_f, rep_a, rm, rep_p, back = out
        p = self.p
        problems = oracles.linearize_problems(h, inp.t1, inp.t2, p)
        problems += _report_problems("fundamental_iso", rep_f)
        problems += _report_problems("adjunction_check", rep_a)
        problems += _report_problems("verify_pi_module", rep_p)
        problems += oracles.induced_problems(theta, theta_inv, inp.t1, inp.t2, XDIM, p)
        return problems + oracles.same_maps_problems(
            "functor_H_tr_pi(functor_G_H(m))",
            [back.act1, back.act2] + oracles.truss_map_list(back.truss),
            [rm.act1, rm.act2] + oracles.truss_map_list(rm.truss))


class SetSearch:
    """Enumeration and classification of skew trusses over small groups."""

    name = "set_search"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from trusslab import FiniteGroup

        self.inputs = [Input(name, t1=t1, group=FiniteGroup.from_table(t1))
                       for name, t1 in gen.seeded_groups(self.seed, SEARCH_LABELINGS,
                                                         self.name)]

    def run(self, inp):
        from trusslab import enumerate_skew_trusses, isomorphism_classes

        trusses = enumerate_skew_trusses(inp.group, max_size=len(inp.t1))
        return trusses, isomorphism_classes(trusses)

    def check(self, inp, out) -> list:
        trusses, classes = out
        tables = [[list(r) for r in t.semigroup.table] for t in trusses]
        flat = ([oracles.flat(t) for t in tables],
                [[oracles.flat(t.semigroup.table) for t in c] for c in classes])
        if inp.reference is not None:
            return [] if flat == inp.reference else ["output differs from the first run"]
        problems = []
        if any([list(r) for r in t.group.table] != inp.t1 for t in trusses):
            problems.append("a truss is over another group table")
        problems += oracles.listing_problems(inp.t1, tables, [t.omega for t in trusses])
        problems += oracles.classes_problems(
            inp.t1, tables, [[[list(r) for r in t.semigroup.table] for t in c]
                             for c in classes])
        if len(inp.t1) <= 3:
            problems += oracles.sweep_problems(inp.t1, tables)
        if not problems:
            inp.reference = flat
        return problems


def spawn(argv: list, stdout_path: Path) -> tuple:
    """Run one child to its end; (exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Cli:
    """trusslab commands run as child processes on documents written here."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.peak_kib = 0
        self.trace_to = None

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        (_, ta1, ta2), (_, tb1, tb2), (_, tc1, tc2) = gen.seeded_trusses(
            self.seed, ["Z4", "Z2xZ2", "Z3"], self.name)
        corrupt = gen.hopftruss_doc(ta1, ta2)
        # a second 1 in column 0 of the cocycle: "a perturbed matrix entry"
        corrupt["maps"]["cocycle"][(ta2[0][gen.unit_of(ta1)] + 1) % len(ta1)][0] = "1"
        docs = {"verify": gen.hopftruss_doc(ta1, ta2), "corrupt": corrupt,
                "pipeline": gen.settruss_doc(tb1, tb2),
                "fundamental": gen.trusshopfmodule_doc(tc1, tc2, XDIM)}
        paths = {}
        for key, doc in docs.items():
            paths[key] = self.workdir / f"{key}.json"
            paths[key].write_text(oracles.canonical_text(doc), encoding="utf-8")
        steps = "linearize,E,Q,roundtrip"
        self.inputs = [
            Input("verify", kind="verify", doc=paths["verify"], expect=0,
                  args=["verify", str(paths["verify"]), "--format", "json"]),
            Input("verify-corrupt", kind="verify", doc=paths["corrupt"], expect=1,
                  args=["verify", str(paths["corrupt"]), "--format", "json"]),
            Input("pipeline", kind="pipeline", doc=paths["pipeline"], expect=0,
                  steps=["input", "linearize", "cocycle", "truss", "roundtrip"],
                  args=["pipeline", str(paths["pipeline"]), "--steps", steps,
                        "--format", "json"]),
            Input("fundamental", kind="pipeline", doc=paths["fundamental"], expect=0,
                  steps=["input", "fundamental"], theta=[len(tc1) * XDIM] * 2,
                  args=["pipeline", str(paths["fundamental"]), "--steps", "fundamental",
                        "--format", "json"]),
        ] + [Input(f"enumerate-{g}", kind="enumerate", doc=None, expect=0,
                   listing=self.workdir / f"listing-{g}.json",
                   args=["enumerate", "--group", g, "--max", g[1:], "--out",
                         str(self.workdir / f"listing-{g}.json")])
             for g in ("Z4", "Z5")]

    def command(self, inp) -> list:
        if self.trace_to is not None:
            return [sys.executable, str(BENCH / "traced_cli.py"), str(self.trace_to), *inp.args]
        return [sys.executable, "-m", "trusslab.cli", *inp.args]

    def run(self, inp):
        stdout_path = self.workdir / f"{inp.label}.out"
        code, peak = spawn(self.command(inp), stdout_path)
        self.peak_kib = max(self.peak_kib, peak)
        listing = inp.listing.read_bytes() if inp.kind == "enumerate" else b""
        return code, stdout_path.read_bytes(), listing

    def check(self, inp, out) -> list:
        from trusslab import algfile

        code, stdout, listing = out
        if code != inp.expect:
            return [f"{inp.label}: exit {code}, expected {inp.expect}"]
        problems = []
        if inp.doc is not None:
            text = inp.doc.read_text(encoding="utf-8")
            if algfile.serialize(algfile.loads(text)) != text:
                problems.append(f"{inp.label}: serialize(loads(text)) != text")
        if inp.reference is not None:
            if (stdout, listing) != inp.reference:
                problems.append(f"{inp.label}: output differs between two runs")
            return problems
        problems += self._first_output_problems(inp, stdout, listing)
        if not problems:
            inp.reference = (stdout, listing)
        return problems

    @staticmethod
    def _first_output_problems(inp, stdout: bytes, listing: bytes) -> list:
        from trusslab import algfile

        if inp.kind == "enumerate":
            text = listing.decode("utf-8")
            problems = oracles.enumerate_listing_problems(text)
            for doc in json.loads(text)["trusses"]:
                doc_text = oracles.canonical_text(doc)
                if algfile.serialize(algfile.loads(doc_text)) != doc_text:
                    return problems + ["a listed truss does not survive serialize(loads())"]
            return problems
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return [f"{inp.label}: output is not JSON"]
        if inp.kind == "verify":
            passes = [c["pass"] for c in out["checks"]]
            if out["pass"] != (inp.expect == 0) or all(passes) != (inp.expect == 0):
                return [f"{inp.label}: report pass={out['pass']} against exit {inp.expect}"]
            return []
        if [s["step"] for s in out["steps"]] != inp.steps or not all(
                s["pass"] for s in out["steps"]):
            return [f"{inp.label}: steps {[(s['step'], s['pass']) for s in out['steps']]}"]
        if getattr(inp, "theta", None) and out["steps"][-1].get("theta_shape") != inp.theta:
            return [f"{inp.label}: theta shape {out['steps'][-1].get('theta_shape')}"]
        return []


WORKLOADS = {w.name: w for w in (TransportQ, ModulesFp, SetSearch, Cli)}


def setup_probe(name: str, seed: int, workdir: Path) -> None:
    """What a fresh process does before its first item can be timed."""
    if name == "cli":
        import trusslab.cli  # noqa: F401
        return
    WORKLOADS[name](seed, workdir).prepare()
