"""Self-tests of the benchmark: one pass of each workload, and every oracle
rejecting a planted defect.

    python3 -m pytest -q bench/test_bench.py

Run from the root of the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from trusslab import (RATIONALS, LinMap, cocycle_of_truss, enumerate_skew_trusses,  # noqa: E402
                      isomorphism_classes, linearize, truss_of_cocycle)

SEED = 0


def _one_pass(name, tmp_path):
    wl = workloads.WORKLOADS[name](SEED, tmp_path)
    wl.prepare()
    problems = []
    for inp in wl.inputs:
        problems += wl.check(inp, wl.run(inp))
    return problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_each_workload_is_correct(name, tmp_path):
    assert _one_pass(name, tmp_path) == []


def test_inputs_repeat_for_a_seed_and_vary_across_seeds():
    a = gen.seeded_trusses(SEED, workloads.LINEAR_GROUPS, "transport_q")
    assert a == gen.seeded_trusses(SEED, workloads.LINEAR_GROUPS, "transport_q")
    assert a != gen.seeded_trusses(SEED + 1, workloads.LINEAR_GROUPS, "transport_q")
    for _, t1, t2 in a:
        assert oracles.settruss_problems(t1, t2) == []


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_of_its_mode(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "modules_fp", "--seed",
         str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(names)


# -- planted defects -------------------------------------------------------------


def _truss(name="Z5"):
    _, t1, t2 = next(x for x in gen.seeded_trusses(SEED, workloads.LINEAR_GROUPS, "t")
                     if x[0] == name)
    return t1, t2, workloads._set_truss(t1, t2)


def _perturbed(m, i, j):
    entries = dict(m.items())
    entries[(i, j)] = m.field.add(entries.get((i, j), m.field.zero), m.field.one)
    return LinMap(m.field, m.cod, m.dom, entries)


def test_linearize_oracle_rejects_a_perturbed_entry():
    t1, t2, st = _truss()
    h = linearize(st, RATIONALS)
    assert oracles.linearize_problems(h, t1, t2) == []
    bad = type(h)(h.comonoid, h.eta, h.mu1, _perturbed(h.mu2, 0, 3), h.antipode, h.cocycle)
    assert oracles.linearize_problems(bad, t1, t2)


def test_roundtrip_and_antipode_oracles_reject_a_perturbed_entry():
    t1, t2, st = _truss("S3")
    h = linearize(st, RATIONALS)
    back = truss_of_cocycle(cocycle_of_truss(h))
    maps = oracles.truss_map_list(back)
    assert oracles.same_maps_problems("rt", maps, oracles.truss_map_list(h)) == []
    maps[3] = _perturbed(maps[3], 1, 1)
    assert oracles.same_maps_problems("rt", maps, oracles.truss_map_list(h))
    assert oracles.antipode_problems(h.antipode, t1) == []
    assert oracles.antipode_problems(_perturbed(h.antipode, 0, 0), t1)


def test_induced_oracle_rejects_a_perturbed_theta():
    from trusslab import fundamental_iso, induction_functor, prime_field

    t1, t2, st = _truss("Z4")
    theta, theta_inv, _ = fundamental_iso(induction_functor(linearize(st, prime_field(5)), 2))
    assert oracles.induced_problems(theta, theta_inv, t1, t2, 2, 5) == []
    assert oracles.induced_problems(_perturbed(theta, 2, 5), theta_inv, t1, t2, 2, 5)


def test_settruss_oracle_rejects_two_swapped_entries():
    t1 = gen.s3()
    t2 = gen.truss_table(t1, "left", tuple(range(6)))
    assert oracles.settruss_problems(t1, t2) == []
    swapped = [list(r) for r in t2]
    swapped[2][3], swapped[2][4] = swapped[2][4], swapped[2][3]
    assert oracles.settruss_problems(t1, swapped)
    assert oracles.listing_problems(t1, [t2, swapped])


def _search(name):
    t1 = dict(gen.seeded_groups(SEED, workloads.SEARCH_LABELINGS, "s"))[name]
    from trusslab import FiniteGroup

    trusses = enumerate_skew_trusses(FiniteGroup.from_table(t1), max_size=5)
    tables = [[list(r) for r in t.semigroup.table] for t in trusses]
    classes = [[[list(r) for r in t.semigroup.table] for t in c]
               for c in isomorphism_classes(trusses)]
    return t1, tables, classes


def test_class_oracle_rejects_a_wrong_class_count():
    t1, tables, classes = _search("Z2xZ2")
    assert oracles.classes_problems(t1, tables, classes) == []
    assert oracles.classes_problems(t1, tables, classes[:-1])
    merged = [classes[0] + classes[1]] + classes[2:]
    assert oracles.classes_problems(t1, tables, merged)


def test_listing_and_sweep_oracles_reject_a_wrong_listing():
    t1, tables, _ = _search("Z3")
    assert oracles.listing_problems(t1, tables) == []
    assert oracles.sweep_problems(t1, tables) == []
    assert oracles.sweep_problems(t1, tables[1:])
    assert oracles.listing_problems(t1, tables[::-1])


def test_cli_oracle_rejects_the_corrupt_fixture(tmp_path):
    fixture = ROOT / "tests" / "fixtures" / "hopftruss-z2-corrupt-cocycle.json"
    args = ["verify", str(fixture), "--format", "json"]
    code, _ = workloads.spawn([sys.executable, "-m", "trusslab.cli", *args],
                              tmp_path / "corrupt.out")
    assert code == 1
    cli = workloads.Cli(SEED, tmp_path)
    as_valid = workloads.Input("fixture", kind="verify", doc=fixture, expect=0, args=args)
    assert cli.check(as_valid, cli.run(as_valid))
    as_corrupt = workloads.Input("fixture", kind="verify", doc=fixture, expect=1, args=args)
    assert cli.check(as_corrupt, cli.run(as_corrupt)) == []


def test_cli_listing_oracle_rejects_a_swapped_semigroup_entry():
    t1, tables, _ = _search("Z3")
    docs = [gen.settruss_doc(t1, t2) for t2 in tables]
    text = json.dumps({"count": len(docs), "group": "g", "trusses": docs})
    assert oracles.enumerate_listing_problems(text) == []
    row = docs[5]["tables"]["semigroup"][1]
    j = next(j for j in range(1, 3) if row[j] != row[0])
    row[0], row[j] = row[j], row[0]
    text = json.dumps({"count": len(docs), "group": "g", "trusses": docs})
    assert oracles.enumerate_listing_problems(text)
