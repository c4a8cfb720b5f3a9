"""Command front-end: exit codes, report schema, byte-level determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import cyclic_truss
from test_cocycle import holomorph_cocycle
from trusslab import algfile, cli
from trusslab.cli import main
from trusslab.fields import PRIME_BOUND, RATIONALS
from trusslab.hopfmodules import induction_functor
from trusslab.hopftruss import HopfTruss, verify_hopf_truss
from trusslab.linmap import LinMap, identity
from trusslab.settruss import (
    FiniteGroup,
    cyclic_group,
    enumerate_skew_trusses,
    left_projection_truss,
    linearize,
    right_projection_truss,
    trivial_truss,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).parent.parent / "src"
BRACE = str(FIXTURES / "hopftruss-z2-brace.json")
CORRUPT = str(FIXTURES / "hopftruss-z2-corrupt-cocycle.json")
Z3_TRIVIAL = str(FIXTURES / "settruss-z3-trivial.json")
BROKEN_GROUP = str(FIXTURES / "settruss-z2-broken-group.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify -------------------------------------------------------------------


def test_verify_brace_fixture_passes(capsys):
    code, out, err = run(capsys, "verify", BRACE)
    assert code == 0
    assert "hopftruss: PASS" in out
    assert err == ""


def test_verify_corrupt_cocycle_fails(capsys):
    code, out, _ = run(capsys, "verify", CORRUPT)
    assert code == 1
    assert "FAIL" in out
    assert "cocycle.derived" in out


def test_verify_settruss_fixture(capsys):
    code, out, _ = run(capsys, "verify", Z3_TRIVIAL)
    assert code == 0
    assert "skew-truss: PASS" in out


def test_verify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")



def test_verify_deep_json_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "verify", str(deep))
    assert code == 2
    assert out == ""
    assert err.startswith("error: not valid JSON")


@pytest.mark.parametrize("p,code", [(2**61 - 1, 0), (PRIME_BOUND, 2)])
def test_verify_checks_a_large_modulus_or_refuses_it(tmp_path, capsys, p, code):
    doc = json.loads(pathlib.Path(BRACE).read_text(encoding="utf-8"))
    path = tmp_path / "big-p.json"
    path.write_text(json.dumps({**doc, "field": {"kind": "Fp", "p": p}}), encoding="utf-8")
    got, out, err = run(capsys, "verify", str(path))
    assert got == code
    assert ("hopftruss: PASS" in out) if code == 0 else ("primality bound" in err and out == "")

def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "no-such-file.json")
    assert code == 2
    assert "error:" in err


def test_verify_json_report_schema(capsys):
    code, out, _ = run(capsys, "verify", BRACE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"subject", "pass", "checks"}
    assert doc["pass"] is True
    for check in doc["checks"]:
        assert set(check) == {"name", "anchor", "pass", "residual_zero"}


def test_verify_text_and_json_agree_on_failure(capsys):
    text_code, _, _ = run(capsys, "verify", CORRUPT)
    json_code, out, _ = run(capsys, "verify", CORRUPT, "--format", "json")
    assert text_code == json_code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    failing = {c["name"] for c in doc["checks"] if not c["pass"]}
    assert "cocycle.derived" in failing


def test_verify_kind_override(tmp_path, capsys):
    doc = algfile.document_of(linearize(trivial_truss(cyclic_group(2)), RATIONALS))
    del doc["kind"]
    path = tmp_path / "untagged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "unknown kind" in err
    code, out, _ = run(capsys, "verify", str(path), "--kind", "hopftruss")
    assert code == 0
    assert "PASS" in out


def test_verify_output_is_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", BRACE, "--format", "json")
    _, second, _ = run(capsys, "verify", BRACE, "--format", "json")
    assert first == second


# -- enumerate ----------------------------------------------------------------


def test_enumerate_z1_is_a_singleton(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "Z1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert len(doc["trusses"]) == 1


def test_enumerate_z2_contains_the_named_trusses(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "Z2")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "Z2"
    assert doc["count"] == len(doc["trusses"])
    g = cyclic_group(2)
    for named in (trivial_truss(g), left_projection_truss(g),
                  right_projection_truss(g)):
        assert algfile.document_of(named) in doc["trusses"]


def test_enumerate_agrees_with_the_library(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "Z3")
    assert code == 0
    doc = json.loads(out)
    expected = [algfile.document_of(t)
                for t in enumerate_skew_trusses(cyclic_group(3))]
    assert doc["trusses"] == expected


def test_enumerate_to_file_is_deterministic(tmp_path, capsys):
    one, two = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "enumerate", "--group", "Z2", "--out", str(one))[0] == 0
    assert run(capsys, "enumerate", "--group", "Z2", "--out", str(two))[0] == 0
    first, second = one.read_bytes(), two.read_bytes()
    assert first == second
    _, out, _ = run(capsys, "enumerate", "--group", "Z2")
    assert out.encode("utf-8") == first


def test_enumerate_respects_the_bound(capsys):
    code, _, err = run(capsys, "enumerate", "--group", "S3", "--max", "5")
    assert code == 2
    assert "bound" in err
    code, _, _ = run(capsys, "enumerate", "--group", "Z2", "--max", "1")
    assert code == 2


@pytest.mark.parametrize("raw", ["1_6", "\u0666", "6.0", "0x6", ""])
def test_enumerate_refuses_a_max_not_in_ascii_form(capsys, raw):
    code, out, err = run(capsys, "enumerate", "--group", "Z2", "--max", raw)
    assert code == 2 and out == ""
    assert "--max" in err


def test_enumerate_reads_a_max_in_ascii_form(capsys):
    for raw in (" 6", "+6", "06"):
        code, out, _ = run(capsys, "enumerate", "--group", "Z2", "--max", raw)
        assert code == 0 and json.loads(out)["count"] == 8


def test_enumerate_refuses_large_orders_whatever_the_max(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "Z12", "--max", "12")
    assert code == 2
    assert "bound 7" in err
    assert out == ""


def test_enumerate_refuses_before_building_the_group(tmp_path, capsys, monkeypatch):
    def build(*args):
        raise AssertionError("group built before the bound check")

    monkeypatch.setattr(cli, "cyclic_group", build)
    monkeypatch.setattr(FiniteGroup, "from_table", classmethod(build))
    code, out, err = run(capsys, "enumerate", "--group", "Z1000")
    assert code == 2 and out == ""
    assert "carrier size 1000 exceeds enumeration bound 6" in err
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[0] * 9] * 9), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--group", str(path), "--max", "12")
    assert code == 2 and out == ""
    assert "carrier size 9 exceeds the fixed enumeration bound 7" in err


def test_enumerate_refuses_a_huge_order_by_its_digit_count(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "Z" + "9" * 5000)
    assert code == 2 and out == ""
    assert "carrier size of 5000 digits exceeds enumeration bound 6" in err
    code, out, _ = run(capsys, "enumerate", "--group", "Z" + "0" * 5000 + "5")
    assert code == 0 and json.loads(out)["count"] == 622


def test_enumerate_s3_under_the_default_bound(tmp_path, capsys):
    path = tmp_path / "s3.json"
    code, _, _ = run(capsys, "enumerate", "--group", "S3", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text(encoding="utf-8"))["count"] == 6178


def test_enumerate_unknown_group(capsys):
    code, _, err = run(capsys, "enumerate", "--group", "K4")
    assert code == 2
    assert "unknown group" in err


def test_enumerate_from_cayley_file(tmp_path, capsys):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({"table": [[0, 1], [1, 0]]}), encoding="utf-8")
    code, out, _ = run(capsys, "enumerate", "--group", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["trusses"] == [algfile.document_of(t)
                              for t in enumerate_skew_trusses(cyclic_group(2))]
    bare = tmp_path / "bare.json"
    bare.write_text("[[0, 1], [1, 0]]", encoding="utf-8")
    assert run(capsys, "enumerate", "--group", str(bare))[0] == 0


def test_enumerate_rejects_bad_cayley_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": "x"}), encoding="utf-8")
    code, _, err = run(capsys, "enumerate", "--group", str(path))
    assert code == 2
    assert "Cayley" in err
    path.write_text(json.dumps({"table": [[0, 0], [0, 0]]}), encoding="utf-8")
    assert run(capsys, "enumerate", "--group", str(path))[0] == 2


@pytest.mark.parametrize("table, entry", [
    ([["a"]], '"a"'),
    ([[0.5, 1], [1, 0]], "0.5"),
    ([[True, False], [False, True]], "true"),
], ids=["string", "float", "bool"])
def test_enumerate_refuses_non_integer_cayley_entries(tmp_path, capsys, table, entry):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    code, out, err = run(capsys, "enumerate", "--group", str(path))
    assert code == 2 and out == ""
    assert f"entry [0][0] = {entry} is not an integer" in err


@pytest.mark.parametrize("table, text", [
    ([[0, "1"], [1, 0]], 'entry [0][1] = "1" is not an integer'),
    ([[0, True], [1, 0]], "entry [0][1] = true is not an integer"),
    ([[0, 0.5], [1, 0]], "entry [0][1] = 0.5 is not an integer"),
    ([[0, 1], [1]], "row 1 must have 2 entries"),
    ([[0, 1], [1, 2]], "entry [1][1] = 2 out of range"),
], ids=["string", "bool", "float", "short-row", "out-of-range"])
def test_cayley_files_and_settruss_tables_share_one_reader(tmp_path, capsys, table, text):
    # the same refusal, apart from the table's name, for a Cayley file and
    # for the group table of a settruss document
    cayley = tmp_path / "g.json"
    cayley.write_text(json.dumps(table), encoding="utf-8")
    assert run(capsys, "enumerate", "--group", str(cayley)) == (
        2, "", f"error: table {str(cayley)!r} {text}\n")
    doc = algfile.document_of(trivial_truss(cyclic_group(2)))
    settruss = tmp_path / "t.json"
    settruss.write_text(json.dumps({**doc, "tables": {**doc["tables"], "group": table}}),
                        encoding="utf-8")
    assert run(capsys, "verify", str(settruss)) == (2, "", f"error: table 'group' {text}\n")


# -- pipeline -----------------------------------------------------------------


def test_pipeline_full_chain(capsys):
    code, out, _ = run(capsys, "pipeline", Z3_TRIVIAL,
                       "--steps", "linearize,E,Q,roundtrip")
    assert code == 0
    for line in ("input [settruss]: PASS", "linearize [hopftruss]: PASS",
                 "cocycle [gic]: PASS", "truss [hopftruss]: PASS",
                 "roundtrip [hopftruss]: PASS"):
        assert line in out


def test_pipeline_accepts_unaliased_step_names(capsys):
    code, _, _ = run(capsys, "pipeline", Z3_TRIVIAL,
                     "--steps", "linearize,cocycle,truss,roundtrip")
    assert code == 0


def test_pipeline_reads_the_field_from_the_document(tmp_path, capsys):
    doc = algfile.document_of(trivial_truss(cyclic_group(3)))
    doc["field"] = {"kind": "Fp", "p": 5}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "pipeline", str(path), "--steps",
                       "linearize,E,Q,roundtrip", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_pipeline_from_a_hopf_truss(capsys):
    code, _, _ = run(capsys, "pipeline", BRACE, "--steps", "E,Q,roundtrip")
    assert code == 0


def test_pipeline_fundamental_logs_theta(tmp_path, capsys):
    h = linearize(trivial_truss(cyclic_group(2)), RATIONALS)
    path = tmp_path / "m.json"
    algfile.save(path, induction_functor(h, 2))
    code, out, _ = run(capsys, "pipeline", str(path), "--steps", "fundamental")
    assert code == 0
    assert "theta: 4 x 4" in out
    code, out, _ = run(capsys, "pipeline", str(path), "--steps", "fundamental",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["steps"][-1]["theta_shape"] == [4, 4]


def test_pipeline_incompatible_kind(capsys):
    code, _, err = run(capsys, "pipeline", BRACE, "--steps", "fundamental")
    assert code == 2
    assert "needs a trusshopfmodule" in err
    code, _, err = run(capsys, "pipeline", Z3_TRIVIAL, "--steps", "E")
    assert code == 2
    assert "needs a hopftruss" in err


# every step that takes a kind, fed a document of another kind
WRONG_KIND = {
    "linearize": (BRACE, "settruss", "hopftruss"),
    "cocycle": (Z3_TRIVIAL, "hopftruss", "settruss"),
    "truss": (BRACE, "gic", "hopftruss"),
    "roundtrip": (Z3_TRIVIAL, "hopftruss or gic", "settruss"),
    "fundamental": (BRACE, "trusshopfmodule", "hopftruss"),
}


def test_every_step_that_takes_a_kind_is_fed_another():
    assert set(WRONG_KIND) == {step for step, (kinds, _) in cli._STEPS.items() if kinds}


@pytest.mark.parametrize("step", WRONG_KIND)
def test_pipeline_step_refuses_another_kind(capsys, step):
    path, wants, have = WRONG_KIND[step]
    code, out, err = run(capsys, "pipeline", path, "--steps", step)
    assert (code, out) == (2, "")
    assert f"step '{step}' needs a {wants}, have '{have}'" in err


def test_pipeline_help_names_every_step(capsys):
    code, out, _ = run(capsys, "pipeline", "--help")
    assert code == 0
    assert all(step in out for step in cli._STEPS)


@pytest.mark.parametrize("command", [("verify",), ("pipeline", "--steps", "linearize")])
def test_a_malformed_settruss_field_is_refused(tmp_path, capsys, command):
    doc = json.loads(pathlib.Path(Z3_TRIVIAL).read_text(encoding="utf-8"))
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**doc, "field": 7}), encoding="utf-8")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert "field must be an object" in err


def test_pipeline_roundtrip_of_a_genuine_cocycle(tmp_path, capsys):
    # Z4 onto Z2² with pi != id: the roundtrip step runs roundtrip_report
    c, pi = holomorph_cocycle(RATIONALS)
    assert pi != list(range(4))
    path = tmp_path / "gic.json"
    algfile.save(path, c)
    code, out, _ = run(capsys, "pipeline", str(path), "--steps", "roundtrip", "--format", "json")
    assert code == 0
    entry = json.loads(out)["steps"][-1]
    assert (entry["step"], entry["kind"], entry["pass"]) == ("roundtrip", "gic", True)
    assert entry["report"]["subject"] == "cocycle-roundtrip"
    trivial = LinMap(RATIONALS, 4, 16, {(a, k * 4 + a): 1 for k in range(4) for a in range(4)})
    algfile.save(path, holomorph_cocycle(RATIONALS, trivial)[0])
    code, out, _ = run(capsys, "pipeline", str(path), "--steps", "roundtrip")
    assert code == 1
    assert out.startswith("input [gic]: FAIL") and "roundtrip [gic]" not in out


def test_pipeline_roundtrip_needs_a_cocycle_step(capsys):
    code, _, err = run(capsys, "pipeline", BRACE, "--steps", "roundtrip")
    assert code == 2
    assert "roundtrip" in err


def test_pipeline_unknown_step(capsys):
    code, _, err = run(capsys, "pipeline", BRACE, "--steps", "E,warp")
    assert code == 2
    assert "unknown steps" in err


def test_pipeline_corrupt_input_fails_first(capsys):
    code, out, _ = run(capsys, "pipeline", CORRUPT, "--steps", "E,Q")
    assert code == 1
    assert "input [hopftruss]: FAIL" in out
    assert "cocycle [gic]" not in out


def test_pipeline_json_runs_are_byte_identical(capsys):
    argv = ("pipeline", Z3_TRIVIAL, "--steps", "linearize,E,Q,roundtrip",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    doc = json.loads(first)
    assert doc["pass"] is True
    assert [s["step"] for s in doc["steps"]] == [
        "input", "linearize", "cocycle", "truss", "roundtrip"]


# -- rendered output ----------------------------------------------------------
#
# The rendered reports, pinned byte for byte in tests/fixtures/rendered: a
# failing verify in text and JSON, a passing pipeline in JSON, a failing
# set-level verify with its witnesses, and a verbose report whose failures
# and residuals sit in a prefixed part.

RENDERED = FIXTURES / "rendered"


@pytest.mark.parametrize("name,code,argv", [
    ("verify-corrupt.txt", 1, ("verify", CORRUPT)),
    ("verify-corrupt.json", 1, ("verify", CORRUPT, "--format", "json")),
    ("pipeline-z3-roundtrip.json", 0,
     ("pipeline", Z3_TRIVIAL, "--steps", "linearize,E,Q,roundtrip", "--format", "json")),
    ("verify-settruss-broken-group.txt", 1, ("verify", BROKEN_GROUP)),
])
def test_cli_output_matches_its_fixture(capsys, name, code, argv):
    assert run(capsys, *argv) == (code, (RENDERED / name).read_text(encoding="utf-8"), "")


def test_verbose_report_matches_its_fixture():
    base = cyclic_truss(RATIONALS, 3)
    bad = HopfTruss(base.comonoid, base.eta, base.mu1, base.mu2, identity(RATIONALS, 3), base.cocycle)
    lines = verify_hopf_truss(bad).text_lines(verbose=True)
    assert "\n".join(lines) + "\n" == (RENDERED / "wrong-antipode-verbose.txt").read_text(encoding="utf-8")


# -- invocation ---------------------------------------------------------------


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "verify", "--help")[0] == 0


def test_missing_subcommand_is_a_usage_error(capsys):
    assert run(capsys)[0] == 2



def test_cli_import_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize, and each trusslab
    # process pays for every module it imports.
    probe = "import sys, trusslab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": path})
    assert child.stdout == "[]\n"
    assert [f.name for f in (SRC / "trusslab").glob("*.py")
            if "dataclass" in f.read_text(encoding="utf-8")] == []

def test_module_entry_point_round_trip(tmp_path):
    argv = [sys.executable, "-m", "trusslab.cli", "enumerate", "--group", "Z2"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["count"] == len(
        enumerate_skew_trusses(cyclic_group(2)))
