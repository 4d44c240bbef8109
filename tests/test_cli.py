"""End-to-end CLI contract: exit codes, formats, determinism."""

import csv
import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from numindex.cli import EXIT_INPUT, EXIT_OK, build_parser, main
from numindex.operators import Operator, operator_to_json
from numindex.radius import _grid_points
from numindex.spaces import DegenerateInput, lp


@pytest.fixture()
def id2(tmp_path):
    path = tmp_path / "id2.json"
    path.write_text(operator_to_json(Operator(np.eye(2), lp(2, 2))))
    return str(path)


@pytest.fixture()
def rot90(tmp_path):
    path = tmp_path / "rot90.json"
    path.write_text(operator_to_json(
        Operator([[0.0, -1.0], [1.0, 0.0]], lp(2, 2))))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def test_radius_identity(id2, capsys):
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", id2])
    assert code == EXIT_OK
    payload = _json_out(capsys)
    assert payload["value"] == pytest.approx(1.0, abs=1e-9)
    assert payload["method"] and payload["guarantee"]
    assert "witness" in payload


def test_radius_antisymmetric_real(rot90, capsys):
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", rot90,
                 "--field", "real"])
    assert code == EXIT_OK
    assert _json_out(capsys)["value"] <= 1e-9


def test_radius_grid_dimension_cap(tmp_path, capsys):
    path = tmp_path / "id4.json"
    path.write_text(operator_to_json(Operator(np.eye(4), lp(2, 4))))
    code = main(["radius", "--space", "lp(p=2,dim=4)", "--matrix", str(path),
                 "--method", "grid", "--resolution", "2000"])
    assert code == EXIT_INPUT
    assert "capped at dimension" in capsys.readouterr().err


def test_radius_missing_matrix_file(capsys):
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", "/no/such.json"])
    assert code == EXIT_INPUT


def test_radius_bad_descriptor(id2, capsys):
    code = main(["radius", "--space", "lq(p=2,dim=2)", "--matrix", id2])
    assert code == EXIT_INPUT


def test_radius_rejects_non_finite_entries(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"descriptor": "lp(p=2,dim=2)", "field": "real",
                                "matrix": [1.0, math.nan, 0.0, 1.0]}))
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", str(path)])
    assert code == EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", str(path),
                 "--poly-k", "1"])
    assert code == EXIT_INPUT
    assert "non-finite" in capsys.readouterr().err


def test_radius_poly_missing_matrix_file(capsys):
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", "/no/such.json",
                 "--poly-k", "1"])
    assert code == EXIT_INPUT
    assert "matrix file not found" in capsys.readouterr().err


def test_radius_poly_complex_tensor(tmp_path, capsys):
    space = "lp(p=2,dim=2,field=complex)"
    path = tmp_path / "cid2.json"
    path.write_text(operator_to_json(Operator(np.eye(2), lp(2, 2, "complex"))))
    code = main(["radius", "--space", space, "--matrix", str(path), "--poly-k", "1"])
    assert code == EXIT_OK
    assert _json_out(capsys)["value"] == pytest.approx(1.0, abs=1e-9)
    code = main(["radius", "--space", space, "--matrix", str(path), "--poly-k", "2"])
    assert code == EXIT_INPUT
    assert "matrix field has 4 entries, expected 8" in capsys.readouterr().err


def test_radius_poly_k_one_is_the_operator(tmp_path, capsys):
    """Degree 1 is the operator in ``radius`` as in ``index``: on l1^3 the
    exact enumeration, nu(T) = ||T|| = 4 (n(l1) = 1)."""
    path = tmp_path / "t.json"
    path.write_text(operator_to_json(Operator(
        [[1.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 1.0, 1.0]], lp(1, 3))))
    code = main(["radius", "--space", "lp(p=1,dim=3)", "--matrix", str(path),
                 "--poly-k", "1"])
    assert code == EXIT_OK
    payload = _json_out(capsys)
    assert payload["guarantee"] == "exact-enumeration"
    assert payload["value"] == 4.0


def test_radius_writes_report_and_manifest(id2, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", id2,
                 "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["value"] == pytest.approx(1.0, abs=1e-9)
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["config"]["command"] == "radius"
    assert manifest["started_at"] <= manifest["ended_at"]


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def test_index_l1_cube(capsys):
    code = main(["index", "--space", "lp(p=1,dim=3)", "--budget", "100"])
    assert code == EXIT_OK
    payload = _json_out(capsys)
    assert payload["upper_bound_best_found"] >= 0.95
    assert payload["theoretical_bounds"]["lower_tag"] == "sum-of-scalar-lines"


def test_index_deterministic(capsys):
    argv = ["index", "--space", "lp(p=3,dim=2)", "--budget", "30", "--seed", "5"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first


def test_index_absolute_flag(capsys):
    code = main(["index", "--space", "lp(p=2,dim=2)", "--absolute",
                 "--budget", "40"])
    assert code == EXIT_OK
    payload = _json_out(capsys)
    assert payload["closed_form_target"] == pytest.approx(0.5)


def test_index_rank_flag(capsys):
    code = main(["index", "--space", "lp(p=2,dim=2)", "--rank", "1",
                 "--budget", "30"])
    assert code == EXIT_OK
    assert _json_out(capsys)["upper_bound_best_found"] >= 1 / math.e - 0.02


BAD_COUNTS = [
    (["index", "--budget", "-1"], "--budget must be >= 1"),
    (["index", "--budget", "0"], "--budget must be >= 1"),
    (["index", "--poly-k", "2", "--budget", "0"], "--budget must be >= 1"),
    (["index", "--poly-k", "-1"], "--poly-k must be >= 0"),
    (["radius", "--matrix", "/no/such.json", "--poly-k", "-1"], "--poly-k must be >= 0"),
    (["radius", "--matrix", "/no/such.json", "--budget", "0"], "--budget must be >= 1"),
    (["verify", "--suite", "sums", "--budget", "0"], "--budget must be >= 1"),
    (["index", "--poly-k", "17"], "exceeds cap 100000"),
    (["verify", "--suite", "all", "--cases", "0"], "--cases must be >= 1"),
    (["verify", "--suite", "lcc", "--cases", "-1"], "--cases must be >= 1"),
]


@pytest.mark.parametrize("argv,message", BAD_COUNTS, ids=[" ".join(a) for a, _ in BAD_COUNTS])
def test_bad_budget_and_degree_exit_2(argv, message, capsys):
    code = main(argv[:1] + ["--space", "lp(p=3,dim=2)"] + argv[1:])
    assert code == EXIT_INPUT
    assert message in capsys.readouterr().err


#: flag combinations that once ran with one flag silently dropped, and the
#: words the error must name
DROPPED_FLAGS = [
    (["radius", "--absolute", "--method", "enumerate"], ["'enumerate' backend"]),
    (["radius", "--poly-k", "2", "--method", "enumerate"], ["'enumerate' backend"]),
    (["radius", "--poly-k", "2", "--absolute"], ["--poly-k", "--absolute"]),
    (["index", "--rank", "1", "--absolute"], ["--rank", "--absolute"]),
    (["index", "--poly-k", "2", "--absolute"], ["--poly-k", "--absolute"]),
    (["index", "--rank", "1", "--poly-k", "2"], ["--rank", "--poly-k"]),
    (["verify", "--suite", "lcc", "--space", "lp(p=3,dim=2)"], ["--space"]),
    (["sweep", "--family", "lp2-curve", "--p", "3", "--m", "2..3"], ["--m"]),
]


@pytest.mark.parametrize("argv,names", DROPPED_FLAGS,
                         ids=[" ".join(a) for a, _ in DROPPED_FLAGS])
def test_flag_reaches_the_library_or_exits_2(argv, names, tmp_path, capsys):
    if argv[0] in ("radius", "index"):
        argv = argv[:1] + ["--space", "lp(p=3,dim=2)"] + argv[1:]
    if argv[0] == "radius":
        path = tmp_path / "m.json"
        k = int(argv[argv.index("--poly-k") + 1]) if "--poly-k" in argv else 1
        path.write_text(json.dumps({"matrix": [0.5] * 2 ** (k + 1)}))
        argv += ["--matrix", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,manifest", [
    (["radius", "--space", "lp(p=2,dim=2)", "--budget", "4"], "out"),
    (["index", "--space", "lp(p=2,dim=2)", "--rank", "1", "--budget", "4"], "out"),
    (["mp", "--p", "3"], "out"),
    (["sweep", "--family", "lp2-curve", "--p", "2", "--budget", "4"], "out"),
    (["verify", "--suite", "duality", "--space", "lp(p=2,dim=2)", "--cases", "1",
      "--budget", "4"], "out/duality.json"),
], ids=["radius", "index", "mp", "sweep", "verify"])
def test_manifest_config_is_the_parsed_command(argv, manifest, id2, tmp_path, capsys):
    if argv[0] == "radius":
        argv = argv + ["--matrix", id2]
    argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    config = json.loads((tmp_path / f"{manifest}.manifest.json").read_text())["config"]
    parsed = vars(build_parser().parse_args(argv))
    assert config == {k: v for k, v in parsed.items() if k != "fn"}


def test_sweep_rejects_budget_below_one(capsys):
    assert main(["sweep", "--family", "lp2-curve", "--p", "3", "--budget", "0"]) == EXIT_INPUT
    assert "--budget must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("space,field,poly_k", [
    ("lp(p=3,dim=2)", "real", 0),
    ("lp(p=2,dim=2)", "complex", 0),
    ("lp(p=3,dim=2)", "real", 2),
], ids=["real", "complex", "poly-k"])
@pytest.mark.parametrize("resolution", ["0", "-5"])
def test_grid_resolution_below_one_exits_2(tmp_path, capsys, space, field, poly_k,
                                           resolution):
    path = tmp_path / "m.json"
    if poly_k:
        path.write_text(json.dumps({"matrix": [1.0] * 8}))
    else:
        path.write_text(operator_to_json(Operator(np.eye(2), lp(2, 2, field))))
    argv = ["radius", "--space", space, "--field", field, "--matrix", str(path),
            "--method", "grid", "--resolution", resolution, "--poly-k", str(poly_k)]
    assert main(argv) == EXIT_INPUT
    assert "--resolution must be >= 1" in capsys.readouterr().err


def test_grid_points_reject_resolution_below_one():
    for desc in (lp(3, 2), lp(2, 2, "complex"), lp(3, 3)):
        with pytest.raises(DegenerateInput, match="resolution"):
            _grid_points(desc, 0)


@pytest.mark.parametrize("argv", [
    ["mp", "--p", "2"],
    ["radius", "--space", "lp(p=1,dim=2)", "--method", "enumerate"],
    ["radius", "--space", "lp(p=2,dim=2)", "--method", "grid", "--resolution", "200"],
], ids=["mp", "radius-enumerate", "radius-grid"])
def test_budget_ignored_where_unused(argv, id2):
    """Commands whose result the budget cannot change accept any budget."""
    extra = ["--matrix", id2] if argv[0] == "radius" else []
    assert main(argv + extra + ["--budget", "0"]) == EXIT_OK


# ---------------------------------------------------------------------------
# mp
# ---------------------------------------------------------------------------

def test_mp_p2(capsys):
    assert main(["mp", "--p", "2"]) == EXIT_OK
    assert _json_out(capsys)["value"] == pytest.approx(0.0, abs=1e-12)


def test_mp_p1_argmax(capsys):
    assert main(["mp", "--p", "1"]) == EXIT_OK
    payload = _json_out(capsys)
    assert payload["value"] == pytest.approx(1.0, abs=1e-9)
    assert payload["argmax_t"] == pytest.approx(0.0, abs=1e-9)


def test_mp_emit_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["mp", "--p", "3", "--emit-curve", str(out)]) == EXIT_OK
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "value"]
    assert rows[-1][0] == "max"
    assert len(rows) == 1003


def test_mp_rejects_bad_p(capsys):
    assert main(["mp", "--p", "0.5"]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_lpm(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "lpm", "--p", "3", "--m", "1..3",
                 "--budget", "40", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    vals = [float(r["index_upper_bound"]) for r in rows]
    assert vals[0] == pytest.approx(1.0)
    assert all(vals[i] >= vals[i + 1] - 0.02 for i in range(2))


def test_sweep_empty_range(capsys):
    assert main(["sweep", "--family", "lpm", "--p", "5..4", "--m", "2..3"]) == EXIT_INPUT


def test_sweep_unknown_family(capsys):
    # argparse rejects the choice with its own exit code 2
    assert main(["sweep", "--family", "bogus", "--p", "3"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_duality_suite(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["verify", "--suite", "duality", "--space", "lp(p=3,dim=2)",
                 "--cases", "5", "--budget", "16", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "duality.json").read_text())
    assert report["passed"] is True
    assert report["max_violation"] <= 1e-4
    assert (out / "duality.json.manifest.json").exists()


def test_verify_bad_space_exits_before_any_suite(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "--suite", "all", "--space", "lq(p=3)",
                 "--cases", "1", "--out", str(out)]) == EXIT_INPUT
    assert "descriptor parse error" in capsys.readouterr().err
    assert not out.exists()


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == EXIT_INPUT


def test_verify_deterministic_reports(tmp_path, capsys):
    args = ["verify", "--suite", "gcc", "--cases", "4", "--budget", "8",
            "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert (a / "gcc.json").read_bytes() == (b / "gcc.json").read_bytes()


def test_console_script_installed():
    exe = shutil.which("numindex")
    assert exe, "console script not on PATH"
    res = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert res.returncode == 0


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("NUMINDEX_SEED", "123")
    from numindex.cli import _default_seed
    assert _default_seed() == 123
    monkeypatch.delenv("NUMINDEX_SEED")
    assert _default_seed() == 20240801
