"""End-to-end CLI contract: exit codes, formats, determinism."""

import argparse
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from numindex import __version__
from numindex.cli import EXIT_INPUT, EXIT_OK, _default_seed, build_parser, main
from numindex.index import (absolute_index_estimate, numerical_index_estimate,
                            poly_index_estimate, rank_r_index_estimate)
from numindex.operators import Operator, operator_to_json
from numindex.radius import _grid_points
from numindex.spaces import MAX_DEPTH, DegenerateInput, lp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    code = main(["radius", "--space", "lp(p=2,dim=2,field=real)", "--matrix", rot90])
    assert code == EXIT_OK
    assert _json_out(capsys)["value"] <= 1e-9


def test_radius_field_is_read_from_the_descriptor(rot90, capsys):
    """The descriptor text is the one place the field is set: the rotation
    has complex radius 1 where its real radius is 0."""
    code = main(["radius", "--space", "lp(p=2,dim=2,field=complex)", "--matrix", rot90])
    assert code == EXIT_OK
    assert _json_out(capsys)["value"] == pytest.approx(1.0, abs=1e-9)


def test_radius_grid_dimension_cap(tmp_path, capsys):
    for field, d in (("real", 4), ("complex", 3)):
        path = tmp_path / f"id{d}.json"
        path.write_text(operator_to_json(Operator(np.eye(d), lp(2, d, field))))
        code = main(["radius", "--space", f"lp(p=2,dim={d},field={field})",
                     "--matrix", str(path), "--method", "grid", "--resolution", "2000"])
        assert code == EXIT_INPUT
        assert "capped at dimension" in capsys.readouterr().err


def test_radius_missing_matrix_file(capsys):
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", "/no/such.json"])
    assert code == EXIT_INPUT
    assert "matrix file not found" in capsys.readouterr().err


def test_radius_poly_missing_matrix_file(capsys):
    """The degree is read from the file, so no degree check runs before it:
    a missing file with flags a polynomial refuses still names the file."""
    code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", "/no/such.json",
                 "--method", "enumerate", "--absolute"])
    assert code == EXIT_INPUT
    assert "matrix file not found" in capsys.readouterr().err


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


def test_radius_poly_complex_tensor(tmp_path, capsys):
    space = "lp(p=2,dim=2,field=complex)"
    path = tmp_path / "cid2.json"
    path.write_text(operator_to_json(Operator(np.eye(2), lp(2, 2, "complex"))))
    code = main(["radius", "--space", space, "--matrix", str(path)])
    assert code == EXIT_OK
    assert _json_out(capsys)["value"] == pytest.approx(1.0, abs=1e-9)
    # 5 entries is no power 2^(k+1): the count is checked against the next one, 8
    path.write_text(json.dumps({"field": "complex", "matrix": [[1.0, 0.0]] * 5}))
    code = main(["radius", "--space", space, "--matrix", str(path)])
    assert code == EXIT_INPUT
    assert "matrix field has 5 entries, expected 8" in capsys.readouterr().err


def test_radius_poly_complex_tensor_on_a_real_space(tmp_path, capsys):
    """A complex tensor on a real space exits 2, as a complex matrix does."""
    path = tmp_path / "c.json"
    for k in (1, 2):
        path.write_text(json.dumps({"field": "complex", "matrix": [[1.0, 1.0]] * 2 ** (k + 1)}))
        code = main(["radius", "--space", "lp(p=2,dim=2)", "--matrix", str(path)])
        assert code == EXIT_INPUT
        assert "on a real descriptor" in capsys.readouterr().err


def test_radius_poly_k_one_is_the_operator(tmp_path, capsys):
    """A file of d^2 entries is the operator: on l1^3 the exact
    enumeration, nu(T) = ||T|| = 4 (n(l1) = 1)."""
    path = tmp_path / "t.json"
    path.write_text(operator_to_json(Operator(
        [[1.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 1.0, 1.0]], lp(1, 3))))
    code = main(["radius", "--space", "lp(p=1,dim=3)", "--matrix", str(path)])
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
    assert payload["theoretical_bounds"]["upper"] == pytest.approx(0.5)


@pytest.mark.parametrize("flags, estimate", [
    ([], lambda d: numerical_index_estimate(d, budget=6, rng=3)),
    (["--rank", "1"], lambda d: rank_r_index_estimate(d, 1, budget=6, rng=3)),
    (["--absolute"], lambda d: absolute_index_estimate(d, budget=6, rng=3)),
    (["--poly-k", "2"], lambda d: poly_index_estimate(d, 2, budget=6, rng=3)),
], ids=["plain", "rank", "absolute", "poly"])
def test_index_prints_the_interval_of_its_estimate(flags, estimate, capsys):
    """Each estimator flag prints the interval of the quantity it bounds,
    the library estimate's own, and nothing else beside it."""
    argv = ["index", "--space", "lp(p=3,dim=2)", "--budget", "6", "--seed", "3"]
    assert main(argv + flags) == EXIT_OK
    payload = _json_out(capsys)
    est = estimate(lp(3, 2))
    assert payload["theoretical_bounds"] == dataclasses.asdict(est.bounds)
    assert payload["upper_bound_best_found"] == est.upper_bound
    assert "closed_form_target" not in payload


def test_index_rank_flag(capsys):
    code = main(["index", "--space", "lp(p=2,dim=2)", "--rank", "1",
                 "--budget", "30"])
    assert code == EXIT_OK
    assert _json_out(capsys)["upper_bound_best_found"] >= 1 / math.e - 0.02


@pytest.mark.parametrize("space", ["lp(p=2,dim=1e400)",
                                   "psum(p=2,[lp(p=3,dim=2),lp(p=2,dim=inf)])"])
def test_index_non_finite_dimension_exits_2(space, capsys):
    assert main(["index", "--space", space, "--budget", "4"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "dim must be a positive integer" in err and "Traceback" not in err


def _nested(depth: int) -> str:
    text = "lp(p=2,dim=2)"
    for _ in range(depth - 1):
        text = f"psum(p=2,[{text}])"
    return text


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 600])
def test_radius_over_deep_descriptor_exits_2(depth, id2, capsys):
    argv = ["radius", "--matrix", id2, "--budget", "1"]
    assert main(argv + ["--space", _nested(MAX_DEPTH)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + ["--space", _nested(depth)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"nests deeper than {MAX_DEPTH} levels" in err and "Traceback" not in err


BAD_COUNTS = [
    (["index", "--budget", "-1"], "--budget must be >= 1"),
    (["index", "--budget", "0"], "--budget must be >= 1"),
    (["index", "--poly-k", "2", "--budget", "0"], "--budget must be >= 1"),
    (["index", "--poly-k", "-1"], "--poly-k must be >= 1, got -1"),
    (["index", "--poly-k", "0"], "--poly-k must be >= 1, got 0"),
    (["radius", "--matrix", "/no/such.json", "--budget", "0"], "--budget must be >= 1"),
    (["verify", "--suite", "sums", "--budget", "0"], "--budget must be >= 1"),
    (["index", "--poly-k", "17"], "exceeds cap 100000"),
    (["index", "--rank", "0"], "rank 0 out of range 1..2"),
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
    (["index", "--rank", "1", "--absolute"], ["--rank", "--absolute"]),
    (["index", "--poly-k", "2", "--absolute"], ["--poly-k", "--absolute"]),
    (["index", "--rank", "1", "--poly-k", "2"], ["--rank", "--poly-k"]),
    (["verify", "--suite", "lcc", "--space", "lp(p=3,dim=2)"], ["--space"]),
]


@pytest.mark.parametrize("argv,names", DROPPED_FLAGS,
                         ids=[" ".join(a) for a, _ in DROPPED_FLAGS])
def test_flag_reaches_the_library_or_exits_2(argv, names, tmp_path, capsys):
    if argv[0] in ("radius", "index"):
        argv = argv[:1] + ["--space", "lp(p=3,dim=2)"] + argv[1:]
    if argv[0] == "radius":
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [0.5] * 4}))
        argv += ["--matrix", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags,message", [
    (["--method", "enumerate"], "polynomial radius has no 'enumerate' backend"),
    (["--absolute"], "absolute radius needs a degree-1 map"),
], ids=["--method enumerate", "--absolute"])
def test_radius_degree_two_file_rejects_operator_flags(flags, message, tmp_path, capsys):
    """The backends and the quantity that only degree-1 maps have are
    refused for a file of d^3 entries by the library, naming them."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"matrix": [0.5] * 8}))
    argv = ["radius", "--space", "lp(p=3,dim=2)", "--matrix", str(path), *flags]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,manifest", [
    (["radius", "--space", "lp(p=2,dim=2)", "--budget", "4"], "out"),
    (["index", "--space", "lp(p=2,dim=2)", "--rank", "1", "--budget", "4"], "out"),
    (["mp", "--p", "3"], "out"),
    (["sweep", "--p", "2", "--m", "2", "--budget", "4"], "out"),
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
    if "seed" in parsed:      # resolved once the command runs without --seed
        parsed["seed"] = _default_seed()
    assert config == {k: v for k, v in parsed.items() if k != "fn"}


def test_sweep_rejects_budget_below_one(capsys):
    assert main(["sweep", "--p", "3", "--m", "2", "--budget", "0"]) == EXIT_INPUT
    assert "--budget must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("space,field,degree", [
    ("lp(p=3,dim=2,field=real)", "real", 1),
    ("lp(p=2,dim=2,field=complex)", "complex", 1),
    ("lp(p=3,dim=2,field=real)", "real", 2),
], ids=["real", "complex", "degree-2"])
@pytest.mark.parametrize("resolution", ["0", "-5"])
def test_grid_resolution_below_one_exits_2(tmp_path, capsys, space, field, degree,
                                           resolution):
    path = tmp_path / "m.json"
    if degree == 2:
        path.write_text(json.dumps({"matrix": [1.0] * 8}))
    else:
        path.write_text(operator_to_json(Operator(np.eye(2), lp(2, 2, field))))
    argv = ["radius", "--space", space, "--matrix", str(path), "--method", "grid",
            "--resolution", resolution]
    assert main(argv) == EXIT_INPUT
    assert "--resolution must be >= 1" in capsys.readouterr().err


def test_radius_grid_over_the_point_cap_exits_2(tmp_path, monkeypatch, capsys):
    """A resolution whose grid would exceed ``GRID_POINT_CAP`` points exits 2
    naming it, before any grid array exists, and prints nothing on stdout."""
    path = tmp_path / "id3.json"
    path.write_text(operator_to_json(Operator(np.eye(3), lp(3, 3))))
    argv = ["radius", "--space", "lp(p=3,dim=3)", "--matrix", str(path), "--method",
            "grid", "--resolution", "100000000"]
    monkeypatch.setattr(np, "meshgrid", lambda *a, **k: pytest.fail("grid allocated"))
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "error: grid resolution 100000000 needs" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_grid_points_reject_resolution_below_one():
    for desc in (lp(3, 2), lp(2, 2, "complex"), lp(3, 3)):
        with pytest.raises(DegenerateInput, match="resolution"):
            _grid_points(desc, 0)


@pytest.mark.parametrize("argv", [
    ["radius", "--space", "lp(p=1,dim=2)", "--method", "enumerate"],
    ["radius", "--space", "lp(p=2,dim=2)", "--method", "grid", "--resolution", "200"],
], ids=["radius-enumerate", "radius-grid"])
def test_budget_ignored_where_unused(argv, id2):
    """Backends whose result the budget cannot change accept any budget."""
    assert main(argv + ["--matrix", id2, "--budget", "0"]) == EXIT_OK


#: flags no command reads any more: the field is set in the descriptor text
#: only, a matrix file's entry count gives its degree, mp draws nothing, and
#: sweep has one family
REMOVED_FLAGS = [
    ["radius", "--space", "lp(p=2,dim=2,field=real)", "--field", "complex"],
    ["radius", "--space", "lp(p=3,dim=2)", "--poly-k", "2"],
    ["index", "--space", "lp(p=2,dim=2)", "--field", "real"],
    ["mp", "--p", "3", "--seed", "5"],
    ["mp", "--p", "2", "--budget", "0"],
    ["sweep", "--p", "3", "--family", "lp2-curve"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS,
                         ids=[" ".join(a[:1] + a[-2:]) for a in REMOVED_FLAGS])
def test_removed_flags_exit_2(argv, rot90, capsys):
    extra = ["--matrix", rot90] if argv[0] == "radius" else []
    assert main(argv + extra) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    assert captured.out == ""


#: a cheap run of every subcommand, for the check that each flag it
#: declares is read
CHEAP_RUNS = [
    ["radius", "--space", "lp(p=2,dim=2)", "--matrix", "{id2}", "--budget", "2"],
    ["index", "--space", "lp(p=2,dim=2)", "--budget", "2"],
    ["mp", "--p", "3", "--emit-curve", "{tmp}/curve.csv"],
    ["sweep", "--p", "3", "--m", "2..2", "--budget", "2"],
    ["verify", "--suite", "duality", "--space", "lp(p=2,dim=2)", "--cases", "1",
     "--budget", "2"],
]


@pytest.mark.parametrize("argv", CHEAP_RUNS, ids=[a[0] for a in CHEAP_RUNS])
def test_every_declared_flag_is_read(argv, id2, tmp_path, capsys):
    """A flag no command reads is a knob that changes nothing: run each
    subcommand on a namespace that records attribute reads (the manifest's
    ``vars(args)`` is not one) and compare them with the declared dests."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    ap = build_parser()
    argv = [a.replace("{id2}", id2).replace("{tmp}", str(tmp_path)) for a in argv]
    args = ap.parse_args(argv + ["--out", str(tmp_path / "out")], namespace=Recording())
    reads.clear()                         # argparse itself reads while parsing
    assert args.fn(args) == EXIT_OK
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    declared = {a.dest for a in sub.choices[argv[0]]._actions if a.dest != "help"}
    assert declared - reads == set()


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
    for p in ("0.5", "nan"):
        assert main(["mp", "--p", p]) == EXIT_INPUT
        assert "--p must be a finite number >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_lpm(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--p", "3", "--m", "1..3",
                 "--budget", "40", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3
    vals = [float(r["index_upper_bound"]) for r in rows]
    assert vals[0] == pytest.approx(1.0)
    assert all(vals[i] >= vals[i + 1] - 0.02 for i in range(2))


@pytest.mark.parametrize("m", ["2", "2..3"])
def test_sweep_leaves_mp_empty_at_p_inf(m, tmp_path, capsys):
    """Every m writes an empty mp cell at p = inf, where linf^m has index 1."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--p", "inf", "--m", m, "--budget", "4", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert rows and all(r["mp"] == "" for r in rows)
    assert all(float(r["index_upper_bound"]) == 1.0 for r in rows)


def test_sweep_empty_range(capsys):
    assert main(["sweep", "--p", "5..4", "--m", "2..3"]) == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--m", "1..1e400"],
    ["--m", "2", "--p", "1..inf"],
    ["--m", "2", "--p", "1..3:1e-300"],
    ["--m", "2", "--p", "1..3:nan"],
    ["--p", "3", "--m", "1e17..100000000000000100"],
    # a step below the 1e-12 rounding grain of the points would repeat them
    ["--m", "2", "--p", "1..1.0000000000004:0.0000000000001"],
], ids=lambda argv: argv[-1])
def test_sweep_range_non_finite_or_too_long_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert repr(argv[-1]) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("m", ["inf", "nan", "2..3:0.5", "0..2"])
def test_sweep_m_must_be_integers(m, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--p", "3", "--m", m, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--m" in err and repr(m) in err and "Traceback" not in err
    assert not out.exists()


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
    err = capsys.readouterr().err
    assert "bad --space" in err and "descriptor parse error" in err
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
    # Start the [project.scripts] entry point the way pip's generated wrapper
    # does, so the contract is checked with or without an install; an
    # installed `numindex` on PATH is run as well.  numpy is the one runtime
    # dependency: neither command leaves a scipy module loaded.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["numindex"]
    module, attr = target.split(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'numindex'; sys.exit({attr}())")
    path_entries = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    exe = shutil.which("numindex")
    if exe:
        commands.append([exe, "--version"])
    for cmd in commands:
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, f"{cmd}: {res.stderr}"
        assert res.stdout.strip() == __version__, f"{cmd}: {res.stderr}"
    probe = (f"import sys; from {module} import {attr}; "
             f"sys.argv[0] = 'numindex'; code = {attr}(); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
             "file=sys.stderr); sys.exit(code)")
    for argv in (["--version"], ["mp", "--p", "3"]):
        res = subprocess.run([sys.executable, "-c", probe, *argv], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, f"{argv}: {res.stderr}"
        assert res.stderr.splitlines() == ["[]"], f"{argv}: {res.stderr}"


#: inputs that once ended in a traceback with exit code 1, the code of a
#: suite violation, or printed a result before failing on the output path:
#: (argv, environment, what stderr must name); "{tmp}" is the working
#: directory, holding id2.json (an operator), list.json (a JSON list), a
#: directory sweep.csv (where sweep writes by default), and directories where
#: the manifests of x.json and s.csv and the bounds report of reports/ go
INPUT_ERRORS = [
    (["radius", "--space", "lp(p=2,dim=2)", "--matrix", "{tmp}/id2.json",
      "--out", "{tmp}/missing/x.json"], {}, "{tmp}/missing/x.json"),
    (["index", "--space", "lp(p=1,dim=2)", "--budget", "1",
      "--out", "{tmp}/missing/x.json"], {}, "{tmp}/missing/x.json"),
    (["mp", "--p", "1", "--emit-curve", "{tmp}/missing/x.csv"], {}, "{tmp}/missing/x.csv"),
    (["verify", "--suite", "bounds", "--out", "{tmp}/id2.json"], {}, "{tmp}/id2.json"),
    (["index", "--space", "lp(p=2,dim=2)", "--budget", "2"], {"NUMINDEX_SEED": "abc"},
     "NUMINDEX_SEED"),
    (["radius", "--space", "lp(p=2,dim=2)", "--matrix", "{tmp}/list.json"], {},
     'a JSON object with a "matrix" field'),
    (["index", "--out", "{tmp}", "--space", "lp(p=1.5,dim=3)", "--budget", "40"], {},
     "cannot write {tmp}:"),
    (["mp", "--out", "{tmp}/missing/x.json", "--p", "3"], {}, "{tmp}/missing/x.json"),
    (["sweep", "--out", "{tmp}/missing/x.csv", "--p", "3"], {},
     "{tmp}/missing/x.csv"),
    (["sweep", "--p", "3", "--m", "2"], {}, "cannot write sweep.csv:"),
    (["mp", "--p=3", "--out", "x.json"], {}, "cannot write x.json.manifest.json:"),
    (["sweep", "--m", "2", "--p", "3", "--out", "s.csv"], {},
     "cannot write s.csv.manifest.json:"),
    (["verify", "--out", "reports", "--suite", "bounds"], {},
     f"cannot write {os.path.join('reports', 'bounds.json')}:"),
]


@pytest.mark.parametrize("argv,env,named", INPUT_ERRORS,
                         ids=[" ".join(a[:2]) + "".join(f" {k}" for k in e)
                              for a, e, _ in INPUT_ERRORS])
def test_input_errors_exit_2_without_traceback(argv, env, named, tmp_path):
    (tmp_path / "id2.json").write_text(operator_to_json(Operator(np.eye(2), lp(2, 2))))
    (tmp_path / "list.json").write_text("[1.0, 0.0, 0.0, 1.0]")
    (tmp_path / "sweep.csv").mkdir()
    (tmp_path / "x.json.manifest.json").mkdir()
    (tmp_path / "s.csv.manifest.json").mkdir()
    (tmp_path / "reports" / "bounds.json").mkdir(parents=True)

    def listing():
        return sorted(map(str, tmp_path.rglob("*")))

    before = listing()

    def fill(text):
        return text.replace("{tmp}", str(tmp_path))

    path_entries = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries)), **env}
    res = subprocess.run([sys.executable, "-m", "numindex.cli", *map(fill, argv)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == EXIT_INPUT, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert fill(named) in res.stderr
    # nothing printed and no file written before the error
    assert res.stdout == ""
    assert listing() == before


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("NUMINDEX_SEED", "123")
    assert _default_seed() == 123
    monkeypatch.delenv("NUMINDEX_SEED")
    assert _default_seed() == 20240801


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["mp", "--p", "3"],
    ["index", "--space", "lp(p=2,dim=2)", "--seed", "5", "--budget", "2"],
], ids=["version", "mp", "index --seed"])
def test_seed_env_read_only_without_seed(argv, monkeypatch, capsys):
    """A bad NUMINDEX_SEED fails only a command that would read it."""
    monkeypatch.setenv("NUMINDEX_SEED", "abc")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
