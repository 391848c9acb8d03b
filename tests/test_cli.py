"""Command-line behavior: exit codes, report formats, the CSV contract."""

import json

import numpy as np
import pytest

from diracfock.cli import main
from diracfock.constants import PhysicalConstants
from diracfock.expectation import classical_spinor
from diracfock.quadrature import QuadratureSpec
from diracfock.states import family_from_config

FAST_VERIFY = {"n_spinor": 50, "n_operator": 10}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_verify_json_report(tmp_path, capsys):
    cfg = _write(tmp_path, "v.json", FAST_VERIFY)
    code = main(["verify", "--config", cfg, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["all_passed"] is True
    assert report["summary"]["total"] >= 25
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    for c in report["checks"]:
        assert c["residual"] <= c["tolerance"]


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    cfg = _write(tmp_path, "v.json", FAST_VERIFY)
    main(["verify", "--config", cfg, "--json", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "--config", cfg, "--json", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_perturbation_flags_anticommutator(tmp_path, capsys):
    cfg = _write(tmp_path, "v.json", FAST_VERIFY)
    code = main(["verify", "--config", cfg, "--json", "--perturb", "1e-6"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["gamma.anticommutation"]


def test_verify_human_output_and_file(tmp_path, capsys):
    cfg = _write(tmp_path, "v.json", FAST_VERIFY)
    out_path = tmp_path / "report.json"
    code = main(["verify", "--config", cfg, "--out", str(out_path)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "pass" in printed and "0 failed" in printed
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["summary"]["all_passed"] is True


def test_verify_rejects_bad_kappa(capsys):
    assert main(["verify", "--kappa", "-2"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_example_json(capsys):
    code = main(["example", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["Q_rel_error"] < 1e-8
    assert rep["E_cl"] < rep["E"]
    assert rep["ratio"] == pytest.approx(1.9747099025144845, rel=1e-10)
    assert rep["kappa_a"] == 1.0


def test_example_human_output(capsys):
    code = main(["example", "--kappa", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rel error" in out and "below E: True" in out


def test_example_rejects_nonpositive_scale(capsys):
    assert main(["example", "--a", "-1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_sample_field_vacuum_zeroes_field_columns(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "vac.json",
        {"profile": "tabulated", "k": [0.0, 1.0], "rho": [0.0, 0.0]},
    )
    code = main(["sample-field", "--config", cfg, "--nodes", "60"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    # default grid is 5 x 5
    assert len(lines) == 26
    header = lines[0].split(",")
    assert header[:4] == ["x0", "x1", "x2", "x3"]
    assert header[4:6] == ["re_phi1", "im_phi1"]
    assert header[-4:] == ["r0", "r1", "r2", "r3"]
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert cells[4:12] == [0.0] * 8


def test_sample_field_grid_and_values(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "flat.json",
        {
            "profile": "tabulated",
            "k": [0.0, 1.0],
            "rho": [0.5, 0.5],
            "grid": {"t": [0.0, 1.0, 10], "x": [0.0, 2.0, 10], "y": 0.25, "z": -0.5},
        },
    )
    code = main(["sample-field", "--config", cfg, "--nodes", "80"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 101

    family = family_from_config(json.loads((tmp_path / "flat.json").read_text()))
    spec = QuadratureSpec(n_radial=80, r_max=40.0, n_theta=24)
    first = np.array([0.0, 0.0, 0.25, -0.5])
    phi = classical_spinor(family, first, spec, PhysicalConstants())
    cells = [float(c) for c in lines[1].split(",")]
    assert cells[:4] == [0.0, 0.0, 0.25, -0.5]
    # the grid run batches all points through one matrix product, so agree
    # only to summation-order roundoff
    assert cells[4] == pytest.approx(phi[0].real, abs=1e-14)
    assert cells[5] == pytest.approx(phi[0].imag, abs=1e-14)


def test_sample_field_writes_csv_file(tmp_path):
    cfg = _write(
        tmp_path,
        "flat.json",
        {
            "profile": "tabulated",
            "k": [0.0, 1.0],
            "rho": [0.5, 0.5],
            "grid": {"t": [0.0, 0.0, 1], "x": [0.0, 1.0, 3]},
        },
    )
    out_path = tmp_path / "field.csv"
    code = main(["sample-field", "--config", cfg, "--nodes", "60", "--out", str(out_path)])
    assert code == 0
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").count("\n") == 4


def test_sample_field_angular_guard_trips(tmp_path, capsys):
    # a wide momentum ball sampled far out exceeds the base sphere bandwidth
    cfg = _write(
        tmp_path,
        "wide.json",
        {
            "profile": "tabulated",
            "k": [0.0, 30.0],
            "rho": [0.5, 0.5],
            "grid": {"t": [0.0, 0.0, 1], "x": [3.0, 3.0, 1]},
        },
    )
    code = main(["sample-field", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 1
    assert "numerical failure" in err


def test_nan_inputs_fail_numerically(tmp_path, capsys):
    assert main(["example", "--a", "nan", "--json"]) == 1
    cfg = _write(
        tmp_path,
        "nan.json",
        {
            "profile": "tabulated",
            "k": [0.0, 1.0],
            "rho": [float("nan"), 0.5],
            "grid": {"t": [0.0, 0.0, 1], "x": [0.0, 1.0, 2]},
        },
    )
    assert main(["sample-field", "--config", cfg, "--nodes", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("numerical failure") == 2


def test_configuration_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["sample-field", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err

    as_list = tmp_path / "list.json"
    as_list.write_text("[1, 2]", encoding="utf-8")
    assert main(["sample-field", "--config", str(as_list)]) == 2

    unknown = _write(tmp_path, "unk.json", {"profile": "bogus"})
    assert main(["sample-field", "--config", unknown]) == 2

    missing = str(tmp_path / "absent.json")
    assert main(["verify", "--config", missing]) == 2


def test_usage_errors_exit_two(capsys):
    assert main(["sample-field"]) == 2  # --config is required
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out
