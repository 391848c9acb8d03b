"""Command-line behavior: exit codes, report formats, the CSV contract."""

import json
import warnings

import numpy as np
import pytest

from diracfock.cli import _load_json, main
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


def test_verify_rejects_infinite_kappa_by_name(capsys):
    # no solve runs, so no RuntimeWarning or LAPACK error comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--kappa", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: kappa must be finite" in captured.err


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


def test_example_rejects_infinite_length(capsys):
    assert main(["example", "--ell", "inf", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: ell must be finite" in captured.err


def test_example_overflow_fails_numerically(capsys):
    # ell**3 overflows a double; main reports it instead of raising
    assert main(["example", "--ell", "1e200", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: overflow" in captured.err


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


def test_sample_field_radial_guard_trips(tmp_path, capsys):
    # a wide momentum ball sampled far out oscillates k |x| <= 90 radians
    # along the radius, beyond what 20 radial nodes resolve
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
    code = main(["sample-field", "--config", cfg, "--nodes", "20"])
    err = capsys.readouterr().err
    assert code == 1
    assert "numerical failure" in err and "refinement moved" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_scale_is_a_configuration_error(capsys, value):
    # a NaN scale once reached the quadrature guards and exited 1
    assert main(["example", "--a", value, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"configuration error: scale a must be finite, got {value}") == 1


def test_example_rejects_non_finite_report(capsys):
    # ell and ell**3 are finite, but the closed-form charge overflows
    assert main(["example", "--ell", "2e102", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: report field Q_closed is inf" in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ("NaN", "config holds the non-finite number NaN"),
        ("Infinity", "config holds the non-finite number Infinity"),
        ("-Infinity", "config holds the non-finite number -Infinity"),
        ("1e400", "config number 1e400 is beyond the double range"),
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, capsys, text, message):
    # the tabulated density once reached the quadrature guard and exited 1
    sample = tmp_path / "sample.json"
    sample.write_text(
        '{"profile": "tabulated", "k": [0.0, 1.0], "rho": [%s, 0.5]}' % text, encoding="utf-8"
    )
    assert main(["sample-field", "--config", str(sample), "--nodes", "20"]) == 2
    verify = tmp_path / "verify.json"
    verify.write_text('{"kappa": %s}' % text, encoding="utf-8")
    assert main(["verify", "--config", str(verify)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"configuration error: {message}") == 2


def test_config_integer_beyond_double_range(tmp_path, capsys):
    # such an integer once reached float() in cmd_verify and exited 1 as an overflow
    number = "1" + "0" * 400
    cfg = tmp_path / "verify.json"
    cfg.write_text('{"kappa": %s}' % number, encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"configuration error: config number {number} is beyond the double range" in captured.err


def test_config_integers_still_load(tmp_path, capsys):
    cfg = _write(tmp_path, "v.json", dict(FAST_VERIFY, seed=3))
    config = _load_json(cfg)
    assert config["seed"] == 3 and type(config["seed"]) is int
    # the config's seed selects the same samples as the flag
    assert main(["verify", "--config", cfg, "--json"]) == 0
    from_config = capsys.readouterr().out
    flag = _write(tmp_path, "flag.json", FAST_VERIFY)
    assert main(["verify", "--config", flag, "--seed", "3", "--json"]) == 0
    assert capsys.readouterr().out == from_config


def test_nan_grid_axis_is_a_configuration_error(tmp_path, capsys):
    # a NaN grid axis once exited 1, as a non-finite result
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"profile": "sech2", "grid": {"t": [0.0, NaN, 2]}}', encoding="utf-8")
    assert main(["sample-field", "--config", str(cfg), "--nodes", "20"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid, message",
    [
        # a quoted number is not a number, so no string reaches the grid as infinite
        ({"x": [0.0, "inf", 2]}, "grid axis x end must be a number, got 'inf'"),
        ({"t": ["nan", 1.0, 2]}, "grid axis t end must be a number, got 'nan'"),
        ({"y": "-inf"}, "grid y must be a number, got '-inf'"),
        # the count is read exactly, not truncated
        ({"t": [0.0, 1.0, 2.5]}, "grid axis t count must be an integer, got 2.5"),
        ({"x": [0.0, 1.0, True]}, "grid axis x count must be an integer, got True"),
        ({"x": [0.0, 1.0, 0]}, "grid axis x count must be at least 1, got 0"),
    ],
)
def test_grid_values_must_be_finite(tmp_path, capsys, grid, message):
    cfg = _write(tmp_path, "grid.json", {"profile": "sech2", "grid": grid})
    assert main(["sample-field", "--config", cfg, "--nodes", "20"]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_non_finite_options_are_configuration_errors(tmp_path, capsys):
    assert main(["example", "--rmax", "nan"]) == 2
    assert "r_max and abs_tol must be finite" in capsys.readouterr().err
    assert main(["verify", "--perturb", "inf"]) == 2
    assert "perturb must be finite" in capsys.readouterr().err


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

    # config integers are read exactly, never truncated, and the message names the key
    for command, payload, message in [
        ("verify", {"n_operator": 2.7}, "n_operator must be an integer, got 2.7"),
        ("verify", {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("verify", {"seed": True}, "seed must be an integer, got True"),
        ("verify", {"n_spinor": False}, "n_spinor must be an integer, got False"),
        ("verify", {"n_operator": 0}, "n_operator must be at least 1, got 0"),
        ("verify", {"n_spinor": -3}, "n_spinor must be at least 1, got -3"),
        ("sample-field", {"profile": "sech2", "occupied": 4.9}, "occupied must be an integer"),
        ("sample-field", {"profile": "sech2", "occupied": True}, "occupied must be an integer"),
        # config numbers of the wrong JSON type, and the message names the key
        ("verify", {"kappa": [1]}, "kappa must be a number, got [1]"),
        ("verify", {"perturb": False}, "perturb must be a number, got False"),
        ("sample-field", {"profile": "sech2", "a": {"x": 1}}, "a must be a number, got {'x': 1}"),
        ("sample-field", {"profile": "sech2", "a": True}, "a must be a number, got True"),
        ("sample-field", {"profile": "sech2", "chi": [1]}, "chi must be a number, got [1]"),
        ("sample-field", {"profile": "sech2", "kappa": None}, "kappa must be a number, got None"),
        ("sample-field", {"profile": "step", "kmax": "big"}, "kmax must be a number, got 'big'"),
        # quoted numbers are refused, not parsed
        ("verify", {"kappa": "1"}, "kappa must be a number, got '1'"),
        ("verify", {"seed": "3"}, "seed must be an integer, got '3'"),
        (
            "sample-field",
            {"profile": "sech2", "grid": {"t": [[0], 1, 2]}},
            "grid axis t end must be a number, got [0]",
        ),
        ("sample-field", {"profile": "sech2", "grid": {"y": [0]}}, "grid y must be a number"),
        (
            "sample-field",
            {"profile": "tabulated", "k": [0.0, {"x": 1}], "rho": [0.5, 0.5]},
            "k[1] must be a number, got {'x': 1}",
        ),
        (
            "sample-field",
            {"profile": "tabulated", "k": [0.0, 1.0], "rho": [0.5, None]},
            "rho[1] must be a number, got None",
        ),
        (
            "sample-field",
            {"profile": "tabulated", "k": [0.0, 1.0], "rho": {"x": 1}},
            "tabulated profile needs k and rho arrays",
        ),
    ]:
        cfg = _write(tmp_path, "integer.json", payload)
        assert main([command, "--config", cfg]) == 2, payload
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"configuration error: {message}" in captured.err


def test_usage_errors_exit_two(capsys):
    assert main(["sample-field"]) == 2  # --config is required
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out
