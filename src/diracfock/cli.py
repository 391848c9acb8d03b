"""Command-line front end.

Three subcommands:

    verify        run every named identity check, emit a report
    example       energies, charge, and ratio of the spin-up profile
    sample-field  classical field and densities over a spacetime grid

Exit codes: 0 on success, 1 on a numerical failure (a failed check or a
quadrature that refuses to converge), 2 on usage or configuration errors.
JSON output always uses sorted keys, so identical inputs give identical
bytes.  CSV output is comma-separated UTF-8 with LF line endings.
"""

import argparse
import csv
import json
import sys

import numpy as np

from .constants import PhysicalConstants
from .expectation import classical_spinor, example_report, r_density
from .quadrature import Diverged, QuadratureNotConverged, QuadratureSpec
from .states import family_from_config
from .verify import run_suite

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diracfock",
        description="Verification and evaluation tools for the per-mode Dirac field.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the named identity checks")
    v.add_argument("--config", help="JSON file with seed, counts, kappa, perturb")
    v.add_argument("--seed", type=int, default=None, help="sampling seed (default 0)")
    v.add_argument("--kappa", type=float, default=None, help="inverse Compton length")
    v.add_argument("--perturb", type=float, default=None,
                   help="fault-injection size for the gamma self-test")
    v.add_argument("--json", action="store_true", help="print the JSON report")
    v.add_argument("--out", help="write the JSON report to this path")

    e = sub.add_parser("example", help="spin-up profile energies and charge")
    e.add_argument("--a", type=float, default=1.0, help="profile scale")
    e.add_argument("--kappa", type=float, default=1.0)
    e.add_argument("--ell", type=float, default=1.0, help="normalization length")
    e.add_argument("--nodes", type=int, default=200, help="radial quadrature nodes")
    e.add_argument("--rmax", type=float, default=40.0, help="radial truncation")
    e.add_argument("--json", action="store_true")
    e.add_argument("--out", help="write the JSON report to this path")

    s = sub.add_parser("sample-field", help="tabulate classical fields on a grid")
    s.add_argument("--config", required=True,
                   help="JSON file with the state profile, constants, and grid")
    s.add_argument("--nodes", type=int, default=200)
    s.add_argument("--rmax", type=float, default=40.0)
    s.add_argument("--out", help="CSV output path (default stdout)")
    return p


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def _emit_json(payload: dict, out, to_stdout: bool):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    if to_stdout or not out:
        print(text)


def cmd_verify(args) -> int:
    config = _load_json(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    kappa = args.kappa if args.kappa is not None else float(config.get("kappa", 1.0))
    perturb = args.perturb if args.perturb is not None else float(config.get("perturb", 0.0))
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    consts = PhysicalConstants(kappa=kappa)
    report = run_suite(
        seed=seed,
        n_spinor=int(config.get("n_spinor", 1000)),
        n_operator=int(config.get("n_operator", 100)),
        consts=consts,
        perturb=perturb,
    )
    if args.json or args.out:
        _emit_json(report.as_dict(), args.out, args.json)
    if not args.json:
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"{status}  {c.name:40s} residual {c.residual:.3e}  tol {c.tolerance:.0e}")
        print(f"{len(report.checks)} checks, {report.n_failed} failed")
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def cmd_example(args) -> int:
    if args.a <= 0 or args.kappa <= 0 or args.ell <= 0:
        raise ValueError("a, kappa, and ell must be positive")
    consts = PhysicalConstants(kappa=args.kappa, ell=args.ell)
    spec = QuadratureSpec(n_radial=args.nodes, r_max=args.rmax)
    rep = example_report(args.a, consts, spec)
    payload = rep.as_dict()
    if args.json or args.out:
        _emit_json(payload, args.out, args.json)
    if not args.json:
        print(f"a = {rep.a}, kappa a = {rep.kappa_a}")
        print(f"E     = {rep.E!r}")
        print(f"E_cl  = {rep.E_cl!r}  (below E: {rep.E_cl < rep.E})")
        print(f"Q     = {rep.Q!r}")
        print(f"Q closed form q pi^3 l^3 / (3 a^3) = {rep.Q_closed!r}"
              f"  rel error {rep.Q_rel_error:.3e}")
        print(f"E / (rest energy per charge) = {rep.ratio!r}")
        print(f"reduced integrals: I_E = {rep.I_E!r}, I_Ecl = {rep.I_Ecl!r}, I_Q = {rep.I_Q!r}")
    return EXIT_OK


def _axis(spec, name):
    if not (isinstance(spec, (list, tuple)) and len(spec) == 3):
        raise ValueError(f"grid axis {name} must be [start, stop, count]")
    start, stop, count = float(spec[0]), float(spec[1]), int(spec[2])
    if count < 1:
        raise ValueError(f"grid axis {name} needs a positive count")
    return np.linspace(start, stop, count)


def _grid_points(config) -> np.ndarray:
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise ValueError("grid must be an object")
    ts = _axis(grid.get("t", [0.0, 1.0, 5]), "t")
    xs = _axis(grid.get("x", [0.0, 1.0, 5]), "x")
    y = float(grid.get("y", 0.0))
    z = float(grid.get("z", 0.0))
    points = [(t, x, y, z) for t in ts for x in xs]
    return np.array(points, dtype=float)


def cmd_sample_field(args) -> int:
    config = _load_json(args.config)
    family = family_from_config(config)
    consts = PhysicalConstants(
        kappa=float(config.get("kappa", 1.0)),
        ell=float(config.get("ell", 1.0)),
        q=float(config.get("q", 1.0)),
    )
    # one resolution knob: the angular rule scales with the radial count,
    # since wide spatial grids need higher sphere bandwidth k|x|
    spec = QuadratureSpec(
        n_radial=args.nodes,
        r_max=args.rmax,
        n_theta=max(24, args.nodes * 24 // 200),
    )
    points = _grid_points(config)
    phi = classical_spinor(family, points, spec, consts)
    dens = r_density(family, points, spec, consts)
    header = ["x0", "x1", "x2", "x3"]
    header += [f"{part}_phi{r}" for r in range(1, 5) for part in ("re", "im")]
    header += ["r0", "r1", "r2", "r3"]
    rows = []
    for pt, ph, de in zip(points, phi, dens):
        row = [repr(float(c)) for c in pt]
        for r in range(4):
            row.append(repr(float(ph[r].real)))
            row.append(repr(float(ph[r].imag)))
        row += [repr(float(c)) for c in de]
        rows.append(row)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    handlers = {
        "verify": cmd_verify,
        "example": cmd_example,
        "sample-field": cmd_sample_field,
    }
    try:
        return handlers[args.command](args)
    except (Diverged, QuadratureNotConverged) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
