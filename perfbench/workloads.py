"""The four workloads: their inputs, their ops and the gate each op must pass.

Run by run.py, one workload per process:

    python3 perfbench/workloads.py run   <workload> <seed> <seconds> <perturb>
    python3 perfbench/workloads.py trace <workload> <seed> <seconds> <perturb>

and prints one JSON line.  `run` repeats rounds until the next one would
end after <seconds>; `trace` runs one round untraced and the same round
under the Tracer.  A round is the unit `wall_s` times: two run_suite ops
on one seed (verify_suite), one sample-field op (field_grid), one audit
bundle (field_audit), or ROUND_CLI fresh `example` processes (cli_cold).

An op fails when it raises, exits non-zero, or fails its gate.  Gates run
after the round, outside every timing.
"""

import json
import math
import os
import random
import resource
import subprocess
import sys
import time

import numpy as np
from diracfock import (
    GeneralStateFamily,
    PhysicalConstants,
    QuadratureSpec,
    classical_spinor,
    cli,
    example_report,
    family_from_config,
    gaussian_family,
    natural_units,
    run_suite,
    sech2_family,
)
from diracfock import expectation as ex

import tracer as tracing

WORKLOADS = ("verify_suite", "field_grid", "field_audit", "cli_cold")
POOL = 16  # rounds of inputs drawn per run; runs needing more cycle through them
ROUND_CLI = 4
HERE = os.path.dirname(os.path.abspath(__file__))


# -- inputs -----------------------------------------------------------------


def build_inputs(workload: str, seed: int, workdir: str) -> list:
    """POOL rounds of inputs, a function of (workload, seed) only."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for i in range(POOL):
        if workload == "verify_suite":
            rounds.append({"seed": rng.randrange(2**32)})
        elif workload == "field_grid":
            # the flat tabulated profile of the CLI grid test, y and z from the seed
            config = {
                "profile": "tabulated",
                "k": [0.0, 1.0],
                "rho": [0.5, 0.5],
                "grid": {"t": [0.0, 1.0, 10], "x": [0.0, 2.0, 10],
                         "y": rng.uniform(-0.5, 0.5), "z": rng.uniform(-0.5, 0.5)},
            }
            path = os.path.join(workdir, f"grid{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            rounds.append({"config": path, "out": os.path.join(workdir, f"grid{i}.csv")})
        elif workload == "field_audit":
            radial = sech2_family(1.0)
            rounds.append({
                "xs": np.array([[rng.uniform(-1.0, 1.0) for _ in range(4)] for _ in range(3)]),
                "family": radial,
                "other": gaussian_family(1.0),
                # same coefficients, but no radial structure visible to the engine
                "general": GeneralStateFamily(radial.coefficients, radial.k_cutoff),
                "spec": QuadratureSpec(),
                "consts": natural_units(),
            })
        elif workload == "cli_cold":
            rounds.append({"args": [
                (math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
                 math.exp(rng.uniform(math.log(0.3), math.log(3.0))))
                for _ in range(ROUND_CLI)
            ]})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return rounds


def warm_up():
    """One quick engine call, so one-time LAPACK set-up is not charged to the
    first op of an in-process workload; cli_cold is where that cost shows."""
    example_report(1.0, natural_units(), QuadratureSpec())


# -- ops and gates ------------------------------------------------------------
# ops_*(inp, perturb, tr) runs one round and returns (wall seconds, outputs),
# one (seconds, output or exception) per op; gate_*(inp, outputs) returns one
# failure message or None per op.  tr, when given, is an installed Tracer.


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # an op that raises is a counted failure
        out = exc
    return time.perf_counter() - t0, out


def ops_verify(inp, perturb, tr=None):
    fn = tr.wrap(run_suite, "verify") if tr else run_suite
    t0 = time.perf_counter()
    outs = [_timed(fn, seed=inp["seed"], perturb=perturb) for _ in range(2)]
    return time.perf_counter() - t0, outs


def gate_verify(inp, outs):
    msgs, texts = [], []
    for _, rep in outs:
        if isinstance(rep, Exception):
            msgs.append(f"run_suite raised {rep!r}")
            texts.append(None)
            continue
        texts.append(json.dumps(rep.as_dict(), sort_keys=True))
        bad = [c.name for c in rep.checks if not c.passed]
        msgs.append(f"seed {inp['seed']}: failed checks {bad}" if bad else None)
    if None not in texts and texts[0] != texts[1] and msgs[1] is None:
        msgs[1] = f"seed {inp['seed']}: the second report differs from the first"
    return msgs


def ops_field_grid(inp, perturb, tr=None):
    main = tr.wrap(cli.main, "cli", name="main") if tr else cli.main
    argv = ["sample-field", "--config", inp["config"], "--nodes", "80", "--out", inp["out"]]
    out = _timed(main, argv)
    return out[0], [out]


def gate_field_grid(inp, outs):
    code = outs[0][1]
    if isinstance(code, Exception) or code != 0:
        return [f"sample-field returned {code!r}"]
    with open(inp["out"], encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    if len(lines) != 101:
        return [f"sample-field wrote {len(lines)} lines, expected 101"]
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    if not np.all(np.isfinite(rows)):
        return ["sample-field wrote a non-finite value"]
    if np.min(rows[:, 12]) < 0.0:
        return [f"r0 negative: {np.min(rows[:, 12])!r}"]
    with open(inp["config"], encoding="utf-8") as fh:
        family = family_from_config(json.load(fh))
    # the spec the CLI builds for --nodes 80; check=False returns the same
    # base-spec value, whose doubling guard the op has already passed
    spec = QuadratureSpec(n_radial=80, r_max=40.0, n_theta=24)
    phi = classical_spinor(family, rows[0, :4], spec, PhysicalConstants(), check=False)
    direct = np.column_stack([phi.real, phi.imag]).ravel()
    err = float(np.max(np.abs(rows[0, 4:12] - direct)))
    if err > 1e-14:
        return [f"first row differs from a direct classical_spinor by {err:.3e}"]
    return [None]


_AUDIT = ("classical_dirac_residual", "two_point_dirac_residual",
          "r_density_residuals", "current_reality_residual")


def ops_field_audit(inp, perturb, tr=None):
    fam, xs, spec, consts = inp["family"], inp["xs"], inp["spec"], inp["consts"]
    fns = {name: getattr(ex, name) for name in _AUDIT}
    general_spinor = ex.classical_spinor
    if tr:
        fns = {name: tr.wrap(fn, "expectation", memory=True) for name, fn in fns.items()}
        general_spinor = tr.wrap(general_spinor, "expectation", tag="general", memory=True)

    def bundle():
        # criterion 9's bundle at the default spec, then one general-family spinor
        return (
            fns["classical_dirac_residual"](fam, xs, spec, consts, check=False),
            fns["two_point_dirac_residual"](fam, fam, xs[1], xs[2], spec, consts),
            fns["r_density_residuals"](fam, xs, spec, consts),
            fns["current_reality_residual"](fam, inp["other"], xs[1], spec, consts),
            general_spinor(inp["general"], xs[1], spec, consts, check=False),
        )

    out = _timed(bundle)
    return out[0], [out]


def gate_field_audit(inp, outs):
    result = outs[0][1]
    if isinstance(result, Exception):
        return [f"audit bundle raised {result!r}"]
    cl, tp, audits, reality, phi_general = result
    spec = inp["spec"]
    limit = 10.0 * spec.abs_tol  # criterion 9
    for name, value in (("classical residual", cl), ("two-point residual", tp),
                        ("continuity", audits["continuity"]),
                        ("imag_max", audits["imag_max"]),
                        ("negative r0_min", -audits["r0_min"]),
                        ("reality residual", reality)):
        if not value <= limit:
            return [f"{name} {value!r} beyond {limit:.0e}"]
    phi_radial = classical_spinor(inp["family"], inp["xs"][1], spec, inp["consts"], check=False)
    gap = float(np.max(np.abs(phi_general - phi_radial)))
    if not gap <= spec.abs_tol:
        return [f"general-family spinor differs from the radial one by {gap:.3e}"]
    return [None]


def ops_cli(inp, perturb, trace_dir=None):
    """Fresh `example` processes, one at a time; traced ones run under startup.py."""
    outs = []
    t0 = time.perf_counter()
    for i, (a, kappa) in enumerate(inp["args"]):
        argv = ["example", "--json", "--a", repr(a), "--kappa", repr(kappa)]
        if trace_dir:
            cmd = [sys.executable, os.path.join(HERE, "startup.py"), "cli",
                   os.path.join(trace_dir, f"cli{i}.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "diracfock", *argv]
        outs.append(_timed(subprocess.run, cmd, capture_output=True, text=True))
    return time.perf_counter() - t0, outs


def gate_cli(inp, outs):
    msgs = []
    for (a, _), (_, proc) in zip(inp["args"], outs):
        msgs.append(_example_gate(a, proc))
    return msgs


def _example_gate(a, proc):
    if isinstance(proc, Exception):
        return f"example --a {a!r} could not start: {proc!r}"
    if proc.returncode != 0:
        return f"example --a {a!r} exited {proc.returncode}"
    try:
        rep = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return f"example --a {a!r} printed no JSON"
    closed = math.pi**3 / (3.0 * a**3)  # q = ell = 1
    if not abs(rep["Q"] - closed) <= 1e-8 * closed:
        return f"example --a {a!r}: Q {rep['Q']!r} vs closed form {closed!r}"
    if not rep["E_cl"] < rep["E"]:
        return f"example --a {a!r}: E_cl {rep['E_cl']!r} not below E {rep['E']!r}"
    return None


ROUNDS = {
    "verify_suite": (ops_verify, gate_verify),
    "field_grid": (ops_field_grid, gate_field_grid),
    "field_audit": (ops_field_audit, gate_field_audit),
    "cli_cold": (ops_cli, gate_cli),
}


# -- environment ---------------------------------------------------------------


def blas_info() -> dict:
    """BLAS build name and the thread count the library reports, if it can."""
    import ctypes
    import glob

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": f"{cfg.get('name')} {cfg.get('version')}", "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import platform

    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
    }


# -- worker entry ----------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process and of the op processes it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run(workload, seed, seconds, perturb, workdir):
    inputs = build_inputs(workload, seed, workdir)
    if workload != "cli_cold":
        warm_up()
    ops_fn, gate_fn = ROUNDS[workload]
    walls, op_s, failures, durations = [], [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        inp = inputs[len(walls) % POOL]
        wall, outs = ops_fn(inp, perturb)
        msgs = gate_fn(inp, outs)
        durations.append(time.perf_counter() - t)
        walls.append(wall)
        op_s += [s for s, _ in outs]
        failures += [m for m in msgs if m]
        # start another round only if it should end within the run's seconds
        if time.perf_counter() - start + sorted(durations)[len(durations) // 2] > seconds:
            break
    return {
        "round_wall_s": walls,
        "op_s": op_s,
        "attempted": len(op_s),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }


def trace(workload, seed, seconds, perturb, workdir):
    """One round untraced, then the same round traced; gates run after each."""
    inputs = build_inputs(workload, seed, workdir)
    if workload != "cli_cold":
        warm_up()
    ops_fn, gate_fn = ROUNDS[workload]
    tr = tracing.Tracer()
    walls, failures, attempted = [], [], 0
    for traced in (False, True):
        if not traced:
            wall, outs = ops_fn(inputs[0], perturb)
        elif workload == "cli_cold":
            wall, outs = ops_fn(inputs[0], perturb, trace_dir=workdir)
        else:
            try:
                wall, outs = ops_fn(inputs[0], perturb, tr=tr.install())
            finally:
                tr.uninstall()
        walls.append(wall)
        attempted += len(outs)
        failures += [m for m in gate_fn(inputs[0], outs) if m]
    if workload == "cli_cold":
        dumps = []
        for i in range(ROUND_CLI):
            with open(os.path.join(workdir, f"cli{i}.json"), encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        totals = tracing.merge(d["totals"] for d in dumps)
        spans = [d["spans"] for d in dumps]  # one list per op process
    else:
        totals, spans = tr.totals(), [tr.spans]
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "layer", "name", "tag", "start", "end", "self_s"],
                   "processes": spans}, fh)
    return {
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "totals": totals,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }


def main(argv) -> int:
    mode, workload, seed, seconds, perturb, workdir = argv
    fn = {"run": run, "trace": trace}[mode]
    result = fn(workload, int(seed), float(seconds), float(perturb), workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
