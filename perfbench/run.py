"""diracfock benchmark: four workloads, end-to-end metrics, a traced run per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root; the package is imported from src/.  The last
line of output is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
Raw samples and the environment go to perfbench/out/.  README.md in this
directory explains the workloads and metrics.

Standard library only.  Each workload runs in its own worker process, one
at a time, with BLAS and OpenMP held to one thread (THREADS).
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify_suite", "field_grid", "field_audit", "cli_cold")
SETUPS = 5  # fresh interpreters per run for setup_s
PROBES = 3  # fresh interpreters per traced run for the import and cold-start probe
DEADLINE_S = 170.0  # a run must end well inside 180 s
# One BLAS thread: on a 2-vCPU VM with CPU steal, two OpenBLAS threads made
# run_suite and sample-field both slower and wider in spread (README.md).
THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "cli.self_s": "s",
    "cli.cold_example_s": "s",
    "cli.warm_example_s": "s",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "quadrature.first_rule_s": "s",
    "states.calls": "count",
    "states.self_s": "s",
    "states.nodes": "count",
    "spinors.columns_s": "s",
    "spinors.nodes": "count",
    "spinors.ns_per_node": "ns",
    "spinors.identity_s": "s",
    "expectation.calls": "count",
    "expectation.self_s": "s",
    "expectation.ns_per_node": "ns",
    "expectation.general_self_s": "s",
    "expectation.guard_node_share": "ratio",
    "expectation.peak_traced_mb": "MB",
    "verify.self_s": "s",
    "fields.calls": "count",
    "fields.self_s": "s",
    "fields.conjugation_s": "s",
    "currents.calls": "count",
    "currents.self_s": "s",
    "fock.calls": "count",
    "fock.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values):
    """Latency at the highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported and the summary says so.
    """
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * i / (len(s) - 1)


def _child(cmd, env, deadline):
    """Run cmd to completion in its own process group; kill the group on timeout."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {' '.join(cmd[1:3])}")
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _import_tree(stderr):
    """(diracfock cumulative s, scipy s) from `python -X importtime` output.

    scipy time sums the cumulative time of every scipy module that is not
    itself imported inside another scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    total, scipy_s, stack = 0.0, 0.0, []
    for depth, name, cumulative in reversed(rows):  # parents before children
        del stack[depth:]
        if name == "diracfock" and depth == 0:
            total = cumulative
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for n in stack):
            scipy_s += cumulative
        stack.append(name)
    return total, scipy_s


def _environment(threads, args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_limit": threads,
        "git_commit": _git_commit(os.getcwd()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "perturb": args.perturb,
    }


def _layer_metrics(trace, probes):
    t = trace["totals"]
    med = {k: statistics.median(p[k] for p in probes) for k in probes[0] if k != "stderr"}
    imports = [_import_tree(p["stderr"]) for p in probes]

    def per_node(seconds, nodes):
        return 1e9 * seconds / nodes if nodes else 0.0

    states_nodes = t.get("states.nodes", 0)
    out = {
        "import.total_s": statistics.median(i[0] for i in imports),
        "import.scipy_s": statistics.median(i[1] for i in imports),
        "cli.cold_example_s": med["cold_example_s"],
        "cli.warm_example_s": med["warm_example_s"],
        "quadrature.first_rule_s": med["first_rule_s"],
        "spinors.ns_per_node": per_node(t.get("spinors.columns_s", 0.0), t.get("spinors.nodes", 0)),
        "expectation.ns_per_node": per_node(t.get("expectation.self_s", 0.0), states_nodes),
        "expectation.guard_node_share": (
            t.get("states.guard_nodes", 0) / states_nodes if states_nodes else 0.0
        ),
        "trace.untraced_wall_s": trace["untraced_wall_s"],
        "trace.traced_wall_s": trace["traced_wall_s"],
        "trace.overhead_s": trace["traced_wall_s"] - trace["untraced_wall_s"],
    }
    for name in PER_LAYER:
        out.setdefault(name, t.get(name, 0))
    return out


def run_workload(args, env, deadline):
    """Set-up samples, the worker, and the traced extras; returns the raw record."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = os.path.join(HERE, "out", f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        for i in range(SETUPS):
            sub = os.path.join(workdir, f"setup{i}")
            os.makedirs(sub)
            cmd = [sys.executable, os.path.join(HERE, "startup.py"), "setup",
                   args.workload, str(args.seed), sub]
            setups.append(_last_json(_child(cmd, env, deadline)[0]))
        mode = "trace" if args.trace else "run"
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), mode, args.workload,
               str(args.seed), str(args.seconds), repr(args.perturb), workdir]
        result = _last_json(_child(cmd, env, deadline)[0])
        probes = []
        if args.trace:
            for _ in range(PROBES):
                cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "startup.py"),
                       "probe"]
                out, err = _child(cmd, env, deadline)
                probes.append({**_last_json(out), "stderr": err})
            os.replace(os.path.join(workdir, "spans.json"),
                       os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "environment": {**_environment(env["OMP_NUM_THREADS"], args), **setups[0]["env"]},
        "setup_s_samples": [s["setup_s"] for s in setups],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
    }
    if args.trace:
        record["untraced_wall_s"] = result["untraced_wall_s"]
        record["traced_wall_s"] = result["traced_wall_s"]
        record["totals"] = result["totals"]
        record["probes"] = probes
        record["metrics"] = _layer_metrics(result, probes)
        return record
    ops, walls = result["op_s"], result["round_wall_s"]
    tail, tail_pct = _tail(ops)
    record.update({
        "op_s": ops,
        "round_wall_s": walls,
        "op_tail_percentile": tail_pct,
        "quartiles": {
            "setup_s": _quartiles(record["setup_s_samples"]),
            "wall_s": _quartiles(walls),
            "op_s": _quartiles(ops),
        },
        "metrics": {
            "setup_s": statistics.median(record["setup_s_samples"]),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(ops),
            "op_tail_s": tail,
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_frac": 1.0 - result["failed"] / result["attempted"],
        },
    })
    return record


def _summary(record, units):
    """Human-readable lines: each metric, with quartiles and counts where kept."""
    m = record["metrics"]
    lines = [f"{name:30s} {m[name]:.6g} {unit}" for name, unit in units.items()]
    if "op_s" in record:
        q = record["quartiles"]
        lines += [
            f"  setup_s quartiles {q['setup_s'][0]:.4g}..{q['setup_s'][1]:.4g} s, "
            f"n={len(record['setup_s_samples'])}",
            f"  wall_s quartiles {q['wall_s'][0]:.4g}..{q['wall_s'][1]:.4g} s, "
            f"n={len(record['round_wall_s'])} rounds",
            f"  op quartiles {q['op_s'][0]:.4g}..{q['op_s'][1]:.4g} s, n={len(record['op_s'])}; "
            f"tail at p{record['op_tail_percentile']:.0f}"
            + (" (fewer than 11 ops: the maximum)" if len(record["op_s"]) < 11 else ""),
            f"  failed_frac {record['failed']}/{record['attempted']}",
        ]
    lines += [f"  gate failure: {msg}" for msg in record["failures"][:10]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="verify_suite only: the run_suite fault hook, to show the gate counts failures")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "diracfock", "__init__.py")):
        print("run from the repository root: src/diracfock not found", file=sys.stderr)
        return 2
    if args.perturb and args.workload != "verify_suite":
        print("--perturb applies to verify_suite only", file=sys.stderr)
        return 2

    threads = str(min(THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    deadline = time.monotonic() + DEADLINE_S

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    records = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            records[name] = run_workload(one, env, deadline if len(names) == 1 else
                                         time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(_summary(records[name], units)))
        path = os.path.join(HERE, "out", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records[name], fh, indent=1)
        print(f"  raw record: {os.path.relpath(path)}")

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    metrics = {}
    for name, rec in records.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": rec["metrics"][metric], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
