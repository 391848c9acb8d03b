"""Fresh-interpreter measurements; `import diracfock` is the first import timed.

    python3 perfbench/startup.py setup <workload> <seed> <workdir>
        import diracfock and build the workload's inputs; prints setup_s,
        then the environment (taken after the timing).
    python3 -X importtime perfbench/startup.py probe
        import diracfock, then one cold and one warm in-process `example`
        call under the Tracer; run.py reads the import tree from stderr.
    python3 perfbench/startup.py cli <dump.json> <diracfock cli args...>
        one traced CLI run: the cli_cold op with spans; writes the spans
        and their totals to <dump.json>, exits with the CLI's code.
"""

import sys
import time

t0 = time.perf_counter()
import diracfock  # noqa: E402,F401  (timed: the first import of the package)

IMPORT_S = time.perf_counter() - t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def setup(workload, seed, workdir):
    t = time.perf_counter()
    workloads.build_inputs(workload, int(seed), workdir)
    setup_s = IMPORT_S + time.perf_counter() - t
    print(json.dumps({"setup_s": setup_s, "env": workloads.environment()}))
    return 0


def probe():
    from diracfock import cli

    tr = tracing.Tracer().install()
    main = tr.wrap(cli.main, "cli", name="main")
    times = []
    for _ in range(2):
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["example", "--json"])
        times.append(time.perf_counter() - t)
        if code != 0:
            return code
    tr.uninstall()
    print(json.dumps({
        "import_s": IMPORT_S,
        "cold_example_s": times[0],
        "warm_example_s": times[1],
        "first_rule_s": tr.first_span_s("quadrature"),
    }))
    return 0


def traced_cli(dump_path, *argv):
    from diracfock import cli

    tr = tracing.Tracer().install()
    code = tr.wrap(cli.main, "cli", name="main")(list(argv))
    tr.uninstall()
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "probe": probe, "cli": traced_cli}[mode](*rest))
