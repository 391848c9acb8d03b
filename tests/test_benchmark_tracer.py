"""The benchmark's traced run can still wrap every call site it names.

perfbench/tracer.py patches functions at their call sites by name; a
refactor that moves or renames one of them would break
`perfbench/run.py --trace 1`.  This test loads the tracer by path,
installs it against the package and takes it off again.
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # executed from source, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_restores_every_patch():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert _current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, (owner, attr)
