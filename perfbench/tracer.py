"""Spans around the calls one diracfock module makes into another.

The package itself carries no instrumentation.  A Tracer replaces names at
their call sites (a function imported into a module, a module object held
by another module, or a method on a state-family class) with wrappers
that record a span: layer, function, parent span, start and end.  A
layer's self time is its span time minus the time of the wrapped spans it
caused, so each second is charged to exactly one layer.

Counters are kept at the same boundaries: wave-vector nodes handed to the
state families and the spinor columns, and the nodes spent under a
doubled QuadratureSpec (the cutoff-doubling guard).

Spans stay in memory until dump(); uninstall() puts every original back.
"""

import inspect
import time
import tracemalloc


class Tracer:
    def __init__(self):
        # (span id, parent id, layer, name, tag, start, end, self seconds)
        self.spans = []
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self._patches = []
        self.counts = {"states.nodes": 0, "states.guard_nodes": 0, "spinors.nodes": 0}
        self.peak_mb = 0.0
        self._doubled_n = set()
        self._guard = False

    # -- spans ---------------------------------------------------------

    def wrap(self, fn, layer, name=None, tag="", hook=None, memory=False):
        """fn wrapped in a span; hook(args, result) runs after each call."""
        name = name or fn.__name__
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            watch = memory and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if watch:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_mb = max(tracer.peak_mb, peak / 2**20)
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
                tracer.spans.append((sid, parent, layer, name, tag, t0, t1, t1 - t0 - frame[1]))
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, layer, **kw):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, name=attr, **kw))

    def patch_module_ref(self, owner, attr, layer):
        """Replace the module `owner.attr` by a stand-in whose functions are wrapped."""
        module = getattr(owner, attr)
        self._patches.append((owner, attr, module))
        setattr(owner, attr, _ModuleStandIn(module, self, layer))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ------------------------------------------------------

    def _count_doubled(self, args, spec):
        self._doubled_n.add(spec.n_radial)

    def _note_rule(self, args, result):
        # radial_rule(upper, n, ...): nodes that follow belong to the guard
        # when n is the radial count of a doubled spec
        self._guard = args[1] in self._doubled_n

    def _count_state_nodes(self, args, result):
        n = len(result)
        self.counts["states.nodes"] += n
        if self._guard:
            self.counts["states.guard_nodes"] += n

    def _count_spinor_nodes(self, args, result):
        self.counts["spinors.nodes"] += result.shape[0] if result.ndim > 2 else 1

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every cross-module call site the benchmark reports on."""
        from diracfock import cli, currents, expectation, fields, quadrature, states, verify

        self.patch(cli, "run_suite", "verify")
        self.patch(cli, "family_from_config", "states")
        for attr in ("classical_spinor", "r_density"):
            self.patch(cli, attr, "expectation", memory=True)
        # no memory watch here: tracemalloc triples the cold Gauss-rule time
        self.patch(cli, "example_report", "expectation")

        self.patch(expectation, "radial_rule", "quadrature", hook=self._note_rule)
        self.patch(expectation, "angular_rule", "quadrature")
        for attr in ("u_columns", "v_columns"):
            self.patch(expectation, attr, "spinors", tag="columns",
                       hook=self._count_spinor_nodes if attr == "u_columns" else None)
        self.patch(expectation, "charge_operator", "fock")
        for cls in (states.RhoStateFamily, states.GeneralStateFamily):
            self.patch(cls, "coefficients", "states", hook=self._count_state_nodes)
        self.patch(quadrature.QuadratureSpec, "doubled", "quadrature", hook=self._count_doubled)

        self.patch_module_ref(verify, "fields", "fields")
        self.patch_module_ref(verify, "currents", "currents")
        self.patch_module_ref(verify, "fock", "fock")
        self.patch(verify, "identity_suite_batch", "spinors", tag="identity")
        for attr in ("hamiltonian", "mode_annihilator", "mode_creator"):
            self.patch(fields, attr, "fock")
        for attr in ("plane_phase", "psi_matrices", "psi_adjoint_matrices"):
            self.patch(currents, attr, "fields")
        for attr in ("charge_operator", "mode_annihilator", "mode_creator"):
            self.patch(currents, attr, "fock")
        return self

    # -- results -------------------------------------------------------

    def totals(self) -> dict:
        """Additive per-layer sums; merge() combines them across processes."""
        out = dict(self.counts)
        out["expectation.peak_traced_mb"] = self.peak_mb
        for _, _, layer, name, tag, t0, t1, self_s in self.spans:
            _add(out, f"{layer}.calls", 1)
            _add(out, f"{layer}.self_s", self_s)
            if layer == "spinors":
                _add(out, f"spinors.{tag}_s", t1 - t0)
            if tag == "general":
                _add(out, "expectation.general_self_s", self_s)
            if name == "fock_charge_conjugation":
                _add(out, "fields.conjugation_s", t1 - t0)
        return out

    def dump(self) -> dict:
        return {"totals": self.totals(), "spans": self.spans}

    def first_span_s(self, layer) -> float:
        starts = [(t0, t1) for _, _, lay, _, _, t0, t1, _ in self.spans if lay == layer]
        if not starts:
            return 0.0
        t0, t1 = min(starts)
        return t1 - t0


class _ModuleStandIn:
    """Attribute access like the module, with its functions wrapped."""

    def __init__(self, module, tracer, layer):
        self._module = module
        self._tracer = tracer
        self._layer = layer
        self._wrapped = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not inspect.isfunction(value):
            return value
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.wrap(value, self._layer, name=name)
        return self._wrapped[name]


def _add(d, key, value):
    d[key] = d.get(key, 0) + value


def merge(parts) -> dict:
    out = {}
    for part in parts:
        for key, value in part.items():
            if key == "expectation.peak_traced_mb":
                out[key] = max(out.get(key, 0.0), value)
            else:
                _add(out, key, value)
    return out
