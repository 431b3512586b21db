"""Per-layer tracing by wrapping moutard's public functions from outside.

A wrapper replaces a function in every moutard module that binds it, since
modules look names up in their own namespace (``transform`` imports ``d_z``
by name, so both ``moutard.wirtinger.d_z`` and ``moutard.transform.d_z`` are
patched).  Methods are patched on their class.

Each wrapped call is a span: name, start and end (``perf_counter_ns``), the
enclosing span and the operation id.  Spans stay in memory, as SPAN_FIELDS
64-bit integers each in one flat array (a verify run makes ~2 million), and
are written out when the run ends.  A layer's self time is its span time minus the time
of the traced calls inside it.  ``cpoly.horner`` is called ~10^4 times per
verify operation and has no traced callees, so it is counted and timed
without a span record.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute or Class.method, layer name, wrapper kind)
LAYERS = (
    ("moutard.cpoly", "roots", "cpoly.roots", "span"),
    ("moutard.cpoly", "horner", "cpoly.horner", "leaf"),
    ("moutard.wirtinger", "d_z", "wirtinger.stencil", "stencil"),
    ("moutard.wirtinger", "d_zbar", "wirtinger.stencil", "stencil"),
    ("moutard.wirtinger", "laplacian", "wirtinger.stencil", "stencil"),
    ("moutard.transform", "FaddeevParams.mu", "transform.mu", "span"),
    ("moutard.transform", "FaddeevParams.__post_init__", "transform.faddeev_params", "span"),
    ("moutard.transform", "moutard_residual", "transform.moutard_residual", "span"),
    ("moutard.transform", "harmonicity_check", "transform.harmonicity_check", "span"),
    ("moutard.transform", "verify_eigenfunction_identity", "transform.certificate", "span"),
    ("moutard.scattering", "sample_mu", "scattering.sample_mu", "span"),
    ("moutard.scattering", "fit_scattering", "scattering.fit_scattering", "span"),
    ("moutard.flow", "evolve", "flow.evolve", "span"),
    ("moutard.flow", "trajectory", "flow.trajectory", "trajectory"),
    ("moutard.flow", "verify_flow", "flow.verify_flow", "span"),
    ("moutard.cli", "main", "cli.main", "span"),
)
LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in LAYERS))

# One span record: layer index in LAYER_NAMES, start_ns, end_ns, parent span
# index (-1 at the top of an operation), operation id.
SPAN_FIELDS = 5

def _calls(layer):
    return lambda tr, ops: tr.calls[layer] / ops


def _self_ms(layer):
    return lambda tr, ops: tr.self_ns[layer] / 1e6 / ops


def _count(counter):
    return lambda tr, ops: tr.counts[counter] / ops


# Per-layer metrics: (name, unit, value from the tracer and the operation
# count).  All are per operation except cpoly.roots.ms_per_call.
PER_LAYER = (
    ("cpoly.roots.calls", "count", _calls("cpoly.roots")),
    ("cpoly.roots.self_ms", "ms", _self_ms("cpoly.roots")),
    ("cpoly.roots.ms_per_call", "ms",
     lambda tr, ops: tr.self_ns["cpoly.roots"] / 1e6 / max(1, tr.calls["cpoly.roots"])),
    ("cpoly.horner.calls", "count", _calls("cpoly.horner")),
    ("cpoly.horner.self_ms", "ms", _self_ms("cpoly.horner")),
    ("wirtinger.stencil.calls", "count", _calls("wirtinger.stencil")),
    ("wirtinger.stencil.samples", "count", _count("wirtinger.stencil.samples")),
    ("wirtinger.stencil.self_ms", "ms", _self_ms("wirtinger.stencil")),
    ("transform.mu.calls", "count", _calls("transform.mu")),
    ("transform.mu.self_ms", "ms", _self_ms("transform.mu")),
    ("transform.moutard_residual.self_ms", "ms", _self_ms("transform.moutard_residual")),
    ("transform.harmonicity_check.self_ms", "ms", _self_ms("transform.harmonicity_check")),
    ("transform.faddeev_params.calls", "count", _calls("transform.faddeev_params")),
    ("transform.faddeev_params.self_ms", "ms", _self_ms("transform.faddeev_params")),
    ("transform.certificate.calls", "count", _calls("transform.certificate")),
    ("transform.certificate.self_ms", "ms", _self_ms("transform.certificate")),
    ("scattering.sample_mu.self_ms", "ms", _self_ms("scattering.sample_mu")),
    ("scattering.fit_scattering.self_ms", "ms", _self_ms("scattering.fit_scattering")),
    ("flow.evolve.calls", "count", _calls("flow.evolve")),
    ("flow.evolve.self_ms", "ms", _self_ms("flow.evolve")),
    ("flow.trajectory.steps", "count", _count("flow.trajectory.steps")),
    ("flow.trajectory.self_ms", "ms", _self_ms("flow.trajectory")),
    ("flow.verify_flow.self_ms", "ms", _self_ms("flow.verify_flow")),
    ("cli.main.self_ms", "ms", _self_ms("cli.main")),
    ("cli.report_bytes", "bytes", _count("cli.report_bytes")),
)


class Tracer:
    """Wraps moutard's layers while installed; one tracer per run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        # Self time of the open operation as measured, then folded into
        # self_ns at the reference speed by close_op.
        self._op_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans = array("q")
        self.op = -1
        # Open frames: [ns spent in traced callees, index of the span].
        self._stack: list[list[int]] = [[0, -1]]
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, calls, self_ns = self.spans, self._stack, self.calls, self._op_ns
        layer, blank = LAYER_NAMES.index(name), array("q", bytes(8 * SPAN_FIELDS))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans) // SPAN_FIELDS
            spans.extend(blank)
            frame = [0, index]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                calls[name] += 1
                self_ns[name] += end - start - frame[0]
                parent[0] += end - start
                base = index * SPAN_FIELDS
                spans[base:base + SPAN_FIELDS] = array("q", (layer, start, end, parent[1], self.op))

        return wrapper

    def _leaf(self, name: str, fn):
        stack, calls, self_ns = self._stack, self.calls, self._op_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                calls[name] += 1
                self_ns[name] += elapsed
                stack[-1][0] += elapsed

        return wrapper

    def _stencil(self, name: str, fn):
        counts = self.counts
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(w):
                counts["wirtinger.stencil.samples"] += 1
                return f(w)

            return inner(counted, *args, **kwargs)

        return wrapper

    def _trajectory(self, name: str, fn):
        counts = self.counts
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rt = inner(*args, **kwargs)
            counts["flow.trajectory.steps"] += len(rt.times) - 1
            return rt

        return wrapper

    def _patch(self, module: str, attr: str, make) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "moutard" or mod_name.startswith("moutard.")) and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> "Tracer":
        for module, attr, name, kind in LAYERS:
            self._patch(module, attr, functools.partial(getattr(self, f"_{kind}"), name))
        return self

    def close_op(self, scale: float) -> None:
        """End an operation whose times are scaled to the reference speed by scale."""
        for name, ns in self._op_ns.items():
            self.self_ns[name] += ns * scale
        self._op_ns.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def per_layer(self, ops: int) -> dict[str, dict]:
        return {name: {"value": value(self, ops), "unit": unit} for name, unit, value in PER_LAYER}

    def write(self, path) -> None:
        """Spans as CSV (raw ns); each un-spanned leaf layer as one total line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,op\n")
            spans = self.spans
            for index in range(len(spans) // SPAN_FIELDS):
                layer, start, end, parent, op = spans[index * SPAN_FIELDS:(index + 1) * SPAN_FIELDS]
                fh.write(f"{index},{LAYER_NAMES[layer]},{start},{end},{parent},{op}\n")
            for _, _, name, kind in LAYERS:
                if kind == "leaf":
                    fh.write(f"#leaf,{name},calls={self.calls[name]},ref_self_ns={self.self_ns[name]:.0f}\n")
