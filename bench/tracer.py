"""Span tracer for the traced benchmark run.

Timing wrappers are installed by rebinding the module-level names (and two
``LabelSpace`` methods) through which one ``wrot`` module calls the next, and
the original bindings are put back when a traced round ends. Nothing in the
package itself is edited. Modules are looked up through ``sys.modules``
because ``wrot/__init__.py`` re-exports functions under module names
(``wrot.rot_loss`` the attribute is the function, not the module).

Each wrapper records a span ``(name, start, end, parent, failed, info)``. A
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
from time import perf_counter

LAYERS = (
    "measures",
    "metric_solvers",
    "sinkhorn",
    "frank_wolfe",
    "rot_loss",
    "classifier",
    "data_io",
    "cli",
)

# Every span name a traced round can record; the per-layer metrics are
# ``<span>.calls`` and ``<span>.self_ms`` for each of them.
SPANS = (
    "measures.moment",
    "metric_solvers.adversary",
    "sinkhorn.plain",
    "sinkhorn.log",
    "sinkhorn.symmetric_scaling",
    "frank_wolfe.pair_costs",
    "frank_wolfe.loop",
    "rot_loss.solve",
    "rot_loss.label_moment",
    "rot_loss.label_pair_costs",
    "classifier.sgd",
    "data_io.load",
    "cli.contour",
)


def _sinkhorn_span(args, kwargs):
    # entropic_ot and _entropic_core both take the config as 4th argument;
    # the domain they run in is the one the config resolves to.
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    resolve = getattr(config, "resolved_log_domain", None)
    return "sinkhorn.log" if resolve is not None and resolve() else "sinkhorn.plain"


def _residual(args, result):
    return float(result[1])


def _pair_gram_bytes(args, result):
    gram = getattr(args[0], "_pair_gram", None)
    return 0 if gram is None else gram.nbytes


# (module, attribute, span name or naming function, info function)
BINDINGS = (
    ("wrot.frank_wolfe", "_moment_arrays", "measures.moment", None),
    ("wrot.frank_wolfe", "_grouped_moment_arrays", "measures.moment", None),
    ("wrot.frank_wolfe", "adversarial_value", "metric_solvers.adversary", None),
    ("wrot.frank_wolfe", "_pair_costs_full", "frank_wolfe.pair_costs", None),
    ("wrot.frank_wolfe", "_pair_costs_grouped", "frank_wolfe.pair_costs", None),
    ("wrot.frank_wolfe", "entropic_ot", _sinkhorn_span, _residual),
    ("wrot.metric_solvers", "symmetric_scaling", "sinkhorn.symmetric_scaling", None),
    ("wrot.rot_loss", "_moment_arrays", "measures.moment", None),
    ("wrot.rot_loss", "_grouped_moment_arrays", "measures.moment", None),
    ("wrot.rot_loss", "adversarial_value", "metric_solvers.adversary", None),
    ("wrot.rot_loss", "euclidean_metric", "metric_solvers.adversary", None),
    ("wrot.rot_loss", "_entropic_core", _sinkhorn_span, _residual),
    ("wrot.rot_loss", "LabelSpace._moment", "rot_loss.label_moment", _pair_gram_bytes),
    ("wrot.rot_loss", "LabelSpace._pair_costs", "rot_loss.label_pair_costs", _pair_gram_bytes),
    ("wrot.classifier", "rot_loss_gradient", "rot_loss.solve", None),
    ("wrot.cli", "rot_loss", "rot_loss.solve", None),
    ("wrot.cli", "load_embedding_file", "data_io.load", None),
)


def layer_metric_names() -> list[str]:
    """Names of the per-layer metrics :meth:`Tracer.summary` returns."""
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.self_ms"]
    names += [f"{layer}.failed" for layer in LAYERS]
    return names + ["sinkhorn.residual_max", "rot_loss.pair_gram_mb_read"]


class NullTracer:
    """Stand-in used with tracing off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, name, info, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, True, None)
                raise
            end = perf_counter()
            stack.pop()
            extra = info(args, result) if info is not None else None
            spans[index] = (span, start, end, parent, False, extra)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span recorded at the benchmark's call site."""
        return self._wrap(name, None, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every binding in :data:`BINDINGS` that exists.

        A binding that is gone (renamed or removed in the package) is listed
        in ``missing`` and its span is simply absent from the results.
        """
        for module_name, attr, name, info in BINDINGS:
            owner = sys.modules.get(module_name)
            owner_attr, _, leaf = attr.rpartition(".")
            if owner is not None and owner_attr:
                owner = getattr(owner, owner_attr, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, info, original))
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        """Restore every wrapped binding and check that each one is back."""
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        stale = [
            f"{owner.__name__}.{leaf}"
            for owner, leaf, original in self._installed
            if vars(owner).get(leaf) is not original
        ]
        self._installed.clear()
        if stale:
            raise RuntimeError(f"bindings not restored after tracing: {', '.join(stale)}")

    def summary(self) -> dict[str, float]:
        """Per-layer calls, self time, failures and diagnostics of the spans."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, failed, extra in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = dict.fromkeys(layer_metric_names(), 0)
        gram_bytes = 0
        for index, (name, start, end, parent, failed, extra) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ms"] += (end - start - child_s[index]) * 1e3
            if failed:
                out[f"{name.split('.')[0]}.failed"] += 1
            elif name.startswith("sinkhorn.") and extra is not None:
                out["sinkhorn.residual_max"] = max(out["sinkhorn.residual_max"], extra)
            elif name.startswith("rot_loss.label_") and extra:
                gram_bytes += extra
        out["rot_loss.pair_gram_mb_read"] = gram_bytes / 1e6
        return out
