"""Layer spans and counters wrapped around the library from outside.

The tracer replaces public functions and methods of ``chaoscalc`` with
timing wrappers while it is installed, and restores the originals after.
No library code is edited.  Names that modules bound by value at import
time (``from .operators import pointwise`` and the like, including the
package root) are patched in every ``chaoscalc`` namespace that holds the
same object, so a product passed in as an argument is traced too.

A span's self time is its duration minus the time of the spans it caused.
A target that no longer exists is reported as missing; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (metric prefix, module, attribute path); several targets may share a prefix.
SPAN_TARGETS = (
    ("volterra.kg_apply", "chaoscalc.volterra", "kg_apply"),
    ("volterra.assumption_report", "chaoscalc.volterra", "assumption_report"),
    ("volterra.kernel_measure", "chaoscalc.volterra", "kernel_measure"),
    ("chaos.gnorm_sq", "chaoscalc.chaos", "ChaosVector.gnorm_sq"),
    ("operators.skorohod", "chaoscalc.operators", "skorohod"),
    ("operators.wick", "chaoscalc.operators", "wick"),
    ("operators.pointwise", "chaoscalc.operators", "pointwise"),
    ("operators.derivative_at", "chaoscalc.operators", "derivative_at"),
    ("operators.pettis_time_integral", "chaoscalc.operators", "pettis_time_integral"),
    ("montecarlo.evaluate_block", "chaoscalc.montecarlo", "evaluate_block"),
    ("vmbv.integrate", "chaoscalc.vmbv", "integrate_plain"),
    ("vmbv.integrate", "chaoscalc.vmbv", "integrate_sigma"),
    ("vmbv.integrate", "chaoscalc.vmbv", "integrate_wick"),
    ("vmbv.integrate", "chaoscalc.vmbv", "integrate_strongind"),
)

COUNT_TARGETS = (
    ("kernels.SymKernel.created", "chaoscalc.kernels", "SymKernel.__init__"),
    ("chaos.ChaosVector.created", "chaoscalc.chaos", "ChaosVector.__init__"),
    ("kernels.to_sparse.calls", "chaoscalc.kernels", "LayeredKernel.to_sparse"),
    ("kernels.to_sparse.calls", "chaoscalc.kernels", "TimeSlotSymKernel.to_sparse"),
)

# Counts taken from the kernels of results; a storage form that
# ``stored_entries`` does not know reports them as missing.
DERIVED_COUNTS = ("kernels.nnz_out", "kernels.max_order_out", "montecarlo.entry_paths")

INTEGRATE = "vmbv.integrate"


def stored_entries(vec) -> int | None:
    """Coefficients a chaos vector stores, over all its components.

    Sparse kernels store one per canonical tuple, layered kernels one per
    non-zero layer, time-slot kernels one per non-zero table cell.  Returns
    None for a storage form this function does not know.
    """
    total = 0
    for comp in vec.components.values():
        if hasattr(comp, "entries"):
            total += len(comp.entries)
        elif hasattr(comp, "phi"):
            total += int((comp.phi != 0).sum())
            if comp.extra is not None:
                total += int((comp.extra != 0).sum())
        elif hasattr(comp, "layers"):
            total += int((comp.layers != 0).sum())
        else:
            return None
    return total


def _resolve(module_name: str, path: str):
    """Return ``(owner, attribute, object)`` or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        obj = owner.__dict__.get(attr)
    else:
        obj = getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, attr, obj


class Tracer:
    """Spans and counts over the ops run between ``begin_op`` and ``end_op``
    while the wrappers are installed."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNT_TARGETS}
        self.counts.update({name: 0 for name in DERIVED_COUNTS})
        self.missing: set[str] = set()
        self.kg_keys = 0
        self.ops = 0
        self.op_s = 0.0
        self.covered_s = 0.0
        self.active = False
        self._stack: list[list] = []
        self._restore: list[tuple] = []
        self._op_keys: set = set()
        self._op_refs: list = []
        self._op_t0 = 0.0

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str):
        self.calls[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, t0, child = self._stack.pop()
        dur = time.perf_counter() - t0
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.covered_s += dur

    def begin_op(self):
        self.active = True
        self._op_t0 = time.perf_counter()

    def end_op(self):
        self.op_s += time.perf_counter() - self._op_t0
        self.active = False
        self.ops += 1
        self.kg_keys += len(self._op_keys)
        self._op_keys = set()
        self._op_refs = []

    # -- hooks ---------------------------------------------------------------

    def _materialize_kg_apply(self, args, proc):
        # The action is lazy: evaluate every cell below t here, so that its
        # cost is billed to this span and not to whoever reads it first.
        phi, kernel, t = args[:3]
        self._op_refs.append((phi, kernel))  # keeps ids unique within the op
        self._op_keys.add((id(phi), id(kernel), float(t)))
        for s in range(min(phi.grid.snap_down(t), phi.grid.cells)):
            proc.at(s)
        return proc

    def _after_integrate(self, args, result):
        if any(frame[0] == INTEGRATE for frame in self._stack):
            return result  # strongind's inner Wick run is not a returned value
        nnz = stored_entries(result.value)
        if nnz is None:
            self.missing.add("kernels.nnz_out")
        else:
            self.counts["kernels.nnz_out"] += nnz
        self.counts["kernels.max_order_out"] = max(
            self.counts["kernels.max_order_out"], result.value.max_order())
        return result

    def _before_evaluate_block(self, args):
        phi, xi_block = args[:2]
        nnz = stored_entries(phi)
        if nnz is None:
            self.missing.add("montecarlo.entry_paths")
        else:
            self.counts["montecarlo.entry_paths"] += nnz * int(xi_block.shape[0])

    # -- install / uninstall -------------------------------------------------

    def _span(self, name, fn, before=None, inside=None, after=None):
        """Wrap ``fn`` in a span.  ``before`` and ``after`` run outside it and
        ``inside`` within it; each gets the call's arguments in order."""
        tracer = self
        signature = inspect.signature(fn)

        def positional(args, kwargs):
            return list(signature.bind(*args, **kwargs).arguments.values())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(positional(args, kwargs))
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
                if inside is not None:
                    out = inside(positional(args, kwargs), out)
            finally:
                tracer._exit()
            if after is not None:
                out = after(positional(args, kwargs), out)
            return out

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, original, replacement):
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original, True))
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chaoscalc" or mod_name.startswith("chaoscalc.")):
                continue
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    space[key] = replacement
                    self._restore.append((space, key, original, False))

    def install(self):
        hooks = {  # metric prefix -> (before, inside, after)
            "volterra.kg_apply": (None, self._materialize_kg_apply, None),
            "montecarlo.evaluate_block": (self._before_evaluate_block, None, None),
            INTEGRATE: (None, None, self._after_integrate),
        }
        for name, module, path in SPAN_TARGETS:
            self.calls.setdefault(name, 0)
            self.self_s.setdefault(name, 0.0)
            found = _resolve(module, path)
            if found is None:
                self.missing.add(f"{name} ({module}.{path})")
                continue
            owner, attr, fn = found
            self._patch(owner, attr, fn, self._span(name, fn, *hooks.get(name, (None, None, None))))
        for name, module, path in COUNT_TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.add(f"{name} ({module}.{path})")
                continue
            owner, attr, fn = found
            self._patch(owner, attr, fn, self._counter(name, fn))

    def uninstall(self):
        for target, key, original, is_class in reversed(self._restore):
            if is_class:
                setattr(target, key, original)
            else:
                target[key] = original
        self._restore = []

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values over all traced ops, keyed by metric name."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.self_s"] = self.self_s[name]
            if name == INTEGRATE:
                out[f"{name}.calls_per_op"] = self.calls[name] / max(self.ops, 1)
            else:
                out[f"{name}.calls"] = self.calls[name]
        kg_calls = self.calls.get("volterra.kg_apply", 0)
        out["volterra.kg_apply.reuse_ratio"] = self.kg_keys / kg_calls if kg_calls else 0.0
        out.update(self.counts)
        out["trace.span_coverage"] = self.covered_s / self.op_s if self.op_s else 0.0
        return out
