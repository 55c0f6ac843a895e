"""Per-layer tracing of rdts from outside the package.

``install`` wraps the public functions listed in ``layers.json`` in timing
spans. Each wrapper is rebound under every name that refers to the original
function in every loaded ``rdts.*`` module namespace, so calls through
``from .model import outcome_support`` in another module are traced too;
``BeliefState`` construction is traced by wrapping the class's ``__init__``.

Spans nest per thread. A span started on a thread with no open span (an
``ir-sweep`` pool worker) is parented to the outermost open span, so the
thread pool's wall time is attributed to ``cli.main`` only where no worker is
busy. Spans stay in memory; ``Tracer.summary`` reduces them at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parent / "layers.json"


def load_layers() -> dict:
    with open(LAYERS_PATH) as fh:
        return json.load(fh)


def per_layer_metric_names(layers: dict) -> list[str]:
    """Every per-layer metric a traced run reports, in table order."""
    names: list[str] = []
    for module, spec in layers.items():
        if spec.get("aggregate"):
            names += [f"{module}.calls", f"{module}.self_s"]
        else:
            for fn in spec["functions"]:
                names += [f"{module}.{fn}.calls", f"{module}.{fn}.self_s"]
        names += list(spec["extra"])
    return names


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Span recorder plus the counters named in ``layers.json``."""

    def __init__(self) -> None:
        # a span is [name, parent span or None, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._root: list | None = None
        self._lock = threading.Lock()
        self._seen: set = set()
        # objects whose id() is part of a seen key stay alive, so ids are not reused
        self._alive: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span = [name, parent, time.perf_counter(), None]
            if parent is None:
                self._root = span
            stack.append(span)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if span is self._root:
                    self._root = None
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return traced

    def seen_before(self, objects: tuple, key) -> bool:
        """Record ``(id(obj)..., key)``; True if that combination was seen."""
        full = (*(id(o) for o in objects), key)
        with self._lock:
            for o in objects:
                self._alive[id(o)] = o
            if full in self._seen:
                return True
            self._seen.add(full)
            return False

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def patch_init(self, cls: type, name: str) -> None:
        """Trace construction of ``cls`` by wrapping its ``__init__``."""
        init = cls.__init__
        cls.__init__ = self.wrap(name, init)
        self._undo.append((cls, "__init__", init))

    def rebind(self, original, replacement) -> None:
        """Replace ``original`` under every name bound to it in ``rdts.*``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rdts" or mod_name.startswith("rdts.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self, layers: dict) -> dict[str, float]:
        """Per-layer calls, self time and counters, keyed by metric name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[1] is not None and span[3] is not None:
                children[id(span[1])].append((span[2], span[3]))
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for span in self.spans:
            name, _, start, end = span
            if end is None:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - covered_length(
                children.get(id(span), []), start, end
            )
        out: dict[str, float] = {}
        for module, spec in layers.items():
            names = [f"{module}.{fn}" for fn in spec["functions"]]
            if spec.get("aggregate"):
                out[f"{module}.calls"] = sum(calls[n] for n in names)
                out[f"{module}.self_s"] = sum(self_s[n] for n in names)
            else:
                for n in names:
                    out[f"{n}.calls"] = calls[n]
                    out[f"{n}.self_s"] = self_s[n]

        def frac(counter: str, fn: str) -> float:
            return self.counts[counter] / calls[fn] if calls[fn] else 0.0

        out["model.outcome_support.repeat_frac"] = frac(
            "outcome_support.repeats", "model.outcome_support"
        )
        out["information.info_gain_about_statistic.repeat_frac"] = frac(
            "info_gain.repeats", "information.info_gain_about_statistic"
        )
        out["information.ts_info_ratio.degenerate_frac"] = frac(
            "ts_info_ratio.degenerate", "information.ts_info_ratio"
        )
        out["compression.distortion_matrix.bytes_computed"] = self.counts[
            "distortion_matrix.bytes"
        ]
        return out


def _outcome_support_repeat(tracer, instance, action_idx):
    if tracer.seen_before((instance,), int(action_idx)):
        tracer.count("outcome_support.repeats")


def _info_gain_repeat(tracer, instance, belief, partition, action_idx):
    if tracer.seen_before((instance, belief, partition), int(action_idx)):
        tracer.count("info_gain.repeats")


def _distortion_bytes(tracer, instance):
    tracer.count("distortion_matrix.bytes", instance.n_params**2 * 8)


def _degenerate_ratio(tracer, report, *args, **kwargs):
    if report.degenerate:
        tracer.count("ts_info_ratio.degenerate")


BEFORE = {
    "model.outcome_support": _outcome_support_repeat,
    "information.info_gain_about_statistic": _info_gain_repeat,
    "compression.distortion_matrix": _distortion_bytes,
}
AFTER = {"information.ts_info_ratio": _degenerate_ratio}


def install(layers: dict) -> Tracer:
    """Wrap every function of ``layers`` in spans; ``rdts`` must be imported."""
    tracer = Tracer()
    for module_name, spec in layers.items():
        module = importlib.import_module(f"rdts.{module_name}")
        for fn_name in spec["functions"]:
            name = f"{module_name}.{fn_name}"
            original = getattr(module, fn_name)
            if isinstance(original, type):
                tracer.patch_init(original, name)
            else:
                tracer.rebind(
                    original,
                    tracer.wrap(name, original, BEFORE.get(name), AFTER.get(name)),
                )
    return tracer
