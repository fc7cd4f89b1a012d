"""In-memory call tracing of fockmet's public functions, from outside.

A ``Tracer`` wraps the functions named in ``SPANNED`` (one span per call)
and ``COUNTED`` (a call count only; these run hundreds of thousands of
times per operation, so a span each would cost more memory than the
workload).  The wrapper replaces the function in every loaded ``fockmet``
module that bound it, because modules hold their own copies of names
imported with ``from ... import``.  Nothing under ``src/`` changes.

Recording is thread-safe: the CLI thread pool calls traced functions from
worker threads.  Each thread keeps its own stack of open spans; a call with
no open span in its thread takes the operation's root span as parent.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# "<layer>.<function>" names; the function lives in module fockmet.<layer>.
SPANNED = (
    "cli.load_config",
    "cli.run",
    "estimation.bootstrap_precision",
    "estimation.fit_displacement_curve",
    "estimation.fit_ramsey_frequency",
    "estimation.fit_multi_gaussian",
    "metrology.maximize_fisher",
    "noise.lindblad_evolve",
    "noise.perturbation_first_order",
    "noise.toy_model",
    "fockspace.displacement",
    "fockspace.wigner_value",
    "fockspace.coherent_state",
    "composite.prepare_fock",
    "composite.resolve_photon_cascade",
)
COUNTED = (
    "metrology.cfi_of_curve",
    "metrology.parity_curve_ideal",
)
ROOT_NAME = "op"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    op_id: int
    start: float
    end: float
    ok: bool


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: tuple[int, int] | None = None  # (op_id, root span id)
        self._patched: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:  # a caller kept the wrapper past its operation
                return fn(*args, **kwargs)
            op_id, root = self._op
            stack = self._stack()
            span_id = self._new_id()
            parent = stack[-1] if stack else root
            stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, parent, name, op_id, start, end, ok))

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "fockmet" or n.startswith("fockmet.")]
        for names, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name in names:
                layer, attr = name.split(".")
                home = sys.modules.get(f"fockmet.{layer}")
                if home is None:
                    continue
                original = getattr(home, attr)
                wrapper = wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def _uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def recording(self, op_id: int):
        """Trace one operation: patch, run the body under a root span, restore."""
        root = self._new_id()
        self._op = (op_id, root)
        self._install()
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter()
            self._uninstall()
            self._op = None
            with self._lock:
                self.spans.append(Span(root, None, ROOT_NAME, op_id, start, end, ok))

    def absorb(self, records: list[dict], counts: dict[str, int]) -> None:
        """Merge spans recorded by another process, renumbering their ids."""
        remap = {r["span_id"]: self._new_id() for r in records}
        with self._lock:
            for r in records:
                parent = remap.get(r["parent_id"]) if r["parent_id"] is not None else None
                self.spans.append(Span(remap[r["span_id"]], parent, r["name"], r["op_id"],
                                       r["start"], r["end"], r["ok"]))
            self.counts.update(counts)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [s.__dict__ for s in self.spans], "counts": dict(self.counts)}, fh)

    @staticmethod
    def load(path) -> tuple[list[dict], dict[str, int]]:
        with open(path) as fh:
            data = json.load(fh)
        return data["spans"], data["counts"]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.span_id, ())]
        out[s.span_id] = (s.end - s.start) - _covered([c for c in clipped if c[1] > c[0]])
    return out


def summarize(tracer: Tracer, traced_ops: int, traced_wall: float) -> dict[str, float]:
    """Per-function calls, busy and self time per traced operation, shares and failures.

    ``busy`` is inclusive wall time summed over calls (threads add up);
    ``share`` divides the total by the traced operations' wall time.
    """
    selfs = self_times(tracer.spans)
    calls: Counter[str] = Counter()
    failed: Counter[str] = Counter()
    busy: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    for s in tracer.spans:
        calls[s.name] += 1
        failed[s.name] += not s.ok
        busy[s.name] += s.end - s.start
        own[s.name] += selfs[s.span_id]
    ops = max(traced_ops, 1)
    wall = traced_wall if traced_wall > 0 else 1.0
    out: dict[str, float] = {}
    for name in SPANNED:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.busy_s"] = busy[name] / ops
        out[f"{name}.self_s"] = own[name] / ops
        out[f"{name}.busy_share"] = busy[name] / wall
        out[f"{name}.self_share"] = own[name] / wall
        out[f"{name}.failed_frac"] = failed[name] / calls[name] if calls[name] else 0.0
    for name in COUNTED:
        out[f"{name}.calls"] = tracer.counts[name] / ops
    return out
