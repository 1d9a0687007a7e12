"""Host-time spans recorded from outside the simulator.

A :class:`SpanRecorder` wraps public functions of the ``repro`` package
(see :mod:`layers`) so every call records one span: its layer name, its
parent span, its start and end on the host clock, and the id of the
``Runtime.run`` it belongs to.  Spans are kept in flat in-memory arrays
and written out once, when the benchmark ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Dict, Iterable, List, Sequence, Tuple


class SpanRecorder:
    """Flat, append-only span storage plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.run_id = -1
        self._stack: List[int] = []

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """A callable that records one span around each call of ``fn``."""
        lid = self.layer_id(name)
        layer, parent, run, start, end = self.layer, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            run.append(recorder.run_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """Per layer name: (call count, summed self time in ns)."""
        selfs = self_times(self.parent, self.start, self.end)
        counts = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for lid, own in zip(self.layer, selfs):
            counts[lid] += 1
            self_ns[lid] += own
        return {name: (counts[i], self_ns[i]) for i, name in enumerate(self.names)}

    def dump(self, path: str) -> None:
        """Write every span to ``path`` (a compressed ``.npz``)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def self_times(parent: Sequence[int], start: Sequence[int], end: Sequence[int]) -> List[int]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are covered once, so the result never goes below zero.
    """
    n = len(start)
    covered = [0] * n
    reach: Dict[int, int] = {}  # parent -> end of the coverage merged so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Instrumented:
    """Context manager that installs span wrappers on ``targets``.

    ``targets`` holds ``(module, qualname, layer)`` triples.  A method
    (``Class.method``) is replaced on its class.  A module-level function
    is replaced in every loaded ``repro`` module that bound it by name,
    so ``from x import f`` callers are traced too.  Everything is
    restored on exit.
    """

    def __init__(self, recorder: SpanRecorder, targets: Iterable[Tuple[str, str, str]]) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        for module_name, qualname, layer in self.targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self.recorder.wrap(original, layer))
            else:
                original = getattr(module, qualname)
                wrapped = self.recorder.wrap(original, layer)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._replace(loaded, attr, original, wrapped)
        return self.recorder

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
