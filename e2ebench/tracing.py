"""Span tracing for the benchmark's traced replay.

The tracer wraps calls into each layer's public functions and methods
from the outside (class attributes and module functions are swapped for
timing wrappers), so the program under test is not edited.  Spans live
in typed arrays while the replay runs and are written out once at the
end.  A span is ``(name, start, end, parent)``; a layer's self time is
its span time minus the time its child spans cover.

Span names are the per-layer metric prefixes, named after the modules:
``streams.tracegen``, ``lint.validate``, ``lint.certify``,
``engine.run``, ``joins.process``, ``joins.kernel``, ``core.windows``,
``core.windex``, ``core.adapt``, ``core.solver``, ``parallel.router``,
``parallel.merger``, ``parallel.send``, ``parallel.recv``,
``parallel.inproc``.  ``bench.*`` spans mark the benchmark's own glue.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: the clock every span reads
clock = time.perf_counter


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object | None]] = []

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.start.append(clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span stack out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per
        call; :meth:`unpatch` restores it."""
        original = getattr(owner, attr)
        # an inherited method is deleted again on unpatch, not pinned
        own = not isinstance(owner, type) or attr in owner.__dict__
        nid = self._name(name)
        stack = self._stack
        name_id, parent, start, end = (
            self.name_id, self.parent, self.start, self.end
        )

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original if own else None))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def stopwatch(self, name: str):
        """A ``solver_timer=``-style callable: odd calls open a span,
        even calls close it, so the operator's own timing seam yields
        nested spans."""
        state = {"open": None}

        def timer() -> float:
            if state["open"] is None:
                state["open"] = self.open(name)
                return self.start[state["open"]]
            idx = state["open"]
            state["open"] = None
            self.close(idx)
            return self.end[idx]

        return timer

    def unpatch_in_forked_children(self) -> None:
        """Forked workers inherit the patched classes; restore the
        originals there so worker-side calls run untraced."""
        os.register_at_fork(after_in_child=self.unpatch)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name_id, parent, start, end

    def summary(self) -> dict:
        """Per-name ``count``/``total``/``self`` seconds plus the
        inclusive durations, and the totals the additivity check uses."""
        name_id, parent, start, end = self.arrays()
        n = len(start)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - child_time
        k = len(self.names)
        per_name = {}
        counts = np.bincount(name_id, minlength=k)
        totals = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=self_time, minlength=k)
        for i, name in enumerate(self.names):
            per_name[name] = {
                "count": int(counts[i]),
                "total": float(totals[i]),
                "self": float(selfs[i]),
            }
        return {
            "per_name": per_name,
            "self_sum": float(self_time.sum()),
            "top_sum": float(dur[~has_parent].sum()),
            "min_self": float(self_time.min()) if n else 0.0,
            "spans": n,
        }

    def durations(self, name: str) -> np.ndarray:
        name_id, _parent, start, end = self.arrays()
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0)
        mask = name_id == nid
        return end[mask] - start[mask]

    def write(self, path: str) -> None:
        """Write every span out (``numpy.savez``: names plus columns)."""
        name_id, parent, start, end = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            start=start,
            end=end,
        )


def install_operator_layers(tracer: Tracer) -> None:
    """Wrap the join, window, index and adaptation layers (call before
    the operators are built: the kernel is bound at construction)."""
    from repro.core import GrubJoinOperator
    from repro.core.basic_windows import PartitionedWindow
    from repro.core.windex import WindowIndexState
    from repro.joins import MJoinOperator, columnar

    for cls in (GrubJoinOperator, MJoinOperator):
        tracer.wrap(cls, "process", "joins.process")
        tracer.wrap(cls, "on_adapt", "core.adapt")
    tracer.wrap(columnar, "run_pipeline_columnar", "joins.kernel")
    for attr in (
        "insert",
        "rotate_to",
        "full_slices",
        "logical_window_slices",
        "logical_span_slices",
    ):
        tracer.wrap(PartitionedWindow, attr, "core.windows")
    for attr in ("table_for", "candidate_rows", "tick"):
        tracer.wrap(WindowIndexState, attr, "core.windex")


def install_setup_layers(tracer: Tracer) -> None:
    """Wrap the lint gates and the runtimes' run calls."""
    from repro.engine import DataflowGraph, Simulation
    from repro.parallel import sharded
    from repro.query import Query

    tracer.wrap(Query, "validate", "lint.validate")
    tracer.wrap(sharded, "certify_shard_operators", "lint.certify")
    tracer.wrap(Simulation, "run", "engine.run")
    tracer.wrap(DataflowGraph, "run", "engine.run")


def install_supervisor_layers(tracer: Tracer) -> None:
    """Wrap the procs supervisor's router, merger and pipe transport."""
    from multiprocessing.connection import Connection

    from repro.parallel.merger import MergerOperator
    from repro.parallel.router import RouterOperator

    tracer.wrap(RouterOperator, "process", "parallel.router")
    tracer.wrap(MergerOperator, "process", "parallel.merger")
    tracer.wrap(Connection, "send", "parallel.send")
    tracer.wrap(Connection, "recv", "parallel.recv")
