"""Span tracer for the benchmark's traced run.

The program under test carries no spans of its own here: the tracer wraps
the public calls named in :data:`PATCHES` from outside, by replacing the
attribute on the class that defines it.  Each call records one span — its
name, start, end and the span that was open when it began (its parent) —
into flat in-memory arrays, so a run of a million spans stays small and
cheap.  :meth:`Tracer.save` writes them out once the run has ended.

All spans are strictly nested, because every workload runs on one thread
(the daemon's asyncio loop never awaits inside a traced call).  A span's
self time is therefore its duration minus the summed durations of its
direct children (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

#: (module, class, attribute, span name): the calls the traced run wraps,
#: one layer boundary each.  A subclass that overrides the attribute is
#: listed too, so an override is not silently missed.  Four private names
#: stand in for public calls whose work is deferred: a mapping computes its
#: colors on the first ``color_array()`` call, and the supervisor's
#: ``_write_checkpoints`` is the checkpoint callable its ``Driver`` holds.
PATCHES = (
    ("repro.core.color", "ColorMapping", "for_modules", "core.mapping_build"),
    ("repro.core.color", "ColorMapping", "_compute_color_array", "core.mapping_build"),
    ("repro.core.label_tree", "LabelTreeMapping", "__init__", "core.mapping_build"),
    ("repro.core.label_tree", "LabelTreeMapping", "_compute_color_array", "core.mapping_build"),
    ("repro.memory.faults", "ColorRepairMapping", "__init__", "core.repair_build"),
    ("repro.memory.faults", "ColorRepairMapping", "_compute_color_array", "core.repair_color"),
    ("repro.serve.clients", "TemplateMix", "sample", "templates.sample"),
    ("repro.memory.system", "ParallelMemorySystem", "access", "memory.access"),
    ("repro.memory.system", "ParallelMemorySystem", "run_open_loop", "memory.open_loop"),
    ("repro.serve.engine", "ServeEngine", "step", "serve.step"),
    ("repro.serve.batching", "BatchPolicy", "form", "serve.form"),
    ("repro.serve.clients", "Client", "poll_tenants", "serve.poll"),
    ("repro.host.daemon", "SubmitFeed", "poll_tenants", "serve.poll"),
    ("repro.fleet.coordinator", "ShardFeed", "poll_tenants", "serve.poll"),
    ("repro.serve.durability", "CheckpointStore", "write_snapshot", "durability.checkpoint"),
    ("repro.serve.durability", "ServeJournal", "record", "durability.journal_append"),
    ("repro.serve.durability", "CheckpointStore", "latest_snapshot", "durability.snapshot_load"),
    ("repro.serve.durability", "CheckpointStore", "recover_journal", "durability.journal_recover"),
    ("repro.obs.events", "EventRecorder", "event", "obs.event"),
    ("repro.obs.sinks", "JsonlSink", "on_event", "obs.sink"),
    ("repro.obs.metrics", "MetricsRegistry", "expose_text", "obs.expose"),
    ("repro.host.driver", "Driver", "tick", "host.tick"),
    ("repro.fleet.coordinator", "FleetCoordinator", "step", "fleet.step"),
    ("repro.fleet.coordinator", "FleetCoordinator", "rejoin", "fleet.rejoin"),
    ("repro.fleet.supervisor", "FleetSupervisor", "_write_checkpoints", "fleet.checkpoint"),
    ("repro.fleet.router", "AffinityRouter", "place", "fleet.route"),
)


class Tracer:
    """Records nested spans and named counts in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[type, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._id(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            start[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: type, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (function or classmethod) until :meth:`unpatch`."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name))
        else:
            replacement = self.wrap(original, name)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def patch_step_counter(self, owner: type) -> None:
        """Count ``owner.step`` calls and the share that return an item."""
        original = owner.__dict__["step"]
        counts = self.counts
        counts.setdefault("memory.module_steps", 0)
        counts.setdefault("memory.step_hits", 0)

        def step(module, now):
            served = original(module, now)
            counts["memory.module_steps"] += 1
            if served is not None:
                counts["memory.step_hits"] += 1
            return served

        setattr(owner, "step", step)
        self._undo.append((owner, "step", original))

    def install(self) -> None:
        """Wrap every call in :data:`PATCHES` plus the module step counter."""
        for module, cls, attr, name in PATCHES:
            self.patch(getattr(importlib.import_module(module), cls), attr, name)
        from repro.memory.module import MemoryModule

        self.patch_step_counter(MemoryModule)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def summary(self) -> "SpanSummary":
        data = self.arrays()
        return SpanSummary(
            self.names, data["name_id"], data["start"], data["end"], data["parent"]
        )

    def save(self, path: str | Path) -> None:
        """Write every span (and the name table) to ``path`` as ``.npz``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    ``parent[i]`` is the index of span ``i``'s parent, or ``-1`` for a
    top-level span.  Spans must be properly nested (one thread), so the
    children of a span cover disjoint parts of its interval.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


class SpanSummary:
    """Per-name aggregates over one traced run."""

    def __init__(self, names, name_id, start, end, parent):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    def _mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def _outermost(self, mask: np.ndarray) -> np.ndarray:
        """The spans of ``mask`` not nested inside another span of ``mask``.

        Spans are stored in start order and nest properly, so a span lies
        inside an earlier one exactly when it starts before the latest end
        seen so far.
        """
        idx = np.nonzero(mask)[0]
        keep = np.zeros(mask.size, dtype=bool)
        if idx.size:
            ends = np.maximum.accumulate(self.end[idx])
            latest = np.concatenate(([-np.inf], ends[:-1]))
            keep[idx] = self.start[idx] >= latest
        return keep

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def inclusive(self, name: str) -> float:
        """Seconds inside spans of ``name``, nested same-name spans once."""
        return float(self.duration[self._outermost(self._mask(name))].sum())

    def mean(self, name: str) -> float:
        """Mean seconds per call of ``name`` (0.0 if never called)."""
        d = self.durations(name)
        return float(d.mean()) if d.size else 0.0

    def mean_self(self, name: str, children: tuple[str, ...] | None = None) -> float:
        """Mean self seconds per call of ``name`` (0.0 if never called).

        With ``children``, only direct children of those names are
        subtracted; otherwise every direct child is.
        """
        mask = self._mask(name)
        if not mask.any():
            return 0.0
        if children is None:
            return float(self.self_time[mask].mean())
        child = self._mask(*children) & (self.parent >= 0)
        covered = np.bincount(
            self.parent[child], weights=self.duration[child], minlength=mask.size
        )
        return float((self.duration - covered)[mask].mean())

    def share(self, mask: np.ndarray, lo: float, hi: float) -> float:
        """Share of ``[lo, hi]`` covered by the outermost spans of ``mask``."""
        keep = self._outermost(mask)
        s = np.clip(self.start[keep], lo, hi)
        e = np.clip(self.end[keep], lo, hi)
        return float((e - s).sum()) / (hi - lo) if hi > lo else 0.0

    def coverage(self, lo: float, hi: float) -> float:
        """Share of ``[lo, hi]`` inside some top-level span."""
        return self.share(self.parent < 0, lo, hi)

    def layer_share(self, prefix: str, lo: float, hi: float) -> float:
        """Share of ``[lo, hi]`` inside spans of the layer ``prefix``."""
        names = [n for n in self.names if n.startswith(prefix)]
        return self.share(self._mask(*names), lo, hi)
