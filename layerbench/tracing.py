"""Span recording around each layer's public calls, installed from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces a
layer's public callables with timing wrappers for the duration of a
traced pass and puts the originals back afterwards.  Each wrapped call
records one span ``[name, start, end, parent, value]`` in memory; the
spans are written out as JSON lines when the run ends.  ``parent`` is
the index of the enclosing span (``-1`` at top level) and ``value`` an
optional per-call quantity (bytes written or encoded).

The explorer imports ``classify``, ``write_checkpoint`` and
``read_checkpoint`` by name, so those are wrapped in
``repro.runtime.explorer``'s namespace: wrapping them where they are
defined would miss every call the explorer makes.

The service's explorations run in forked workers, which inherit the
wrappers installed in the server process.  ``serve_traced.py`` has each
worker write its spans out after every job.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

#: ``(target, attribute, span name)`` for the exploration layers; a
#: target is ``module`` or ``module:Class``.
_RUN = "repro.runtime.simulator:SimulationRun"
EXPLORE_LAYERS = (
    (_RUN, "advance", "simulator.advance"),
    (_RUN, "fork", "simulator.fork"),
    (_RUN, "choices", "simulator.choices"),
    (_RUN, "result", "simulator.result"),
    (_RUN, "fingerprint", "fingerprint.state"),
    (_RUN, "orbit_key", "fingerprint.orbit"),
    ("repro.runtime.explorer", "classify", "independence.classify"),
    ("repro.runtime.explorer", "write_checkpoint", "checkpoint.write"),
    ("repro.runtime.explorer", "read_checkpoint", "checkpoint.read"),
    ("repro.runtime.explorer", "explore_schedules", "explorer.explore"),
)

#: The exploration layers as the service's workers reach them: the job
#: runner imports ``explore_schedules`` by name.
WORKER_LAYERS = EXPLORE_LAYERS[:-1] + (
    ("repro.server.jobs", "explore_schedules", "explorer.explore"),
)

#: The service layers, wrapped inside the server process by
#: ``serve_traced.py``.  ``write_message`` looks ``encode_message`` up in
#: the protocol module and the job manager imports ``job_digest`` by
#: name, so both are wrapped where they are looked up.
SERVICE_LAYERS = (
    ("repro.server.protocol", "encode_message", "protocol.encode"),
    ("repro.server.descriptor:JobDescriptor", "from_json",
     "descriptor.build"),
    ("repro.server.jobs", "job_digest", "descriptor.digest"),
    ("repro.server.memo:MemoStore", "get", "memo.get"),
    ("repro.server.memo:MemoStore", "put", "memo.put"),
    ("repro.server.jobs:JobManager", "submit", "jobs.submit"),
    ("repro.server.service:VerificationService", "_dispatch",
     "service.dispatch"),
)


def _resolve(target: str):
    import importlib

    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _value_of(name: str, args: tuple, result) -> int | None:
    """The per-call quantity a span carries, where one exists."""
    if name == "checkpoint.write":
        return os.path.getsize(args[0])
    if name == "protocol.encode":
        return len(result)
    return None


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = _value_of(name, args, result)
            return result

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            # The span stays open across awaits, so spans other tasks
            # record meanwhile nest under it.  With one request in
            # flight at a time, as on the service workloads, that is
            # the work the request waits for.
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                return await fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.remove(index)

        return traced_async if inspect.iscoroutinefunction(fn) else traced

    def install(self, layers) -> None:
        """Wrap every ``(target, attribute, span name)`` in ``layers``."""
        for target, attr, name in layers:
            owner = _resolve(target)
            raw = (
                vars(owner)[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self.patch(owner, attr, wrapped, raw)

    def patch(self, owner, attr: str, replacement, raw=None) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`.

        ``raw`` is what to put back, by default the current value.
        """
        if raw is None:
            raw = getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original callable back, last wrapped first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def trace_properties(self, target: str, attrs) -> None:
        """Make the property factories ``attrs`` of module ``target``
        return properties whose trackers are traced."""
        owner = _resolve(target)
        for attr in attrs:
            raw = getattr(owner, attr)

            @functools.wraps(raw)
            def traced(*args, _raw=raw, **kwargs):
                return self.wrap_property(_raw(*args, **kwargs))

            self.patch(owner, attr, traced)

    def wrap_property(self, prop):
        """``prop`` with its trackers' ``observe``/``at_terminal`` traced."""
        return _TracedProperty(prop, self)

    def dump(self, path: str, first: int = 0, mode: str = "w") -> None:
        """Write the spans from index ``first`` on as JSON lines.

        Ids and parents count from ``first``; a parent before it
        becomes ``-1``.
        """
        with open(path, mode) as handle:
            for index, (name, start, end, parent, value) in enumerate(
                self.spans[first:]
            ):
                row = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent - first if parent >= first else -1,
                }
                if value is not None:
                    row["value"] = value
                handle.write(json.dumps(row) + "\n")


def _observe(tracker, steps) -> None:
    tracker.observe(steps)


def _at_terminal(tracker, result):
    return tracker.at_terminal(result)


class _TracedTracker:
    """A property tracker whose calls are recorded as spans."""

    __slots__ = ("_inner", "_observe", "_terminal")

    def __init__(self, inner, observe, terminal) -> None:
        self._inner = inner
        self._observe = observe
        self._terminal = terminal

    def observe(self, steps) -> None:
        self._observe(self._inner, steps)

    def at_terminal(self, result):
        return self._terminal(self._inner, result)

    def fork(self) -> "_TracedTracker":
        forked = self._inner.fork()
        if forked is self._inner:
            return self
        return _TracedTracker(forked, self._observe, self._terminal)


class _TracedProperty:
    """A property whose trackers record ``property.*`` spans."""

    def __init__(self, prop, tracer: Tracer) -> None:
        self._prop = prop
        self._observe = tracer._wrap("property.observe", _observe)
        self._terminal = tracer._wrap("property.terminal", _at_terminal)

    def __call__(self, result):
        return self._prop(result)

    def tracker(self, n: int) -> _TracedTracker:
        return _TracedTracker(
            self._prop.tracker(n), self._observe, self._terminal
        )


def load_spans(paths) -> list[list]:
    """Spans written by :meth:`Tracer.dump`, in the in-memory layout.

    A file may hold several dumps; each starts again at id 0.
    """
    spans: list[list] = []
    for path in paths:
        with open(path) as handle:
            for line in handle:
                row = json.loads(line)
                if row["id"] == 0:
                    offset = len(spans)
                parent = row["parent"]
                spans.append([
                    row["name"], row["start"], row["end"],
                    parent + offset if parent >= 0 else -1,
                    row.get("value"),
                ])
    return spans


def layer_totals(spans, windows=None) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``value`` totals.

    Self time is a span's duration minus the time its direct children
    cover; wrapped calls run on one thread, so children never overlap.
    ``windows``, a list of ``(start, end)``, keeps only spans that start
    inside one of them.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, value) in enumerate(spans):
        if windows is not None and not any(
            low <= start < high for low, high in windows
        ):
            continue
        row = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "value": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        if value is not None:
            row["value"] += value
    return totals
