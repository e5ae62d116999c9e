"""In-memory span tracing installed from the benchmark's side.

No program module is instrumented: :class:`Tracer` replaces chosen
functions and methods of the running program with thin wrappers that
record a span around each call, and puts the originals back on
:meth:`Tracer.uninstall`.  A span is ``(name, start_ns, end_ns, id,
parent_id, key, attrs)``; ``key`` is the request or batch id it belongs
to and is inherited from the enclosing span.  The enclosing span is
tracked in a :class:`contextvars.ContextVar`, so spans nest correctly
per thread *and* per asyncio task.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON
lines at the end of a run.  :meth:`Tracer.self_ms` gives each span's
self time: its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, key):
        parent = self._current.get()
        sid = next(self._ids)
        if key is None and parent is not None:
            key = parent[1]
        token = self._current.set((sid, key))
        return sid, (parent[0] if parent is not None else None), key, token

    def _close(self, name, start, sid, parent, key, token, attrs) -> None:
        end = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append((name, start, end, sid, parent, key, attrs))

    def wrap(self, owner, attr: str, name: str,
             key: Optional[Callable] = None,
             attrs: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module, class or instance member)
        with a span-recording wrapper.  ``key(*args)`` names the
        request or batch; ``attrs(*args)`` adds per-call attributes.
        Coroutine functions get an ``async`` wrapper; on a class the
        wrapper is a plain function, so it still binds as a method."""
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                sid, parent, k, token = tracer._open(
                    key(*args) if key else None)
                start = time.perf_counter_ns()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(name, start, sid, parent, k, token,
                                  attrs(*args) if attrs else None)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                sid, parent, k, token = tracer._open(
                    key(*args) if key else None)
                start = time.perf_counter_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(name, start, sid, parent, k, token,
                                  attrs(*args) if attrs else None)

        had_own = attr in vars(owner)
        self._patches.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped member back, newest first."""
        while self._patches:
            owner, attr, had_own, previous = self._patches.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def clear(self) -> None:
        self.spans = []

    # -- analysis ------------------------------------------------------------

    def self_ms(self) -> Dict[int, float]:
        """Span id -> self time in ms (duration minus the union of the
        intervals its direct children cover inside it)."""
        children: Dict[int, List[tuple]] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[1], span[2]))
        out = {}
        for name, start, end, sid, _parent, _key, _attrs in self.spans:
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, cursor)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start - covered) / 1e6
        return out

    def summary(self) -> Dict[str, Dict[str, list]]:
        """Per span name: inclusive and self times (ms), keys, attrs --
        the picklable/JSON form a server process sends back."""
        self_ms = self.self_ms()
        out: Dict[str, Dict[str, list]] = {}
        for name, start, end, sid, _parent, key, attrs in self.spans:
            entry = out.setdefault(
                name, {"total_ms": [], "self_ms": [], "key": [],
                       "attrs": []})
            entry["total_ms"].append((end - start) / 1e6)
            entry["self_ms"].append(self_ms[sid])
            entry["key"].append(key)
            entry["attrs"].append(attrs)
        return out

    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        fields = ("name", "start_ns", "end_ns", "id", "parent", "key",
                  "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def merge_summaries(*summaries: Dict) -> Dict[str, Dict[str, list]]:
    """Concatenate :meth:`Tracer.summary` outputs (e.g. one per server
    process)."""
    out: Dict[str, Dict[str, list]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            dest = out.setdefault(
                name, {"total_ms": [], "self_ms": [], "key": [],
                       "attrs": []})
            for field, values in entry.items():
                dest[field].extend(values)
    return out
