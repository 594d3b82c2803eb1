"""Spans recorded from outside the program, and self-time attribution.

A :class:`Tracer` replaces a public function with a wrapper at the name
its caller looks it up by (a module attribute or a class attribute),
records one :class:`Span` per call and puts the original back on
:meth:`Tracer.restore`.  Nothing under ``src/`` changes.

Parents come from a :mod:`contextvars` variable, so spans opened in an
asyncio task, in a task it creates, or (with :meth:`Tracer.propagate_executor`)
in an executor thread it hands work to, nest under the span that caused
them.  Spans recorded in forked engine worker processes are spilled to
``spill_dir`` and merged by :meth:`Tracer.collect`.

:func:`attribute` turns spans into self times: a span's self time is
the time it is open while none of its descendants is.  Where several
such spans are open at once (two worker processes, two requests on one
event loop), that stretch is split evenly between them, so self times
plus unattributed time add up to the wall time of the traced unit.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "stackbench_span", default=None)

#: Header that carries the caller's span id across an HTTP hop.
SPAN_HEADER = "X-Stackbench-Span"


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    pid: int = 0
    thread: int = 0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"sid": self.sid, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "pid": self.pid,
                "thread": self.thread, "error": self.error,
                "attrs": self.attrs}

    @classmethod
    def from_json(cls, doc: dict) -> "Span":
        return cls(**doc)


class Tracer:
    """Wraps functions, records spans, restores the originals."""

    def __init__(self, spill_dir: pathlib.Path | None = None) -> None:
        self.spill_dir = spill_dir
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.main_pid = os.getpid()

    # -- spans ---------------------------------------------------------

    def _new_sid(self) -> int:
        return (os.getpid() << 32) | next(self._seq)

    def open(self, name: str, parent: int | None = None,
             **attrs) -> tuple[Span, contextvars.Token]:
        if parent is None:
            parent = _CURRENT.get()
        span = Span(self._new_sid(), parent, name, time.perf_counter(),
                    pid=os.getpid(), thread=threading.get_ident(),
                    attrs=attrs)
        return span, _CURRENT.set(span.sid)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        span, token = self.open(name, parent, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self.close(span, token)

    # -- wrapping --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, *, attrs=None,
             parent=None, after=None, rewrite=None,
             spill: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        ``attrs(args, kwargs)`` adds attributes when the span opens,
        ``parent(args, kwargs)`` may name a parent span id explicitly,
        ``rewrite(span, kwargs)`` may add keyword arguments (the span id
        header of a forwarded request), ``after(span, result)``
        annotates the span from the return value, and ``spill`` writes a
        forked child's spans out when the call ends.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        def opened(args, kwargs):
            extra = attrs(args, kwargs) if attrs is not None else {}
            explicit = parent(args, kwargs) if parent is not None else None
            span, token = tracer.open(name, explicit, **extra)
            if rewrite is not None:
                rewrite(span, kwargs)
            return span, token

        def finished(span, token, result):
            if after is not None and span.error is None:
                after(span, result)
            tracer.close(span, token)
            if spill and os.getpid() != tracer.main_pid:
                tracer.spill()

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span, token = opened(args, kwargs)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    finished(span, token, result)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span, token = opened(args, kwargs)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    finished(span, token, result)
        self._patch(owner, attr, wrapper)

    def tag_http_requests(self) -> None:
        """Send the current span id on every outgoing http.client request."""
        import http.client

        cls = http.client.HTTPConnection
        original = cls.request

        def request(conn, method, url, body=None, headers=None, **kw):
            sid = _CURRENT.get()
            headers = dict(headers or {})
            if sid is not None:
                headers[SPAN_HEADER] = str(sid)
            return original(conn, method, url, body, headers, **kw)

        self._patch(cls, "request", request)

    def propagate_executor(self) -> None:
        """Run executor work in the submitting task's context."""
        import asyncio.base_events as base_events

        cls = base_events.BaseEventLoop
        original = cls.run_in_executor

        def run_in_executor(loop, executor, func, *args):
            ctx = contextvars.copy_context()
            return original(loop, executor, ctx.run, func, *args)

        self._patch(cls, "run_in_executor", run_in_executor)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker processes --------------------------------------------------

    def spill(self) -> None:
        """Append this (forked) process's spans to its spill file."""
        pid = os.getpid()
        with self._lock:
            mine = [s for s in self.spans if s.pid == pid]
            self.spans = [s for s in self.spans if s.pid != pid]
        if not mine or self.spill_dir is None:
            return
        path = self.spill_dir / f"spans-{pid}.jsonl"
        with path.open("a") as handle:
            for span in mine:
                handle.write(json.dumps(span.to_json()) + "\n")

    def collect(self) -> list[Span]:
        """This process's spans plus everything workers spilled."""
        spans = list(self.spans)
        if self.spill_dir is not None and self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                for line in path.read_text().splitlines():
                    if line.strip():
                        spans.append(Span.from_json(json.loads(line)))
        return spans

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        if self.spill_dir is not None and self.spill_dir.is_dir():
            for path in self.spill_dir.glob("spans-*.jsonl"):
                path.unlink()


def attribute(spans, t0: float, t1: float) -> tuple[dict, float]:
    """Self time per span id within ``[t0, t1]``, plus unattributed time.

    Returns ``(self_by_sid, unattributed)``; the values sum to
    ``t1 - t0``.
    """
    by_id = {s.sid: s for s in spans}
    edges = []
    for s in spans:
        a, b = max(s.start, t0), min(s.end, t1)
        if b > a:
            edges.append((a, 1, s.sid))
            edges.append((b, 0, s.sid))
    edges.sort()
    active: set[int] = set()
    own: dict[int, float] = {}
    unattributed = 0.0
    prev = t0
    for t, opening, sid in edges:
        dt = t - prev
        if dt > 0.0:
            if not active:
                unattributed += dt
            else:
                covered: set[int] = set()
                for a in active:
                    p = by_id[a].parent
                    while p is not None and p not in covered:
                        covered.add(p)
                        parent = by_id.get(p)
                        p = parent.parent if parent is not None else None
                leaves = [a for a in active if a not in covered]
                share = dt / len(leaves)
                for a in leaves:
                    own[a] = own.get(a, 0.0) + share
            prev = t
        if opening:
            active.add(sid)
        else:
            active.discard(sid)
    unattributed += max(0.0, t1 - prev)
    return own, unattributed


def self_times(spans, t0: float, t1: float) -> tuple[dict, float]:
    """Self time per span *name* within ``[t0, t1]``, plus unattributed."""
    own, unattributed = attribute(spans, t0, t1)
    by_sid = {s.sid: s.name for s in spans}
    totals: dict[str, float] = {}
    for sid, seconds in own.items():
        name = by_sid[sid]
        totals[name] = totals.get(name, 0.0) + seconds
    return totals, unattributed


def export_perfetto(spans, path: pathlib.Path, metadata: dict) -> pathlib.Path:
    """Write spans through the program's own Chrome/Perfetto exporter."""
    from repro import EventStream, write_chrome_trace

    stream = EventStream(capacity=max(1, len(spans)))
    for s in sorted(spans, key=lambda s: s.start):
        stream.complete(s.name, s.name.split(".")[0], s.start * 1e6,
                        s.duration * 1e6, domain="wall", pid=s.pid,
                        thread=s.thread, span=s.sid,
                        parent=s.parent or 0,
                        **({"error": s.error} if s.error else {}))
    return write_chrome_trace(stream, path, metadata)
