"""Spans and counts for the traced benchmark run, recorded from outside
collkit.

Tracing rebinds public functions on their modules or classes for the
length of one traced run and restores them afterwards; nothing inside the
library is edited. Spans (id, name, start, end, parent, op id, thread,
arg) and counts are kept in memory, one store per thread so rank threads
never share a counter, and are written at the end as Chrome Trace Event
JSON, which Perfetto and chrome://tracing open.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# Span tuple layout.
SID, NAME, START, END, PARENT, OP, TID, ARG = range(8)

TRANSPORT_SPANS = frozenset({"transport.send", "transport.recv"})


class _ThreadState:
    __slots__ = ("tid", "stack", "spans", "counts", "op")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None


class Recorder:
    """In-memory span and count store shared by every thread of a run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.t0 = time.perf_counter()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def set_op(self, op: int | None) -> None:
        """Tag the spans this thread records next with a collective op id."""
        self.state().op = op

    def add(self, name: str, n: int = 1) -> None:
        self.state().counts[name] += n

    def begin(self) -> tuple[_ThreadState, int, int | None, float]:
        st = self.state()
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else None
        st.stack.append(sid)
        return st, sid, parent, time.perf_counter()

    def end(self, token, name: str, arg=None) -> None:
        end = time.perf_counter()
        st, sid, parent, start = token
        st.stack.pop()
        st.spans.append((sid, name, start, end, parent, st.op, st.tid, arg))

    def spans(self) -> list[tuple]:
        return [s for st in self._threads for s in st.spans]

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = defaultdict(int)
        for st in self._threads:
            for name, n in st.counts.items():
                total[name] += n
        return dict(total)

    def write_chrome_trace(self, path: Path, other: dict) -> None:
        """Write every span as a complete ("X") event; counts and metrics
        go under ``otherData``."""
        events = [
            {
                "name": s[NAME],
                "cat": s[NAME].split(".", 1)[0],
                "ph": "X",
                "ts": (s[START] - self.t0) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": 1,
                "tid": s[TID],
                "args": {"id": s[SID], "parent": s[PARENT], "op": s[OP], "arg": s[ARG]},
            }
            for s in sorted(self.spans(), key=lambda s: s[START])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}, fh)


def self_times(spans, child_names=None) -> dict[int, float]:
    """Span id -> its duration minus the summed duration of its direct
    children; with ``child_names``, only children of those names count."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None and (child_names is None or s[NAME] in child_names):
            covered[s[PARENT]] += s[END] - s[START]
    return {s[SID]: (s[END] - s[START]) - covered[s[SID]] for s in spans}


def total_time(spans, name: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


class Patcher:
    """Rebinds attributes and restores the originals on ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def spanned(rec: Recorder, name: str, fn, arg_of=None):
    """``fn`` wrapped in a span; ``arg_of(*args)`` fills the span's arg."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = rec.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(token, name, arg_of(*args) if arg_of else None)

    return wrapper


def counted(rec: Recorder, name: str, fn):
    """``fn`` wrapped so that each call adds one to count ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.add(name)
        return fn(*args, **kwargs)

    return wrapper


def timed_iter(rec: Recorder, name: str, it):
    """Yield from ``it`` with one span around each step of it."""
    while True:
        token = rec.begin()
        try:
            item = next(it)
        except StopIteration:
            rec.end(token, name)
            return
        rec.end(token, name)
        yield item


class TracedEndpoint:
    """Proxy transport endpoint handed to ``Communicator``: spans every
    send and receive, and counts messages and payload bytes sent inside a
    collective op."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec
        self.rank = inner.rank

    def send(self, dst: int, tag: int, payload) -> None:
        rec = self._rec
        token = rec.begin()
        try:
            self._inner.send(dst, tag, payload)
        finally:
            nbytes = len(payload)
            rec.end(token, "transport.send", nbytes)
            if token[0].op is not None:
                rec.add("transport.msgs")
                rec.add("transport.bytes", nbytes)

    def recv(self, src: int, tag: int):
        token = self._rec.begin()
        try:
            return self._inner.recv(src, tag)
        finally:
            self._rec.end(token, "transport.recv")
