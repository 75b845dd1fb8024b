"""Outside-in tracing: timing wrappers around public functions of ``repro``.

Nothing in ``src/`` changes.  :func:`install_server` wraps the functions
the async server core calls, :func:`install_client` the ones the
``NormClient`` load generator calls.  Each wrapper appends one span
``(name, start, end, request_id, rows)`` to a :class:`SpanStore` on the
``perf_counter`` clock, which is ``CLOCK_MONOTONIC`` and therefore shared
by the server and the generator process.

A wrapper records only the outermost of nested calls of the same span
name on one thread, so sums never count a nested call twice.
"""

from __future__ import annotations

import inspect
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import procfs

Span = Tuple[str, float, float, Optional[int], int]


def _rid(payload: Any) -> Optional[int]:
    if isinstance(payload, dict):
        rid = payload.get("request_id")
        if isinstance(rid, int) and not isinstance(rid, bool):
            return rid
    return None


class SpanStore:
    """Spans kept in memory (``list.append`` is atomic under the GIL)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._active = threading.local()

    def timed(
        self,
        name: str,
        fn: Callable,
        rid_of: Callable[[tuple, Any], Optional[int]] = lambda args, result: None,
        rows_of: Callable[[tuple], int] = lambda args: 0,
    ) -> Callable:
        """``fn`` wrapped to record one span per outermost call."""

        def wrapper(*args, **kwargs):
            active = self._active.__dict__
            if active.get(name):
                return fn(*args, **kwargs)
            active[name] = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                active[name] = False
            end = perf_counter()
            self.spans.append((name, start, end, rid_of(args, result), rows_of(args)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def mark(self, name: str) -> None:
        """A zero-length span: a counted event."""
        now = perf_counter()
        self.spans.append((name, now, now, None, 0))


class Patcher:
    """Replaces attributes and puts the originals back on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def install_client(store: SpanStore) -> Patcher:
    """Time the generator's encode (envelope build + frame encode) and
    decode (frame decode + response parse + tensor views)."""
    from repro.api import client, envelopes, framing

    patcher = Patcher()
    encode = "client.encode"
    decode = "client.decode"
    patcher.wrap(envelopes.TensorPayload, "from_array", lambda f: store.timed(encode, f))
    for request_cls in (envelopes.NormalizeRequest, envelopes.NormalizeBulkRequest):
        patcher.wrap(
            request_cls, "to_wire",
            lambda f: store.timed(encode, f, rid_of=lambda a, r: _rid(r)),
        )
    patcher.wrap(
        framing, "encode_frame",
        lambda f: store.timed(encode, f, rid_of=lambda a, r: _rid(a[0])),
    )
    patcher.wrap(
        framing, "decode_payload",
        lambda f: store.timed(decode, f, rid_of=lambda a, r: _rid(r)),
    )
    patcher.wrap(
        client, "parse_response",
        lambda f: store.timed(decode, f, rid_of=lambda a, r: _rid(a[0])),
    )
    patcher.wrap(envelopes.TensorPayload, "to_array", lambda f: store.timed(decode, f))
    return patcher


def install_server(store: SpanStore) -> Patcher:
    """Time the async core's codec, handler, scheduler telemetry and engine
    runs, and count its executor hand-offs."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.api import aserver, framing, handler
    from repro.engine.registry import Engine
    from repro.serving.telemetry import ServingTelemetry

    patcher = Patcher()
    patcher.wrap(framing.FrameDecoder, "feed", lambda f: store.timed("codec.decode", f))
    patcher.wrap(
        aserver, "peek_payload",
        lambda f: store.timed("codec.decode", f, rid_of=lambda a, r: _rid(r[0])),
    )
    patcher.wrap(
        aserver, "decode_payload",
        lambda f: store.timed("codec.decode", f, rid_of=lambda a, r: _rid(r)),
    )
    patcher.wrap(
        aserver, "encode_frame",
        lambda f: store.timed("codec.encode", f, rid_of=lambda a, r: _rid(a[0])),
    )

    def wrap_begin(begin: Callable) -> Callable:
        def timed_begin(self, payload, *args, **kwargs):
            pendings, finish = begin(self, payload, *args, **kwargs)
            rid = _rid(payload)
            return pendings, store.timed("handler", finish, rid_of=lambda a, r: rid)

        return store.timed("handler", timed_begin, rid_of=lambda a, r: _rid(a[1]))

    patcher.wrap(handler.ApiHandler, "begin", wrap_begin)
    patcher.wrap(
        handler.ApiHandler, "handle",
        lambda f: store.timed("handler", f, rid_of=lambda a, r: _rid(a[1])),
    )
    patcher.wrap(ServingTelemetry, "observe_batch", lambda f: store.timed("telemetry", f))
    patcher.wrap(
        Engine, "run",
        lambda f: store.timed("engine", f, rows_of=lambda a: int(a[1].shape[0])),
    )
    patcher.wrap(
        Engine, "run_many",
        lambda f: store.timed(
            "engine", f, rows_of=lambda a: sum(int(g[0].shape[0]) for g in a[1])
        ),
    )

    def wrap_submit(submit: Callable) -> Callable:
        def counted_submit(self, *args, **kwargs):
            if getattr(self, "_thread_name_prefix", "").startswith("haan-async-worker"):
                store.mark("executor.submit")
            return submit(self, *args, **kwargs)

        return counted_submit

    patcher.wrap(ThreadPoolExecutor, "submit", wrap_submit)
    return patcher


def thread_snapshot() -> Dict[str, Dict[str, float]]:
    """CPU seconds and voluntary context switches of every task of this
    process, by thread name: ``threading`` native ids map to
    ``/proc/self/task/<tid>``; tasks Python did not start are ``tid-<n>``."""
    pid = os.getpid()
    names = {thread.native_id: thread.name for thread in threading.enumerate()}
    out: Dict[str, Dict[str, float]] = {}
    for entry in os.listdir(f"/proc/{pid}/task"):
        tid = int(entry)
        try:
            out[names.get(tid, f"tid-{tid}")] = {
                "cpu_s": procfs.thread_cpu_s(pid, tid),
                "voluntary_switches": procfs.thread_voluntary_switches(pid, tid),
            }
        except OSError:
            continue  # the task ended between the listing and the read
    return out
