"""Continuous cross-connection batching scheduler.

Requests accumulate in per-bucket FIFO queues; a bucket is one
:class:`~repro.serving.request.RequestKey` (model / dataset / layer / path)
plus a power-of-two payload size class, so single-token traffic never
queues behind large sequence chunks while chunks of similar size still
coalesce.

Release follows an engine-tick discipline: whenever the engine is free,
the best releasable batch drains immediately.  Requests only queue while a
batch is executing, which is exactly the window in which coalescing is
free -- the scheduler never trades latency for batch size, it only
harvests batching that concurrency already paid for.  Because every
server connection submits into one scheduler, batches form *across*
connections each tick.

Bucket selection is earliest-deadline-first with an aging bound:

``urgency(head) = min(deadline_at, enqueued_at + aging_window)``

and the bucket whose head has the smallest urgency wins the tick.  The
``enqueued_at + aging_window`` term is the starvation-freedom guarantee:
a request with no (or a distant) deadline acquires an urgency bound that
is *fixed* at enqueue time, while every later arrival's bound is strictly
larger -- so under a sustained flood of hot-bucket traffic the oldest
bucket still wins every tick after ``aging_window`` seconds of waiting.

Deadline expiry is enforced at release time: a request whose
``deadline_at`` has passed is shed with a typed
:class:`~repro.api.envelopes.DeadlineExceededError` *before* execution --
the engine never burns a tick on work nobody is waiting for.  Batch
composition never affects outputs (row-independent kernels, the golden
contract), so every served request is bit-identical to running it alone.

The batcher owns no thread: whoever serves it pumps :meth:`drain_once` /
:meth:`drain_all`.  The async server drains it from a tick callback on its
event loop; a :class:`~repro.serving.service.NormalizationService` caller
drains it on its own thread inside ``wait``.  Several threads may drain
one batcher at once: every pop happens under the queue lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.api.envelopes import DeadlineExceededError
from repro.serving.request import NormRequest, RequestKey


#: Sentinel marking a future whose done-callbacks already fired; callbacks
#: registered afterwards run immediately on the registering thread.
_CALLBACKS_FIRED = object()


class ResponseFuture:
    """Minimal future resolved exactly once by the batch executor.

    ``concurrent.futures.Future`` allocates a condition variable per
    instance, which at micro-batch request rates costs more than the
    normalization kernel itself.  This future is a plain attribute cell:
    the waiter's event is created lazily and only when a caller actually
    blocks before the result lands (a thread waiting on a batch another
    thread is draining), so the common path pays two attribute writes per
    request.
    """

    __slots__ = ("_value", "_error", "_done", "_event", "_callbacks")

    #: Guards lazy event creation when several threads wait on one future,
    #: and the callback handoff when a thread registers a callback while
    #: another thread's drain resolves the future; class-level so the
    #: per-request fast path allocates nothing.
    _EVENT_LOCK = threading.Lock()

    def __init__(self) -> None:
        self._value = None
        self._error: Optional[BaseException] = None
        self._done = False
        self._event: Optional[threading.Event] = None
        self._callbacks = None

    def _finish(self) -> None:
        """Wake waiters and fire callbacks after the result landed."""
        event = self._event
        if event is not None:
            event.set()
        callbacks = None
        if self._callbacks is not None:
            with ResponseFuture._EVENT_LOCK:
                callbacks = self._callbacks
                self._callbacks = _CALLBACKS_FIRED
        if callbacks is not None and callbacks is not _CALLBACKS_FIRED:
            for callback in callbacks:
                callback(self)

    def set_result(self, value) -> None:
        """Resolve the future (executor side)."""
        self._value = value
        self._done = True
        self._finish()

    def set_exception(self, error: BaseException) -> None:
        """Fail the future (executor side)."""
        self._error = error
        self._done = True
        self._finish()

    def done(self) -> bool:
        """Whether a result or exception has been set."""
        return self._done

    def exception(self) -> Optional[BaseException]:
        """The stored exception, if the future failed (non-blocking)."""
        return self._error

    def add_done_callback(self, callback) -> None:
        """Run ``callback(self)`` once resolved (immediately if already done).

        Callbacks registered before resolution run on the resolving thread
        (whoever drained the batch); ones registered after run on the
        registering thread.  The asyncio server core bridges these futures
        onto its event loop through this hook, so callbacks must never
        block.
        """
        with ResponseFuture._EVENT_LOCK:
            if self._callbacks is not _CALLBACKS_FIRED:
                if self._done:
                    # Resolved before any callback list existed: the setter
                    # saw _callbacks None and skipped the handoff.  Mark
                    # fired so later registrations take the fast path too.
                    self._callbacks = _CALLBACKS_FIRED
                else:
                    if self._callbacks is None:
                        self._callbacks = []
                    self._callbacks.append(callback)
                    return
        callback(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved (or ``timeout`` seconds); whether it is done."""
        if not self._done:
            if self._event is None:
                with ResponseFuture._EVENT_LOCK:
                    if self._event is None:
                        self._event = threading.Event()
            # Re-check after publishing the event: a setter that missed the
            # event has already flipped _done by now (GIL ordering).  A
            # timed-out wait is not proof of an unresolved future either:
            # the setter may have flipped _done between wait() giving up
            # and the return (it sets _done before set()), so the final
            # answer is _done itself -- never a *spurious* timeout on a
            # request that actually completed in time.
            if not self._done:
                self._event.wait(timeout)
        return self._done

    def result(self, timeout: Optional[float] = None):
        """Block until resolved; raises the stored exception if any."""
        if not self.wait(timeout):
            raise TimeoutError("normalization request timed out")
        if self._error is not None:
            raise self._error
        return self._value


@dataclass(frozen=True)
class BatcherConfig:
    """Batch-composition caps of the scheduler."""

    #: Most requests released together as one batch.
    max_batch_size: int = 32
    #: Cap on stacked rows per batch (bounds kernel working-set size).
    max_batch_rows: int = 8192

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_batch_rows < 1:
            raise ValueError("max_batch_rows must be at least 1")


def size_class(num_rows: int) -> int:
    """Bucket id of a payload size: its row count rounded up to a power of two."""
    return 1 << (max(1, num_rows) - 1).bit_length()


class PendingRequest(ResponseFuture):
    """A queued request that IS its own completion future.

    Folding the future into the queue record halves the per-request object
    allocations on the hot submit path; callers treat the returned object
    purely as a future (``result()`` / ``done()``).
    """

    __slots__ = ("request", "enqueued_at", "deadline_at")

    def __init__(self, request: NormRequest, enqueued_at: float):
        # Future state inlined (instead of super().__init__()): one function
        # call per request on the hot submit path.
        self._value = None
        self._error = None
        self._done = False
        self._event = None
        self._callbacks = None
        self.request = request
        self.enqueued_at = enqueued_at
        deadline_ms = request.deadline_ms
        # Deadlines are wall-budget offsets on the wire; anchor them to the
        # batcher clock at enqueue so the scheduler compares like with like.
        self.deadline_at = (
            None if deadline_ms is None else enqueued_at + deadline_ms / 1000.0
        )


BucketKey = Tuple[RequestKey, int]
#: Batch executor callback: ``(request_key, batch, total_rows)``.  The
#: batcher already sums the stacked row count while forming the batch, so
#: the executor can size its staging buffers without re-walking the batch.
ExecuteFn = Callable[[RequestKey, List[PendingRequest], int], None]


class ContinuousBatcher:
    """Deadline-aware, starvation-free continuous batching scheduler.

    Parameters
    ----------
    execute:
        Callback receiving ``(request_key, batch, total_rows)``; it must
        resolve every pending future (the batcher fails them if the
        callback raises).
    config:
        Batch-composition caps.
    clock:
        Monotonic time source (injectable for deterministic timeout tests).
    aging_window:
        Seconds after which a deadline-less (or distant-deadline) request
        becomes at least as urgent as any deadline could make it.  Bounds
        worst-case queueing delay under adversarial hot-bucket floods.
    """

    def __init__(
        self,
        execute: ExecuteFn,
        config: Optional[BatcherConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        aging_window: float = 0.020,
    ):
        if aging_window <= 0:
            raise ValueError("aging_window must be positive")
        self.config = config or BatcherConfig()
        self.aging_window = aging_window
        self._execute = execute
        self._clock = clock
        self._queues: "OrderedDict[BucketKey, Deque[PendingRequest]]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False
        self.batches_executed = 0
        self.requests_executed = 0
        #: Requests shed at release time because their deadline expired.
        self.requests_shed = 0

    # -- submission --------------------------------------------------------

    def submit(self, request: NormRequest) -> ResponseFuture:
        """Enqueue a request; the returned future resolves to a NormResponse."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence[NormRequest]) -> List[ResponseFuture]:
        """Enqueue a burst of requests under a single lock acquisition."""
        now = self._clock()
        pendings = [PendingRequest(request, now) for request in requests]
        with self._lock:
            if self._closed:
                # A submit racing stop() must be rejected, not silently
                # queued after the final drain -- its future would never
                # resolve and a caller without a timeout would hang.
                raise RuntimeError("batcher is stopped; no new requests accepted")
            queues = self._queues
            # Bursts overwhelmingly share one bucket; memoize the last lookup
            # (by key identity) so the hot path skips hashing the RequestKey
            # per request.
            last_key = last_class = None
            queue: Optional[Deque[PendingRequest]] = None
            for pending in pendings:
                request = pending.request
                sclass = size_class(request.num_rows)
                if request.key is not last_key or sclass != last_class:
                    bucket = (request.key, sclass)
                    queue = queues.get(bucket)
                    if queue is None:
                        queue = queues[bucket] = deque()
                    last_key, last_class = request.key, sclass
                queue.append(pending)
        return pendings

    @property
    def pending_count(self) -> int:
        """Number of requests currently queued."""
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    # -- batch formation ---------------------------------------------------

    def _urgency(self, head: PendingRequest) -> float:
        """Scheduling priority of a bucket head (smaller = sooner)."""
        aged = head.enqueued_at + self.aging_window
        deadline = head.deadline_at
        return aged if deadline is None else min(deadline, aged)

    @staticmethod
    def _fail_expired(expired: List[PendingRequest]) -> None:
        for pending in expired:
            budget_ms = pending.request.deadline_ms
            pending.set_exception(
                DeadlineExceededError(
                    f"deadline_ms={budget_ms:g} expired before the request "
                    f"reached the engine"
                )
            )

    def _pop_batch_locked(
        self, now: float
    ) -> Optional[Tuple[RequestKey, List[PendingRequest], int]]:
        """Pop the most urgent releasable batch, shedding expired requests.

        The engine tick *is* the trigger: whenever anything is queued a
        batch is released immediately.  ``None`` means the queues are truly
        empty.

        Expired requests are failed inside the scheduling pass (their
        ``set_exception`` fires done-callbacks, which must not block -- the
        :class:`ResponseFuture` contract) so a deadline-blown request can
        never delay, nor ride along with, live work.
        """
        shed: List[PendingRequest] = []
        try:
            while True:
                best_bucket: Optional[BucketKey] = None
                best_urgency = float("inf")
                for bucket, queue in self._queues.items():
                    urgency = self._urgency(queue[0])
                    if urgency < best_urgency:
                        best_bucket, best_urgency = bucket, urgency
                if best_bucket is None:
                    return None
                queue = self._queues[best_bucket]
                while queue and (
                    queue[0].deadline_at is not None and queue[0].deadline_at <= now
                ):
                    shed.append(queue.popleft())
                if not queue:
                    del self._queues[best_bucket]
                    continue  # whole bucket expired; rescore the rest
                batch: List[PendingRequest] = [queue.popleft()]
                rows = batch[0].request.num_rows
                while queue and len(batch) < self.config.max_batch_size:
                    head = queue[0]
                    if head.deadline_at is not None and head.deadline_at <= now:
                        shed.append(queue.popleft())
                        continue
                    if rows + head.request.num_rows > self.config.max_batch_rows:
                        break
                    batch.append(queue.popleft())
                    rows += head.request.num_rows
                if not queue:
                    del self._queues[best_bucket]
                return best_bucket[0], batch, rows
        finally:
            if shed:
                self.requests_shed += len(shed)
                self._fail_expired(shed)

    def _run_batch(self, key: RequestKey, batch: List[PendingRequest], rows: int) -> None:
        # Counted first: a future's done-callback may answer its client
        # before the executor returns.
        self.batches_executed += 1
        self.requests_executed += len(batch)
        try:
            self._execute(key, batch, rows)
        except BaseException as error:  # noqa: BLE001 -- never strand a future
            for pending in batch:
                if not pending.done():
                    pending.set_exception(error)
            if not isinstance(error, Exception):
                raise  # KeyboardInterrupt / SystemExit still propagate

    # -- draining ----------------------------------------------------------

    def drain_once(self) -> int:
        """Form and execute one batch on this thread; returns requests executed."""
        with self._lock:
            ready = self._pop_batch_locked(self._clock())
        if ready is None:
            return 0
        self._run_batch(*ready)
        return len(ready[1])

    def drain_all(self) -> int:
        """Execute every queued request on this thread; returns requests executed."""
        total = 0
        while True:
            executed = self.drain_once()
            if executed == 0:
                return total
            total += executed

    def stop(self) -> None:
        """Reject new submissions, then flush everything queued."""
        with self._lock:
            self._closed = True
        self.drain_all()

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict:
        """Scheduler counters for the telemetry ``scheduler`` section."""
        with self._lock:
            pending = sum(len(q) for q in self._queues.values())
            buckets = len(self._queues)
        return {
            "policy": "continuous",
            "aging_window_ms": self.aging_window * 1000.0,
            "pending": pending,
            "buckets": buckets,
            "batches_executed": self.batches_executed,
            "requests_executed": self.requests_executed,
            "requests_shed": self.requests_shed,
        }
