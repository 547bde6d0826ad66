"""Shared reactor I/O: a selectors-based event loop for the whole stack.

This is the stack's one I/O engine: one event-loop thread owns every
socket, and all higher layers register *callbacks* instead of spawning
threads, so a proxy serving N tunnels costs one loop thread, not O(N).
Multi-core scale-out is the shard fleet's job: each worker process runs
its own reactor.

Three pieces live here:

* :class:`Reactor` — one event-loop thread with a ``selectors``
  selector, a self-pipe for cross-thread wakeups, and a timer heap
  (one-shot :meth:`~Reactor.call_later` and jittered periodic
  :meth:`~Reactor.call_every` — heartbeats and deadline expiry ride
  these).  Channels of *any* transport join via
  :meth:`~Reactor.add_channel`, which drives the
  ``poll_recv``/``set_ready_callback`` protocol every
  :class:`~repro.transport.channel.Channel` implements; in-process,
  UDP and fault-injected channels therefore run on the loop unchanged.
* :class:`ReactorTcpChannel` — the TCP channel, a non-blocking socket
  owned by a reactor: the loop reads and feeds the frame decoder, and
  outbound frames go through a **bounded per-channel write queue**
  flushed with vectored ``sendmsg`` writes
  (:func:`~repro.transport.tcp.send_views`).  When a slow peer fills the
  queue, ``send`` blocks up to ``send_timeout`` and then raises
  :class:`~repro.transport.errors.ChannelBusy` — bounded memory,
  deterministic backpressure.  :class:`ReactorTcpListener` and
  :func:`connect_tcp_reactor` make them.
* :func:`get_global_reactor` — the shared process-wide reactor.
"""

from __future__ import annotations

import heapq
import itertools
import random
import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Iterable, Optional

from repro.obs import racesan
from repro.obs.metrics import get_global_registry
from repro.transport.channel import Channel, Listener
from repro.transport.errors import (
    ChannelBusy,
    ChannelClosed,
    FrameError,
    TransportTimeout,
)
from repro.transport.frames import Frame, FrameDecoder, encode_frame_views
from repro.transport.tcp import (
    _set_nodelay,
    advance_views,
    close_listener,
    send_views,
)

__all__ = [
    "Reactor",
    "ReactorTcpChannel",
    "ReactorTcpListener",
    "TimerHandle",
    "connect_tcp_reactor",
    "current_owner",
    "get_global_reactor",
    "on_reactor_thread",
    "reset_global_reactor",
]

_RECV_CHUNK = 64 * 1024
#: frames delivered per drain pass before yielding to other channels
_DRAIN_BATCH = 128
_timer_seq = itertools.count()
#: ident -> reactor name for every live event-loop thread, across all
#: reactors (the name is the racesan ownership token)
_loop_owners: dict = {}


def on_reactor_thread() -> bool:
    """True when the calling thread is any reactor event-loop thread.

    Senders must never *block* on a loop thread — a blocked loop cannot
    flush the very queue the sender is waiting on (nor any other channel
    it owns).  Backpressure paths use this to fail fast instead.
    """
    return threading.get_ident() in _loop_owners


def current_owner() -> Optional[str]:
    """The reactor-ownership token for the calling thread, or ``None``.

    Loop-confined state (decoder buffers, write queues between flushes)
    is synchronized by loop ownership rather than by a mutex; the race
    sanitizer treats this token — ``"loop:<name>"`` — as a pseudo-lock
    held for the entire life of the loop thread, so accesses serialized
    on one loop never look unlocked to the lockset refinement.
    """
    name = _loop_owners.get(threading.get_ident())
    return None if name is None else f"loop:{name}"


# racesan cannot import this module (obs must stay transport-free), so
# the ownership hook is pushed to it from here at import time.
racesan.set_owner_resolver(current_owner)


class TimerHandle:
    """Cancellation handle for a scheduled (possibly periodic) callback."""

    __slots__ = ("interval", "jitter", "callback", "_cancelled")

    def __init__(self, callback, interval: Optional[float], jitter: float):
        self.callback = callback
        self.interval = interval
        self.jitter = jitter
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _next_delay(self) -> float:
        """Period until the next firing, jittered ±``jitter``·interval.

        Jitter decorrelates periodic work (every proxy heartbeating at
        the same instant is a thundering herd); the bound keeps the
        failure detector's timing assumptions valid.
        """
        assert self.interval is not None
        if not self.jitter:
            return self.interval
        spread = self.interval * self.jitter
        return max(0.0, self.interval + random.uniform(-spread, spread))


class _Registration:
    """One channel's membership on a reactor: ready-flag + drain bookkeeping."""

    __slots__ = ("channel", "on_batch", "on_close", "_reactor",
                 "_lock", "_scheduled", "_closed")

    def __init__(self, channel: Channel, on_batch, on_close, reactor: "Reactor"):
        self.channel = channel
        self.on_batch = on_batch
        self.on_close = on_close
        self._reactor = reactor
        self._lock = threading.Lock()
        self._scheduled = False
        self._closed = False

    # -- producer side (any thread) ------------------------------------

    def ready(self) -> None:
        with self._lock:
            if self._scheduled or self._closed:
                return
            self._scheduled = True
        self._reactor.schedule(self._drain)

    # -- loop side -------------------------------------------------------

    def _drain(self) -> None:
        """Collect the whole decoder backlog, deliver it as one batch.

        One loop wakeup → one ``on_batch(frames)`` call → one dispatch
        pass downstream, so per-frame scheduling overhead (ready-flag
        churn, handler indirection, reply syscalls) is paid per burst.
        Frames already drained are always delivered before a terminal
        condition is surfaced — a death notice must not eat data.
        """
        with self._lock:
            self._scheduled = False
            if self._closed:
                return
        batch: list = []
        error: Optional[Exception] = None
        for _ in range(_DRAIN_BATCH):
            try:
                frame = self.channel.poll_recv()
            except Exception as exc:  # ChannelClosed, FrameError, record MAC…
                error = exc
                break
            if frame is None:
                break
            batch.append(frame)
        if batch:
            try:
                self.on_batch(batch)
            except Exception:
                pass  # a faulty handler must not kill the shared loop
        if error is not None:
            self._finish(error)
        elif len(batch) == _DRAIN_BATCH:
            self.ready()  # backlog may run deeper: yield, then continue

    def _finish(self, exc: Exception) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.channel.set_ready_callback(None)
        except Exception:
            pass
        if self.on_close is not None:
            try:
                self.on_close(self.channel, exc)
            except Exception:
                pass


def _drain_wake_pipe(wake_recv: socket.socket, mask: int) -> None:
    try:
        while wake_recv.recv(4096):  # gridlint: disable=GL101 -- wake pipe is non-blocking; drain exits on BlockingIOError
            pass
    except (BlockingIOError, OSError):
        pass


class Reactor:
    """One event-loop thread: selector + self-pipe + pending queue + timers.

    One reactor serves any number of proxies/tunnels: the thread count
    is one, not O(connections) — which is the whole point.  ``start`` is
    idempotent, and a stopped reactor restarts on its next use with a
    fresh selector and thread rather than dropping work on a dead one.
    """

    def __init__(self, name: str = "reactor"):
        self.name = name
        self._lock = threading.Lock()  # serialises start/stop
        self._pending: deque = deque()
        self._pending_lock = threading.Lock()
        self._timers: list = []  # heap of (deadline, seq, handle)
        self._timer_lock = threading.Lock()
        # Per-run state, replaced on every (re)start: the exiting thread
        # of a stopped run closes its own selector and wake pipe.
        self._running: Optional[threading.Event] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_send: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self.thread_ident: Optional[int] = None
        # Shared-infrastructure instruments (the reactor belongs to the
        # process, not to any one proxy): timer lag is the loop-health
        # signal — how late the loop gets to work it promised to run.
        metrics = get_global_registry()
        self._m_timer_lag = metrics.histogram("reactor.timer_lag_s")
        self._m_callbacks = metrics.counter("reactor.callbacks")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "Reactor":
        with self._lock:
            if self._running is not None and self._running.is_set():
                return self
            previous = self._thread
            if previous is not None and previous is not threading.current_thread():
                previous.join(timeout=5.0)
            # A restart begins empty, like a fresh reactor: work queued
            # for the stopped run died with its selector.
            with self._pending_lock:
                self._pending.clear()
            with self._timer_lock:
                self._timers.clear()
            selector = selectors.DefaultSelector()
            wake_recv, wake_send = socket.socketpair()
            wake_recv.setblocking(False)
            wake_send.setblocking(False)
            selector.register(
                wake_recv, selectors.EVENT_READ,
                lambda mask: _drain_wake_pipe(wake_recv, mask),
            )
            running = threading.Event()
            running.set()
            self._running, self._selector, self._wake_send = (
                running, selector, wake_send
            )
            self._thread = threading.Thread(
                target=self._run, args=(running, selector, wake_recv, wake_send),
                daemon=True, name=self.name,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop thread and wait (up to 5 s) for it to exit."""
        with self._lock:
            running, thread = self._running, self._thread
            if running is not None:
                running.clear()
            self.wake()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    def on_loop_thread(self) -> bool:
        return threading.get_ident() == self.thread_ident

    # -- cross-thread entry points --------------------------------------

    def wake(self) -> None:
        try:
            self._wake_send.send(b"\x00")
        except (AttributeError, BlockingIOError, OSError):
            pass  # pipe already full → the loop is waking anyway

    def schedule(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop thread at the next iteration."""
        with self._pending_lock:
            self._pending.append(fn)
        self.wake()

    def call_later(self, delay: float, fn: Callable[[], None]) -> TimerHandle:
        handle = TimerHandle(fn, interval=None, jitter=0.0)
        self.start()  # a stopped reactor restarts on its next use
        self._push_timer(max(0.0, delay), handle)
        return handle

    def call_every(
        self, interval: float, fn: Callable[[], None], jitter: float = 0.0
    ) -> TimerHandle:
        """Periodic callback every ``interval`` seconds, jittered
        ±``jitter``·interval per firing."""
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        handle = TimerHandle(fn, interval=interval, jitter=jitter)
        self.start()
        self._push_timer(handle._next_delay(), handle)
        return handle

    def _push_timer(self, delay: float, handle: TimerHandle) -> None:
        deadline = time.monotonic() + delay
        with self._timer_lock:
            heapq.heappush(self._timers, (deadline, next(_timer_seq), handle))
        self.wake()

    # -- fd management (loop thread only; use schedule() from outside) ---

    def register_fd(self, fileobj, events: int, callback) -> None:
        self._selector.register(fileobj, events, callback)

    def modify_fd(self, fileobj, events: int, callback) -> None:
        self._selector.modify(fileobj, events, callback)

    def unregister_fd(self, fileobj) -> None:
        try:
            self._selector.unregister(fileobj)
        except (KeyError, ValueError):
            pass

    # -- channels --------------------------------------------------------

    def add_channel(
        self,
        channel: Channel,
        on_batch: Callable[[list], None],
        on_close: Optional[Callable[[Channel, Exception], None]] = None,
    ) -> _Registration:
        """Drive ``channel`` from the loop, delivering frames in batches.

        Works for every channel — reactor TCP, UDP, in-process pairs,
        fault-injected wrappers, and secure channels layered over any of
        them — through the ``poll_recv``/``set_ready_callback``
        protocol.  Each loop wakeup drains the channel's decoded backlog
        (up to an internal cap) and hands it to ``on_batch(frames)`` as
        one list, letting the consumer dispatch and reply in bulk.
        ``on_close(channel, exc)`` fires once when the channel dies
        (peer gone, framing error, record MAC failure).
        """
        # Pin layered channels to the reactor that owns their underlying
        # fd when there is one.
        reactor = (getattr(channel, "reactor_loop", None) or self).start()
        registration = _Registration(channel, on_batch, on_close, reactor)
        channel.set_ready_callback(registration.ready)
        registration.ready()  # drain anything buffered before we attached
        return registration

    # -- the loop --------------------------------------------------------

    def _next_timeout(self) -> Optional[float]:
        with self._pending_lock:
            if self._pending:
                return 0.0
        with self._timer_lock:
            if not self._timers:
                return None
            return max(0.0, self._timers[0][0] - time.monotonic())

    def _run(self, running, selector, wake_recv, wake_send) -> None:
        ident = self.thread_ident = threading.get_ident()
        _loop_owners[ident] = self.name
        try:
            while running.is_set():
                timeout = self._next_timeout()
                try:
                    events = selector.select(timeout)
                except OSError:
                    events = []
                if events:
                    self._m_callbacks.inc(len(events))
                for key, mask in events:
                    try:
                        key.data(mask)
                    except Exception:
                        pass  # one channel's fault must not kill the loop
                self._run_due_timers()
                self._run_pending()
            # Drain once more so close/unregister tasks queued during stop run.
            self._run_pending()
        finally:
            _loop_owners.pop(ident, None)
            selector.close()
            wake_recv.close()
            wake_send.close()

    def _run_pending(self) -> None:
        while True:
            with self._pending_lock:
                if not self._pending:
                    return
                fn = self._pending.popleft()
            try:
                fn()
            except Exception:
                pass

    def _run_due_timers(self) -> None:
        now = time.monotonic()
        due: list[TimerHandle] = []
        with self._timer_lock:
            while self._timers and self._timers[0][0] <= now:
                deadline, _, handle = heapq.heappop(self._timers)
                if not handle.cancelled:
                    # Loop lag: how far past its deadline the loop got to
                    # this timer.  A busy loop (slow handler, storming
                    # channel) shows up here before anything else.
                    self._m_timer_lag.observe(now - deadline)
                    due.append(handle)
        for handle in due:
            try:
                handle.callback()
            except Exception:
                pass
            if handle.interval is not None and not handle.cancelled:
                self._push_timer(handle._next_delay(), handle)


# ---------------------------------------------------------------------------
# Reactor-native TCP transport
# ---------------------------------------------------------------------------


def _queued_views(entries: Iterable) -> deque:
    """The non-empty buffers of write-queue ``(views, size)`` entries."""
    return deque(
        memoryview(view)
        for frame_views, _ in entries
        for view in frame_views
        if len(view)
    )


@racesan.shared_state
class ReactorTcpChannel(Channel):
    """A frame channel over one non-blocking TCP socket owned by a loop.

    Inbound is the **zero-copy receive path**: the loop only
    ``recv_into``'s the decoder's reassembly buffer (kernel→buffer is the
    sole copy) and notifies consumers; frames are decoded lazily at
    :meth:`poll_recv` / :meth:`recv` time.  ``poll_recv`` on the owning
    loop thread returns frames whose payload is a memoryview into the
    decoder buffer — valid until the loop's next read, which is safe
    because reads and loop-side consumption are the same thread and
    layered consumers (the record cipher) open each frame before the
    drain continues.  Cross-thread blocking ``recv`` always copies.

    Outbound: frames are encoded to iovec views and appended to a bounded
    write queue (``max_write_queue`` bytes).  The loop flushes the whole
    backlog with vectored ``sendmsg`` writes (group commit); EAGAIN arms
    write interest.  An **adaptive coalescing window** sized from the
    observed write-queue depth defers a hot channel's flush by one loop
    pass so concurrent producers share a syscall, and shrinks back to 1
    when the queue runs shallow.  A full
    queue blocks ``send`` up to ``send_timeout`` seconds, then raises
    :class:`ChannelBusy`; on the loop thread itself ``send`` never blocks
    — it raises immediately so a handler can't deadlock its own loop.
    Backpressure is checked eagerly, *before* anything is queued: a
    ``send_many`` burst that doesn't fit leaves no partial batch behind.
    """

    #: upper bound on the adaptive coalescing window (frames)
    MAX_COALESCE_WINDOW = 64

    def __init__(
        self,
        sock: socket.socket,
        reactor: Optional[Reactor] = None,
        name: str = "rtcp",
        max_write_queue: int = 4 * 1024 * 1024,
        send_timeout: Optional[float] = 10.0,
    ):
        super().__init__(name=name)
        reactor = reactor or get_global_reactor()
        self._sock = sock
        _set_nodelay(sock)
        self._sock.setblocking(False)
        #: the owning reactor; layered channels pin to it via this name
        self.reactor_loop = reactor.start()
        self.max_write_queue = max_write_queue
        self.send_timeout = send_timeout
        # inbound: raw bytes land in the decoder on the loop thread;
        # decode happens at consumption time under _rx_cond.
        self._decoder = FrameDecoder()
        self._rx_cond = threading.Condition()
        self._rx_eof = False
        self._rx_error: Optional[Exception] = None
        self._ready_cb: Optional[Callable[[], None]] = None
        # outbound
        self._wq: deque = deque()  # (views, frame_size)
        self._wq_bytes = 0
        self._wq_cond = threading.Condition()
        # Process-level backlog gauge: the sum of every channel's pending
        # write bytes.  A rising value means peers are not keeping up.
        self._m_wq_gauge = get_global_registry().gauge("reactor.write_queue_bytes")
        self._flush_scheduled = False
        self._write_armed = False
        # Adaptive coalescing state (touched on the owning loop only).
        self._coalesce_window = 1
        self._coalesce_deferred = False
        self._closed = threading.Event()
        self.reactor_loop.schedule(self._register_read)

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- loop side: reads ------------------------------------------------

    def _register_read(self) -> None:
        if self._closed.is_set():
            return
        try:
            self.reactor_loop.register_fd(
                self._sock, selectors.EVENT_READ, self._on_io
            )
        except (OSError, ValueError, KeyError):
            self._mark_eof()

    def _on_io(self, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            self._flush_on_loop()
        if mask & selectors.EVENT_READ:
            self._on_readable()

    def _on_readable(self) -> None:
        with self._rx_cond:
            try:
                n = self._decoder.feed_into(self._sock.recv_into, _RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                return
            except (OSError, FrameError):
                # OSError: socket died under us.  FrameError: the decoder
                # was poisoned by a consumer-side decode; either way the
                # stream is over.
                n = 0
            if n:
                self._rx_cond.notify_all()
            else:
                self._rx_eof = True
                self._rx_cond.notify_all()
            # Read under _rx_cond (its publication lock); call outside —
            # the callback re-enters poll_recv, which takes _rx_cond.
            cb = self._ready_cb
        if not n:
            self.reactor_loop.unregister_fd(self._sock)
        if cb is not None:
            cb()

    def _mark_eof(self) -> None:
        with self._rx_cond:
            self._rx_eof = True
            self._rx_cond.notify_all()
            cb = self._ready_cb
        if cb is not None:
            cb()

    # -- consumer side: blocking recv + reactor protocol ------------------

    def recv(self, timeout: Optional[float] = None) -> Frame:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._rx_cond:
            while True:
                frame = self._try_decode()
                if frame is not None:
                    return frame
                if self._rx_error is not None or self._rx_eof:
                    self._raise_terminal()
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TransportTimeout(f"{self.name}: recv timed out")
                self._rx_cond.wait(timeout=remaining)

    def poll_recv(self) -> Optional[Frame]:
        with self._rx_cond:
            frame = self._try_decode()
            if frame is not None:
                return frame
            if self._rx_error is not None or self._rx_eof:
                self._raise_terminal()
            return None

    def _try_decode(self) -> Optional[Frame]:
        """Decode the next buffered frame; caller holds ``_rx_cond``.

        Zero-copy (memoryview payload) only on the owning loop thread,
        where decode is serialised with the loop's own reads; any other
        thread gets a copying decode, immune to later buffer reuse.
        """
        if self._rx_error is not None:
            return None
        try:
            frame = (
                self._decoder.next_frame_view()
                if self.reactor_loop.on_loop_thread()
                else self._decoder.next_frame()
            )
        except FrameError as exc:
            self._rx_error = exc
            self.reactor_loop.schedule(self._detach_read)
            return None
        if frame is not None:
            self.stats.on_receive(self._decoder.last_frame_wire_size)
        return frame

    def _raise_terminal(self):
        # Caller holds _rx_cond; decoder is drained.
        if self._rx_error is not None:
            exc, self._rx_error = self._rx_error, None
            self._rx_eof = True  # later recvs see a closed channel
            raise exc
        raise ChannelClosed(f"{self.name}: connection closed")

    def _detach_read(self) -> None:
        self.reactor_loop.unregister_fd(self._sock)

    def set_ready_callback(self, callback) -> None:
        # Registration thread publishes; the loop thread reads in
        # _on_readable/_mark_eof.  _rx_cond is the publication lock —
        # add_channel's immediate ready() drain covers frames that
        # landed before the callback became visible.
        with self._rx_cond:
            self._ready_cb = callback

    # -- writes -----------------------------------------------------------

    def send(self, frame: Frame) -> None:
        self._enqueue([encode_frame_views(frame)])

    def send_many(self, frames: Iterable[Frame]) -> None:
        batch = [encode_frame_views(frame) for frame in frames]
        if batch:
            self._enqueue(batch)

    def _enqueue(self, frame_views: list) -> None:
        if self._closed.is_set():
            raise ChannelClosed(f"{self.name}: send on closed channel")
        sizes = [sum(map(len, views)) for views in frame_views]
        need = sum(sizes)
        # Any loop thread — not just our own — must fail fast rather than
        # wait: blocking loop A on loop B's queue stalls all of A's channels.
        on_loop = on_reactor_thread()
        deadline = (
            None if self.send_timeout is None
            else time.monotonic() + self.send_timeout
        )
        with self._wq_cond:
            while (
                self._wq_bytes and self._wq_bytes + need > self.max_write_queue
            ):
                if on_loop:
                    raise ChannelBusy(
                        f"{self.name}: write queue full "
                        f"({self._wq_bytes}B) on loop thread"
                    )
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ChannelBusy(
                        f"{self.name}: write queue full ({self._wq_bytes}B) "
                        f"for {self.send_timeout}s"
                    )
                self._wq_cond.wait(timeout=remaining)
                if self._closed.is_set():
                    raise ChannelClosed(f"{self.name}: send on closed channel")
            for views, size in zip(frame_views, sizes):
                self._wq.append((views, size))
                self._wq_bytes += size
                self.stats.on_send(size)
            self._m_wq_gauge.add(need)
            schedule = not self._flush_scheduled and not self._write_armed
            if schedule:
                self._flush_scheduled = True
        if schedule:
            # Inline flush only on the loop that owns this fd — selector
            # mutation (write-interest arming) is loop-affine.
            if self.reactor_loop.on_loop_thread():
                self._flush_on_loop()
            else:
                self.reactor_loop.schedule(self._flush_on_loop)

    def _flush_on_loop(self) -> None:
        """Drain the write queue with vectored non-blocking writes.

        Adaptive group commit: when producers have recently kept the
        queue deeper than one frame, the first flush of a burst defers
        itself by one loop pass (``schedule`` re-queues it behind the
        work already pending on the loop), letting concurrent senders
        pile on so the whole burst shares one ``sendmsg``.  The window
        grows while flushes keep observing a backlog at or above it and
        shrinks as soon as the queue runs shallow — an idle channel pays
        zero added latency.  Deferral is skipped outright when the queue
        is under memory pressure: with backpressure imminent, draining
        beats batching.
        """
        with self._wq_cond:
            self._flush_scheduled = False
            depth = len(self._wq)
            defer = (
                depth
                and not self._coalesce_deferred
                and depth < self._coalesce_window
                and self._wq_bytes * 2 < self.max_write_queue
                and not self._write_armed
            )
            if defer:
                self._coalesce_deferred = True
                self._flush_scheduled = True
            backlog = list(self._wq)
        if defer:
            self.reactor_loop.schedule(self._flush_on_loop)
            return
        self._coalesce_deferred = False  # gridlint: disable=GL106,GL107 -- loop-confined: only _flush_on_loop (always on the owning loop thread) touches this; racesan checks the claim via the loop token
        # Window adaptation, from the depth this flush actually observed.
        if depth >= self._coalesce_window:
            if self._coalesce_window < self.MAX_COALESCE_WINDOW:
                self._coalesce_window *= 2  # gridlint: disable=GL106,GL107 -- loop-confined: adapted only by _flush_on_loop on the owning loop thread
        elif depth <= 1 and self._coalesce_window > 1:
            self._coalesce_window //= 2  # gridlint: disable=GL106,GL107 -- loop-confined: adapted only by _flush_on_loop on the owning loop thread
        if not backlog or self._closed.is_set():
            return
        try:
            sent_total = send_views(self._sock, _queued_views(backlog))
        except OSError:
            self.close()
            return
        # Trim fully-written frames off the queue; re-arm for the rest.
        with self._wq_cond:
            before = self._wq_bytes
            remaining = sent_total
            while self._wq and remaining >= self._wq[0][1]:
                _, size = self._wq.popleft()
                self._wq_bytes -= size
                remaining -= size
            if remaining and self._wq:
                # Partial frame: replace head views with the unsent tail.
                views_left, size = self._wq[0]
                head = _queued_views([(views_left, size)])
                advance_views(head, remaining)
                self._wq[0] = (list(head), size - remaining)
                self._wq_bytes -= remaining
            pending = bool(self._wq)
            self._m_wq_gauge.add(self._wq_bytes - before)
            self._wq_cond.notify_all()
        self._set_write_interest(pending)

    def _set_write_interest(self, armed: bool) -> None:
        # Loop-affine (only the owning loop thread calls this), but the
        # flag itself is read by sender threads inside ``_enqueue``'s
        # defer heuristic, so both the check and the publish go through
        # ``_wq_cond`` — the gap between them is safe with one writer.
        with self._wq_cond:
            if armed == self._write_armed or self._closed.is_set():
                return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if armed else 0)
        try:
            self.reactor_loop.modify_fd(self._sock, events, self._on_io)
        except (KeyError, ValueError, OSError):
            if armed:
                # The fd is no longer registered (read side hit EOF and
                # unregistered it), so the queue can never drain — fail
                # pending senders now instead of letting them time out.
                self.close()
            return
        with self._wq_cond:
            self._write_armed = armed

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        with self._wq_cond:
            self._wq_cond.notify_all()  # blocked senders raise ChannelClosed
        self.reactor_loop.schedule(self._close_on_loop)

    def _close_on_loop(self) -> None:
        """Hand queued frames to the kernel, then close the socket.

        Frames sent before :meth:`close` still go out, as far as the
        socket buffer takes them without blocking: a peer reading after
        a send-then-close sees the data before the end of stream.
        """
        self.reactor_loop.unregister_fd(self._sock)
        with self._wq_cond:
            backlog = list(self._wq)
            self._wq.clear()
            self._m_wq_gauge.add(-self._wq_bytes)
            self._wq_bytes = 0
        try:
            send_views(self._sock, _queued_views(backlog))
        except OSError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._mark_eof()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class ReactorTcpListener(Listener):
    """Listening socket producing loop-owned :class:`ReactorTcpChannel`.

    Accept itself stays a blocking call (the proxy keeps one accept
    thread per listener — O(listeners), not O(connections)); only the
    per-connection I/O moves onto the reactor.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 64,
        reactor: Optional[Reactor] = None,
        reuseport: bool = False,
    ):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            # Kernel-side accept sharding: several workers bind the same
            # port and the kernel spreads connections across them.
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._reactor = reactor
        self._closed = threading.Event()
        self.host, self.port = self._sock.getsockname()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def accept(self, timeout: Optional[float] = None) -> ReactorTcpChannel:
        if self._closed.is_set():
            raise ChannelClosed("listener is closed")
        self._sock.settimeout(timeout)
        try:
            conn, peer = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout("accept timed out") from None
        except OSError as exc:
            raise ChannelClosed(f"listener closed ({exc})") from exc
        return ReactorTcpChannel(
            conn, reactor=self._reactor, name=f"tcp:{peer[0]}:{peer[1]}"
        )

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        close_listener(self._sock)


def connect_tcp_reactor(
    host: str,
    port: int,
    timeout: float = 10.0,
    reactor: Optional[Reactor] = None,
) -> ReactorTcpChannel:
    """Dial a listener and return a loop-owned client channel."""
    sock = socket.create_connection((host, port), timeout=timeout)
    return ReactorTcpChannel(sock, reactor=reactor, name=f"rtcp->{host}:{port}")


# ---------------------------------------------------------------------------
# The process-wide shared reactor
# ---------------------------------------------------------------------------

_global_lock = threading.Lock()
_global_reactor: Optional[Reactor] = None


def get_global_reactor() -> Reactor:
    """The shared reactor every proxy/tunnel in this process registers on."""
    global _global_reactor
    with _global_lock:
        if _global_reactor is None:
            _global_reactor = Reactor(name="grid-reactor")
        return _global_reactor.start()


def reset_global_reactor() -> None:
    """Stop and discard the shared reactor (tests only)."""
    global _global_reactor
    with _global_lock:
        reactor, _global_reactor = _global_reactor, None
    if reactor is not None:
        reactor.stop()
