"""Multi-core proxy sharding: worker processes behind one proxy port.

One CPython process is one GIL: past a point, more tunnels buy no more
frames/s.  The shard layer runs ``N`` worker **processes**, each with a
full private stack — its own :class:`~repro.transport.reactor.Reactor`,
its own :class:`~repro.core.dispatch.DispatchPipeline`, its own
:class:`~repro.obs.ObsHub` registry — and splits the accept stream
between them (:mod:`repro.transport.shard` has the two mechanisms and
their tradeoffs).  Nothing is shared between workers; the paper's
local-collect observability model extends across the process boundary
unchanged: each worker collects its own registry, and the parent folds
the per-worker snapshots into one view only when asked
(``SHARD_STATS`` → :func:`~repro.obs.metrics.fold_snapshots`).

Wire-up:

* Workers are **spawned**, never forked — a forked reactor inherits
  loop threads and held locks in undefined states (gridlint GL104
  enforces this).  Spawn passes only picklable config; all sockets are
  established by the worker *connecting back* to the parent's Unix
  control listener, which doubles as the re-announce path after a
  respawn.
* Each worker sends ``HELLO {shard, pid}`` on its control link at
  startup, answers ``SHARD_STATS`` with its registry snapshot, and
  exits on ``BYE`` or when the control link drops (parent died).
* A monitor thread respawns dead workers under the same shard id; the
  replacement re-announces and (in fdpass mode) rejoins the acceptor's
  rotation.  Connections that were live inside the dead worker are
  gone — clients see the socket reset and surface
  :class:`~repro.core.proxy.PeerUnavailable`, never a hang.

``REPRO_SHARDS=N`` is the only switch: :meth:`ShardManager.from_env`
returns ``None`` when it is unset (or ``<= 1``), so the default path
stays byte-for-byte single-process.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import struct
import tempfile
import threading
import time
from typing import Any, Callable, Optional

from repro.core.protocol import ControlMessage, Op
from repro.core.proxy import PeerUnavailable, RequestTimeout
from repro.obs import ObsHub
from repro.obs.metrics import fold_snapshots
from repro.transport.channel import Channel
from repro.transport.errors import ChannelClosed, TransportError, TransportTimeout
from repro.transport.reactor import (
    Reactor,
    ReactorTcpChannel,
    ReactorTcpListener,
    connect_tcp_reactor,
)
from repro.transport.shard import ShardAcceptor, pick_mode, recv_socket
from repro.transport.tcp import close_listener

__all__ = ["ShardClient", "ShardManager", "worker_main"]

#: environment switch: number of worker processes (unset/<=1 = no shards)
SHARDS_ENV = "REPRO_SHARDS"

_ANNOUNCE_TIMEOUT = 30.0
_MONITOR_INTERVAL = 0.25


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def worker_main(config: dict) -> None:
    """Entry point of one shard worker (spawned process).

    ``config`` is plain picklable data: ``shard`` (id), ``ctrl_path``
    (Unix socket to connect back to), ``mode`` ("reuseport"|"fdpass"),
    ``host``/``port`` (reuseport: where to bind; fdpass: informational),
    ``handoff_path`` (fdpass only), ``dispatch_workers``.
    """
    from repro.core.dispatch import DispatchPipeline

    shard_id = config["shard"]
    stop = threading.Event()
    reactor = Reactor(name=f"shard{shard_id}")
    reactor.start()
    hub = ObsHub(f"shard-{shard_id}")
    # Instruments resolve once at worker startup and are captured by the
    # serving closures — this IS the resolve-once-and-keep-the-handle shape.
    served = hub.metrics.counter("shard.frames")  # gridlint: disable=GL301 -- worker startup, not per-message
    replies = hub.metrics.counter("shard.replies")  # gridlint: disable=GL301 -- worker startup, not per-message
    conns = hub.metrics.gauge("shard.connections")  # gridlint: disable=GL301 -- worker startup, not per-message
    pipeline = DispatchPipeline(
        name=f"shard{shard_id}",
        workers=config.get("dispatch_workers", 2),
        obs=hub,
    )

    def handle_ping(message: ControlMessage, peer: str) -> ControlMessage:
        return message.reply(Op.PONG, {"echo": message.body, "shard": shard_id})

    def handle_status(message: ControlMessage, peer: str) -> ControlMessage:
        return message.reply(
            Op.STATUS_REPORT,
            {"shard": shard_id, "pid": os.getpid(), "served": served.value},
        )

    def handle_stats(message: ControlMessage, peer: str) -> ControlMessage:
        return message.reply(
            Op.OBS_DATA,
            {"shard": shard_id, "pid": os.getpid(),
             "metrics": hub.metrics.snapshot()},
        )

    def handle_bye(message: ControlMessage, peer: str) -> None:
        stop.set()
        return None

    pipeline.register(Op.PING, handle_ping)
    pipeline.register(Op.STATUS_QUERY, handle_status)
    pipeline.register(Op.SHARD_STATS, handle_stats)
    pipeline.register(Op.BYE, handle_bye)
    pipeline.set_default(
        lambda message, peer: message.reply(
            Op.ERROR, {"error": f"shard worker: unhandled op {message.op}"}
        )
    )

    def attach(channel: Channel) -> None:
        """Serve one client connection from this worker's reactor."""
        conns.add(1)

        def on_batch(frames: list) -> None:
            served.inc(len(frames))
            messages = []
            for frame in frames:
                message = pipeline.decode(frame)
                if message is not None:
                    messages.append(message)
            if not messages:
                return

            def respond(reply: ControlMessage) -> None:
                replies.inc()
                channel.send(reply.to_frame())

            def respond_many(batch: list) -> None:
                replies.inc(len(batch))
                channel.send_many([reply.to_frame() for reply in batch])

            pipeline.dispatch_batch(
                messages, channel.name, respond, respond_many=respond_many
            )

        reactor.add_channel(
            channel,
            on_batch=on_batch,
            on_close=lambda ch, exc: conns.add(-1),
        )

    # Control link back to the parent: HELLO now, stats/BYE later, exit
    # when it drops.  Retry the connect briefly — the parent spawns us
    # before it is guaranteed to have entered accept().
    ctrl_sock = _connect_unix(config["ctrl_path"], deadline=10.0)
    ctrl = ReactorTcpChannel(ctrl_sock, reactor=reactor, name=f"shard{shard_id}-ctrl")
    reactor.add_channel(
        ctrl,
        lambda frames: _serve_ctrl(pipeline, ctrl, frames),
        on_close=lambda ch, exc: stop.set(),
    )
    ctrl.send(
        ControlMessage(
            op=Op.HELLO,
            body={"shard": shard_id, "pid": os.getpid(), "mode": config["mode"]},
            sender=f"shard-{shard_id}",
        ).to_frame()
    )

    threads = []
    if config["mode"] == "reuseport":
        listener = ReactorTcpListener(
            config["host"], config["port"], backlog=128, reactor=reactor,
            reuseport=True,
        )

        def accept_loop() -> None:
            while not stop.is_set():
                try:
                    channel = listener.accept()
                except TransportError:
                    return
                attach(channel)

        threads.append(threading.Thread(  # gridlint: disable=GL102 -- blocking accept() cannot run on a reactor loop
            target=accept_loop, daemon=True, name=f"shard{shard_id}-accept"
        ))
    else:
        handoff = _connect_unix(config["handoff_path"], deadline=10.0)
        handoff.sendall(struct.pack("!I", shard_id))
        listener = None

        def handoff_loop() -> None:
            while not stop.is_set():
                try:
                    conn = recv_socket(handoff)
                except OSError:
                    break
                if conn is None:
                    break
                attach(ReactorTcpChannel(
                    conn, reactor=reactor, name=f"shard{shard_id}-fd{conn.fileno()}",
                ))
            stop.set()

        threads.append(threading.Thread(  # gridlint: disable=GL102 -- blocking recv_fds() cannot run on a reactor loop
            target=handoff_loop, daemon=True, name=f"shard{shard_id}-handoff"
        ))

    for thread in threads:
        thread.start()
    try:
        stop.wait()
    finally:
        if listener is not None:
            listener.close()
        pipeline.close()
        reactor.stop()


def _serve_ctrl(pipeline, ctrl, frames: list) -> None:
    for frame in frames:
        message = pipeline.decode(frame)
        if message is not None:
            pipeline.dispatch(
                message, "parent", lambda reply: ctrl.send(reply.to_frame())
            )


def _connect_unix(path: str, deadline: float) -> socket.socket:
    """Connect to a parent Unix socket, retrying until ``deadline``."""
    end = time.monotonic() + deadline
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= end:
                raise
            time.sleep(0.05)


# ---------------------------------------------------------------------------
# Parent
# ---------------------------------------------------------------------------


class _CtrlLink:
    """Parent's end of one worker control channel (blocking, low-rate)."""

    def __init__(self, shard_id: int, pid: int, channel: Channel):
        self.shard_id = shard_id
        self.pid = pid
        self.channel = channel
        self.lock = threading.Lock()

    def request(self, message: ControlMessage, timeout: float) -> ControlMessage:
        """One in-flight request at a time; replies match by id."""
        with self.lock:
            self.channel.send(message.to_frame())
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportTimeout(
                        f"shard {self.shard_id}: control request timed out"
                    )
                frame = self.channel.recv(timeout=remaining)
                reply = ControlMessage.from_frame(frame)
                if reply.reply_to == message.message_id:
                    return reply
                # Stale traffic (late reply to an abandoned request): skip.


class ShardManager:
    """Spawns, monitors, and fronts ``N`` shard worker processes.

    ``mode=None`` picks ``reuseport`` where the kernel supports it, else
    ``fdpass``.  :meth:`start` blocks until every worker has announced;
    :meth:`stats` gathers live per-worker registry snapshots;
    :meth:`folded_snapshot` is the one-grid-view fold the proxy's
    ``OBS_DUMP`` path serves.
    """

    def __init__(
        self,
        shards: int,
        host: str = "127.0.0.1",
        port: int = 0,
        mode: Optional[str] = None,
        dispatch_workers: int = 2,
        name: str = "shards",
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard: {shards}")
        self.shards = shards
        self.host = host
        self.mode = pick_mode(mode)
        self.name = name
        self.dispatch_workers = dispatch_workers
        self.port = port
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: dict[int, Any] = {}
        self._links: dict[int, _CtrlLink] = {}
        self._announced: dict[int, threading.Event] = {}
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._dir: Optional[tempfile.TemporaryDirectory] = None
        self._ctrl_listener: Optional[socket.socket] = None
        self._reserve_sock: Optional[socket.socket] = None
        self._handoff_listener: Optional[socket.socket] = None
        self._acceptor: Optional[ShardAcceptor] = None
        self._threads: list[threading.Thread] = []
        #: respawn count per shard id (tests and OBS_DUMP read this)
        self.respawns: dict[int, int] = {}
        #: hook fired as ``fn(shard_id, pid)`` on every announce
        self.on_announce: list[Callable[[int, int], None]] = []

    @classmethod
    def from_env(cls, host: str = "127.0.0.1", port: int = 0, **kwargs):
        """Build from ``REPRO_SHARDS``; ``None`` when sharding is off.

        Anything unset, unparsable, or ``<= 1`` means "no shard layer" —
        the single-process proxy path must stay untouched by default.
        """
        raw = os.environ.get(SHARDS_ENV, "").strip()
        try:
            n = int(raw)
        except ValueError:
            return None
        if n <= 1:
            return None
        return cls(shards=n, host=host, port=port, **kwargs)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ShardManager":
        if self._dir is not None:
            return self
        self._dir = tempfile.TemporaryDirectory(prefix="repro-shard-")
        ctrl_path = os.path.join(self._dir.name, "ctrl.sock")
        self._ctrl_listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._ctrl_listener.bind(ctrl_path)
        self._ctrl_listener.listen(self.shards * 2)
        handoff_path = None

        if self.mode == "reuseport":
            # Reserve the port: bound with SO_REUSEPORT but *not*
            # listening, so the kernel never routes a SYN here while the
            # port stays taken across worker restarts.
            self._reserve_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._reserve_sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
            )
            self._reserve_sock.bind((self.host, self.port))
            self.port = self._reserve_sock.getsockname()[1]
        else:
            handoff_path = os.path.join(self._dir.name, "handoff.sock")
            self._handoff_listener = socket.socket(
                socket.AF_UNIX, socket.SOCK_STREAM
            )
            self._handoff_listener.bind(handoff_path)
            self._handoff_listener.listen(self.shards * 2)
            listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listen_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listen_sock.bind((self.host, self.port))
            listen_sock.listen(256)
            self.port = listen_sock.getsockname()[1]
            self._acceptor = ShardAcceptor(
                listen_sock, name=f"{self.name}-acceptor"
            ).start()

        self._worker_config = {
            "mode": self.mode,
            "host": self.host,
            "port": self.port,
            "ctrl_path": ctrl_path,
            "handoff_path": handoff_path,
            "dispatch_workers": self.dispatch_workers,
        }
        service = [(self._ctrl_accept_loop, "ctrl-accept"),
                   (self._monitor_loop, "monitor")]
        if self.mode == "fdpass":
            service.append((self._handoff_accept_loop, "handoff-accept"))
        for thread_fn, thread_name in service:
            thread = threading.Thread(  # gridlint: disable=GL102 -- process supervision: blocking accept/waitpid loops, not frame work
                target=thread_fn, daemon=True, name=f"{self.name}-{thread_name}"
            )
            thread.start()
            self._threads.append(thread)

        for shard_id in range(self.shards):
            self._spawn(shard_id)
        deadline = time.monotonic() + _ANNOUNCE_TIMEOUT
        for shard_id in range(self.shards):
            if not self._wait_announce(shard_id, deadline - time.monotonic()):
                self.stop()
                raise RuntimeError(
                    f"shard worker {shard_id} failed to announce within "
                    f"{_ANNOUNCE_TIMEOUT}s"
                )
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def _spawn(self, shard_id: int) -> None:
        config = dict(self._worker_config, shard=shard_id)
        with self._lock:
            self._announced[shard_id] = threading.Event()
        proc = self._ctx.Process(
            target=worker_main,
            args=(config,),
            daemon=True,
            name=f"{self.name}-worker-{shard_id}",
        )
        proc.start()
        with self._lock:
            self._procs[shard_id] = proc

    def _wait_announce(self, shard_id: int, timeout: float) -> bool:
        with self._lock:
            event = self._announced.get(shard_id)
        return event is not None and event.wait(timeout=max(0.0, timeout))

    # -- parent-side service threads -------------------------------------

    def _ctrl_accept_loop(self) -> None:
        """Accept worker control links; the first frame must be HELLO."""
        while not self._closing.is_set():
            try:
                conn, _ = self._ctrl_listener.accept()
            except OSError:
                return
            channel = ReactorTcpChannel(conn, name=f"{self.name}-ctrl")
            try:
                hello = ControlMessage.from_frame(channel.recv(timeout=10.0))
            except Exception:
                channel.close()
                continue
            if hello.op != Op.HELLO or "shard" not in hello.body:
                channel.close()
                continue
            shard_id = hello.body["shard"]
            pid = hello.body.get("pid", 0)
            link = _CtrlLink(shard_id, pid, channel)
            with self._lock:
                old = self._links.get(shard_id)
                self._links[shard_id] = link
                event = self._announced.get(shard_id)
            if old is not None:
                old.channel.close()
            if event is not None:
                event.set()
            for hook in list(self.on_announce):
                try:
                    hook(shard_id, pid)
                except Exception:
                    pass

    def _handoff_accept_loop(self) -> None:
        """Accept worker handoff links (fdpass); header names the shard."""
        while not self._closing.is_set():
            try:
                conn, _ = self._handoff_listener.accept()
            except OSError:
                return
            try:
                header = _recv_exact(conn, 4)
            except OSError:
                conn.close()
                continue
            if header is None:
                conn.close()
                continue
            (shard_id,) = struct.unpack("!I", header)
            self._acceptor.add_worker(shard_id, conn)

    def _monitor_loop(self) -> None:
        """Respawn dead workers under the same shard id."""
        while not self._closing.is_set():
            with self._lock:
                procs = dict(self._procs)
            for shard_id, proc in procs.items():
                if proc.is_alive() or self._closing.is_set():
                    continue
                proc.join(timeout=0)
                if self._acceptor is not None:
                    self._acceptor.remove_worker(shard_id)
                with self._lock:
                    dead_link = self._links.pop(shard_id, None)
                if dead_link is not None:
                    dead_link.channel.close()
                self.respawns[shard_id] = self.respawns.get(shard_id, 0) + 1
                self._spawn(shard_id)
            self._closing.wait(_MONITOR_INTERVAL)

    # -- the control plane -----------------------------------------------

    def live_links(self) -> list[_CtrlLink]:
        with self._lock:
            return [
                link for link in self._links.values()
                if not link.channel.closed
            ]

    def stats(self, timeout: float = 10.0) -> list[dict]:
        """Per-worker ``{"shard", "pid", "metrics"}`` from live workers."""
        out = []
        for link in self.live_links():
            message = ControlMessage(
                op=Op.SHARD_STATS, body={}, sender=self.name
            )
            try:
                reply = link.request(message, timeout=timeout)
            except TransportError:
                continue  # worker died mid-request; monitor will respawn
            if reply.op == Op.OBS_DATA:
                out.append(reply.body)
        return sorted(out, key=lambda body: body.get("shard", 0))

    def folded_snapshot(self, timeout: float = 10.0) -> dict:
        """One grid-view registry: every worker's snapshot, folded."""
        per_worker = self.stats(timeout=timeout)
        folded = fold_snapshots([body["metrics"] for body in per_worker])
        folded["workers"] = [
            {"shard": body.get("shard"), "pid": body.get("pid")}
            for body in per_worker
        ]
        folded["respawns"] = dict(self.respawns)
        folded["mode"] = self.mode
        return folded

    def kill_worker(self, shard_id: int) -> int:
        """Hard-kill one worker (chaos/testing); returns the old pid."""
        with self._lock:
            proc = self._procs.get(shard_id)
        if proc is None or proc.pid is None:
            raise ValueError(f"no such shard: {shard_id}")
        pid = proc.pid
        proc.terminate()
        return pid

    def stop(self) -> None:
        if self._closing.is_set():
            return
        self._closing.set()
        for link in self.live_links():
            try:
                link.channel.send(
                    ControlMessage(op=Op.BYE, body={}, sender=self.name).to_frame()
                )
            except TransportError:
                pass
        with self._lock:
            procs = dict(self._procs)
            links = dict(self._links)
            self._links = {}
        for proc in procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=2.0)
        for link in links.values():
            link.channel.close()
        if self._acceptor is not None:
            self._acceptor.close()
        for sock in (self._ctrl_listener, self._handoff_listener,
                     self._reserve_sock):
            if sock is not None:
                close_listener(sock)
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._dir is not None:
            self._dir.cleanup()
            self._dir = None

    def __enter__(self) -> "ShardManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _recv_exact(conn: socket.socket, n: int) -> Optional[bytes]:
    buf = b""
    while len(buf) < n:
        chunk = conn.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class ShardClient:
    """A client connection to the sharded frontend.

    Thin request/reply wrapper that turns transport failures into the
    proxy layer's verdicts: a dropped connection (worker crashed, no
    workers left) raises :class:`~repro.core.proxy.PeerUnavailable`, a
    blown deadline raises :class:`~repro.core.proxy.RequestTimeout` —
    an in-flight request on a dead worker must *surface*, not hang.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.timeout = timeout
        try:
            self._channel = connect_tcp_reactor(host, port, timeout=timeout)
        except OSError as exc:
            raise PeerUnavailable(f"shard frontend unreachable: {exc}") from exc

    def request(
        self,
        op: int,
        body: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> ControlMessage:
        timeout = self.timeout if timeout is None else timeout
        message = ControlMessage(op=op, body=body or {}, sender="shard-client")
        deadline = time.monotonic() + timeout
        try:
            self._channel.send(message.to_frame())
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RequestTimeout(
                        f"no reply to {Op.name_of(op)} within {timeout}s"
                    )
                reply = ControlMessage.from_frame(
                    self._channel.recv(timeout=remaining)
                )
                if reply.reply_to == message.message_id:
                    return reply
        except ChannelClosed as exc:
            raise PeerUnavailable(f"shard worker gone: {exc}") from exc
        except TransportTimeout as exc:
            raise RequestTimeout(str(exc)) from exc

    def close(self) -> None:
        self._channel.close()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
