"""Connection sharding primitives: fd passing and the parent acceptor.

The proxy's per-frame costs parallelise cleanly — every tunnel is
independent — but one CPython process is one GIL.  The shard layer runs
N worker processes, each owning a full reactor stack, and splits the
*accept* stream between them.  Two distribution mechanisms:

* **reuseport** — every worker binds the same ``(host, port)`` with
  ``SO_REUSEPORT`` and the kernel spreads incoming connections across
  the listening sockets.  Cheapest (no parent in the data path), but
  Linux-shaped: the parent cannot steer connections, and a worker that
  dies mid-accept-queue drops its backlog.
* **fdpass** — the parent owns the single listening socket, accepts,
  and hands each accepted fd to a worker over a Unix-domain socket with
  ``SCM_RIGHTS`` (:func:`socket.send_fds`).  Portable to anything with
  Unix sockets, parent controls placement (round-robin here), and a
  dead worker is simply skipped.  Costs one ancillary message per
  connection — noise next to the handshake that follows.

:func:`pick_mode` selects reuseport where it genuinely works and falls
back to fdpass.  Workers are *processes*, not forks: the shard entry
points must stay fork-free (gridlint GL104) because a forked reactor
inherits locks and loop threads in undefined states.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Optional

from repro.transport.tcp import close_listener

__all__ = [
    "ShardAcceptor",
    "pick_mode",
    "recv_socket",
    "send_socket",
    "supports_fd_passing",
    "supports_reuseport",
]

#: one-byte tag accompanying every passed fd (SCM_RIGHTS needs real data
#: in flight, and the tag lets the receiver reject stray traffic)
_FD_TAG = b"F"


def supports_reuseport() -> bool:
    """True when ``SO_REUSEPORT`` exists *and* the kernel accepts it."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False


def supports_fd_passing() -> bool:
    """True when the stdlib exposes ``send_fds``/``recv_fds`` (3.9+ POSIX)."""
    return hasattr(socket, "send_fds") and hasattr(socket, "recv_fds")


def pick_mode(override: Optional[str] = None) -> str:
    """Resolve the sharding mode: explicit override, else best available."""
    if override:
        if override not in ("reuseport", "fdpass"):
            raise ValueError(f"unknown shard mode: {override!r}")
        return override
    if supports_reuseport():
        return "reuseport"
    if supports_fd_passing():
        return "fdpass"
    raise RuntimeError("neither SO_REUSEPORT nor fd passing is available")


def send_socket(via: socket.socket, sock: socket.socket) -> None:
    """Pass ``sock``'s descriptor over the Unix socket ``via``.

    The sender keeps its copy open until this returns; the kernel
    duplicates the descriptor into the receiving process, so the caller
    should close its copy afterwards to avoid holding the connection's
    refcount up.
    """
    socket.send_fds(via, [_FD_TAG], [sock.fileno()])


def recv_socket(
    via: socket.socket, timeout: Optional[float] = None
) -> Optional[socket.socket]:
    """Receive one passed descriptor from ``via`` as a fresh socket object.

    Returns ``None`` on EOF (the sender closed the handoff link).  The
    returned socket owns its fd; family/type are taken from the fd
    itself, so this works for any passed stream socket.
    """
    via.settimeout(timeout)
    msg, fds, _flags, _addr = socket.recv_fds(via, len(_FD_TAG), 1)
    if not msg and not fds:
        return None
    if not fds:
        raise OSError(f"fd handoff message without descriptor: {msg!r}")
    if msg != _FD_TAG:
        # Tag mismatch means the link is out of sync; the fd itself is
        # still real and must not leak.
        sock = socket.socket(fileno=fds[0])
        sock.close()
        raise OSError(f"bad fd handoff tag: {msg!r}")
    return socket.socket(fileno=fds[0])


class ShardAcceptor:
    """Parent-side accept loop for **fdpass** mode.

    Owns the bound+listening socket, accepts connections, and deals
    each accepted fd round-robin to the registered worker handoff
    links.  A worker whose link breaks (process died) is dropped from
    the rotation on the spot and the connection is re-dealt to the next
    live worker; with no workers left the connection is closed — the
    client sees a reset, which is the same contract a crashed
    single-process proxy gives.
    """

    def __init__(self, listen_sock: socket.socket, name: str = "shard-acceptor"):
        self.name = name
        self._sock = listen_sock
        self._links: dict[int, socket.socket] = {}
        self._rr: list[int] = []
        self._next = 0
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: connections dealt, per shard id (the smoke tests read this to
        #: prove the rotation actually spreads load)
        self.dealt: dict[int, int] = {}

    @property
    def address(self) -> tuple[Any, ...]:
        addr: tuple[Any, ...] = self._sock.getsockname()
        return addr

    def add_worker(self, shard_id: int, link: socket.socket) -> None:
        """Register (or replace, after a respawn) a worker handoff link."""
        with self._lock:
            old = self._links.pop(shard_id, None)
            self._links[shard_id] = link
            if shard_id not in self._rr:
                self._rr.append(shard_id)
                self._rr.sort()
        if old is not None:
            old.close()

    def remove_worker(self, shard_id: int) -> None:
        with self._lock:
            link = self._links.pop(shard_id, None)
            if shard_id in self._rr:
                self._rr.remove(shard_id)
        if link is not None:
            link.close()

    def start(self) -> "ShardAcceptor":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._accept_loop, daemon=True, name=self.name
            )
            self._thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                return  # listener closed
            try:
                self._deal(conn)
            finally:
                # The kernel dup'd the fd into the worker (or nobody
                # took it); either way the parent's copy must go.
                conn.close()

    def _deal(self, conn: socket.socket) -> None:
        """Hand ``conn`` to the next live worker, skipping dead links."""
        while True:
            with self._lock:
                if not self._rr:
                    return  # no live workers: drop the connection
                self._next %= len(self._rr)
                shard_id = self._rr[self._next]
                self._next += 1
                link = self._links[shard_id]
            try:
                send_socket(link, conn)
                with self._lock:
                    self.dealt[shard_id] = self.dealt.get(shard_id, 0) + 1
                return
            except OSError:
                self.remove_worker(shard_id)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        close_listener(self._sock)
        with self._lock:
            links, self._links = dict(self._links), {}
            self._rr = []
        for link in links.values():
            link.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
