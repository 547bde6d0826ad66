"""Socket-level helpers for the TCP transport.

TCP has one channel class, :class:`~repro.transport.reactor.ReactorTcpChannel`,
with its listener :class:`~repro.transport.reactor.ReactorTcpListener` and
dial function :func:`~repro.transport.reactor.connect_tcp_reactor`; every
socket is non-blocking and owned by an event loop.  This module holds the
socket-level pieces that channel is built from.

The send path is the data-plane fast path: frames are encoded to
iovec-style view lists (payloads ride zero-copy) and written with
vectored ``sendmsg`` calls by :func:`send_views`, which takes what the
socket accepts and leaves the unsent tail in place for the next
write-ready event.

The grid examples and integration tests bind to 127.0.0.1 with ephemeral
ports; nothing here assumes a particular address family beyond IPv4.
"""

from __future__ import annotations

import socket
from collections import deque
from itertools import islice

__all__ = ["advance_views", "close_listener", "send_views"]

_IOV_MAX = 1024  # conservative bound on buffers per sendmsg call


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle where the transport is actually TCP.

    Frame channels also run over Unix socketpairs (the shard manager's
    parent↔worker control links), where TCP options simply don't apply.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


def close_listener(sock: socket.socket) -> None:
    """Close a listening socket, waking any thread blocked in ``accept``.

    ``close`` alone leaves such a thread blocked on Linux until the next
    connection arrives; ``shutdown`` makes its ``accept`` fail at once.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not listening (never bound, or already closed)
    sock.close()


def advance_views(views: deque, nbytes: int) -> None:
    """Drop the first ``nbytes`` bytes off ``views``, a deque of memoryviews.

    Fully consumed buffers are popped; a buffer the count ends inside is
    replaced by its unconsumed tail.
    """
    while nbytes > 0:
        head = views[0]
        if nbytes >= len(head):
            nbytes -= len(head)
            views.popleft()
        else:
            views[0] = head[nbytes:]
            nbytes = 0


def send_views(sock: socket.socket, views: deque) -> int:
    """Write ``views`` in order until the socket stops accepting bytes.

    ``views`` is a deque of non-empty memoryviews, written without
    concatenating, at most ``_IOV_MAX`` buffers per ``sendmsg``.  Written
    bytes are consumed from the deque, so on return it holds exactly the
    unsent tail.  Stops at EAGAIN and returns the bytes sent; any other
    ``OSError`` propagates, with ``views`` already advanced past what the
    socket took before it.
    """
    sent_total = 0
    try:
        while views:
            sent = sock.sendmsg(list(islice(views, _IOV_MAX)))
            sent_total += sent
            advance_views(views, sent)
    except (BlockingIOError, InterruptedError):
        pass
    return sent_total
