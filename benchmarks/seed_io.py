"""The seed's receive path, kept as a benchmark baseline.

The library has one I/O engine: every channel rides the shared reactor,
and the loop that owns a TCP socket decodes frames zero-copy.  The
benchmarks that report a before/after against the seed still need the
old path, so a faithful replica of it lives here, next to them, the way
``bench_fastpath`` keeps the seed record cipher:

* :class:`SeedReceiver` — the seed tunnel's receive loop: one thread per
  channel, blocking in ``recv`` and handing each frame to a handler
  (``bench_concurrency``'s thread-per-tunnel rows, ``bench_fastpath``'s
  seed tunnel row).
* :class:`CopyingTcpChannel` — the TCP channel with the seed's copying
  decode: every payload is copied out of the reassembly buffer, on the
  owning loop too (``bench_fastpath``'s seed row, ``bench_shard``'s
  zero-copy ablation).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.security.handshake import HandshakeError
from repro.transport.channel import Channel
from repro.transport.errors import FrameError, TransportError, TransportTimeout
from repro.transport.frames import Frame
from repro.transport.reactor import ReactorTcpChannel

__all__ = ["CopyingTcpChannel", "SeedReceiver"]


class SeedReceiver:
    """One receive thread per channel, as every seed tunnel had.

    ``close``/``join`` mirror :class:`~repro.core.tunnel.Tunnel`, so a
    benchmark tears both kinds of receiver down the same way.
    """

    def __init__(
        self,
        channel: Channel,
        on_frame: Callable[[Frame], None],
        name: str = "seed-receiver",
    ):
        self._channel = channel
        self._on_frame = on_frame
        self._running = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True, name=name)

    def start(self) -> "SeedReceiver":
        self._running.set()
        self._thread.start()
        return self

    def _loop(self) -> None:
        while self._running.is_set():
            try:
                frame = self._channel.recv(timeout=0.5)
            except TransportTimeout:
                continue
            except (TransportError, HandshakeError):
                return  # peer gone, or a record failed verification
            self._on_frame(frame)

    def close(self) -> None:
        self._running.clear()
        self._channel.close()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the receive thread to exit; True once it has."""
        self._thread.join(timeout=timeout)
        return not self._thread.is_alive()


class CopyingTcpChannel(ReactorTcpChannel):
    """:class:`ReactorTcpChannel` decoding with a copy on every thread."""

    def _try_decode(self) -> Optional[Frame]:
        if self._rx_error is not None:
            return None
        try:
            frame = self._decoder.next_frame()
        except FrameError as exc:
            self._rx_error = exc
            self.reactor_loop.schedule(self._detach_read)
            return None
        if frame is not None:
            self.stats.on_receive(self._decoder.last_frame_wire_size)
        return frame
