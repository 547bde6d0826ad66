"""Unit tests for the sharding building blocks.

Covers the fd-passing primitives (``send_socket``/``recv_socket``), the
round-robin :class:`ShardAcceptor`, mode selection, and the metrics
fold used by the ``SHARD_STATS`` → ``OBS_DUMP`` path.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.obs.metrics import MetricsRegistry, fold_snapshots
from repro.transport.shard import (
    ShardAcceptor,
    pick_mode,
    recv_socket,
    send_socket,
    supports_fd_passing,
    supports_reuseport,
)

fd_passing = pytest.mark.skipif(
    not supports_fd_passing(), reason="socket.send_fds unavailable"
)


# ---------------------------------------------------------------------------
# fd passing
# ---------------------------------------------------------------------------


@fd_passing
class TestFdPassing:
    def test_socket_round_trips_over_unix_pair(self):
        link_a, link_b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        payload_a, payload_b = socket.socketpair()
        try:
            send_socket(link_a, payload_a)
            received = recv_socket(link_b, timeout=5.0)
            assert received is not None
            try:
                # The received descriptor is the same endpoint: bytes
                # written into it surface on the original pair's peer.
                received.sendall(b"through the wormhole")
                payload_b.settimeout(5.0)
                assert payload_b.recv(64) == b"through the wormhole"
            finally:
                received.close()
        finally:
            for s in (link_a, link_b, payload_a, payload_b):
                s.close()

    def test_recv_socket_returns_none_on_eof(self):
        link_a, link_b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        link_a.close()
        try:
            assert recv_socket(link_b, timeout=5.0) is None
        finally:
            link_b.close()

    def test_recv_socket_rejects_tagless_bytes(self):
        link_a, link_b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            link_a.sendall(b"Z")  # wrong tag, no descriptor attached
            with pytest.raises(OSError):
                recv_socket(link_b, timeout=5.0)
        finally:
            link_a.close()
            link_b.close()


# ---------------------------------------------------------------------------
# Mode selection
# ---------------------------------------------------------------------------


class TestPickMode:
    def test_explicit_modes_validate(self):
        if supports_reuseport():
            assert pick_mode("reuseport") == "reuseport"
        if supports_fd_passing():
            assert pick_mode("fdpass") == "fdpass"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pick_mode("carrier-pigeon")

    def test_default_prefers_reuseport(self):
        mode = pick_mode(None)
        if supports_reuseport():
            assert mode == "reuseport"
        else:
            assert mode == "fdpass"


# ---------------------------------------------------------------------------
# Round-robin acceptor
# ---------------------------------------------------------------------------


@fd_passing
class TestShardAcceptor:
    def _listener(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(64)
        return sock

    def _worker_link(self, acceptor, shard_id):
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        acceptor.add_worker(shard_id, theirs)
        return ours

    def test_connections_deal_round_robin(self):
        listener = self._listener()
        acceptor = ShardAcceptor(listener, name="rr-test")
        links = {i: self._worker_link(acceptor, i) for i in range(3)}
        acceptor.start()
        conns = []
        try:
            host, port = listener.getsockname()
            for _ in range(6):
                conns.append(socket.create_connection((host, port)))
            received = {i: 0 for i in links}
            deadline = time.monotonic() + 5.0
            while sum(received.values()) < 6 and time.monotonic() < deadline:
                for shard_id, link in links.items():
                    link.settimeout(0.2)
                    try:
                        conn = recv_socket(link, timeout=0.2)
                    except (socket.timeout, OSError):
                        continue
                    if conn is not None:
                        received[shard_id] += 1
                        conn.close()
            # Perfect spread: 6 connections over 3 workers, 2 each.
            assert received == {0: 2, 1: 2, 2: 2}
            # The acceptor bumps `dealt` after the kernel hands the fd
            # over, so the receive above can race ahead of the counter.
            while sum(acceptor.dealt.values()) < 6 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sum(acceptor.dealt.values()) == 6
        finally:
            for conn in conns:
                conn.close()
            acceptor.close()
            for link in links.values():
                link.close()

    def test_dead_worker_link_is_skipped(self):
        listener = self._listener()
        acceptor = ShardAcceptor(listener, name="dead-test")
        live = self._worker_link(acceptor, 0)
        dead = self._worker_link(acceptor, 1)
        dead.close()  # worker 1 crashed: its end of the link is gone
        # Close the acceptor-held peer too so sends fail immediately.
        acceptor.start()
        conns = []
        try:
            host, port = listener.getsockname()
            for _ in range(4):
                conns.append(socket.create_connection((host, port)))
            got = 0
            deadline = time.monotonic() + 5.0
            while got < 4 and time.monotonic() < deadline:
                live.settimeout(0.2)
                try:
                    conn = recv_socket(live, timeout=0.2)
                except (socket.timeout, OSError):
                    continue
                if conn is not None:
                    got += 1
                    conn.close()
            # Every connection re-dealt to the surviving worker.
            assert got == 4
        finally:
            for conn in conns:
                conn.close()
            acceptor.close()
            live.close()

    def test_close_wakes_the_blocked_accept_thread(self):
        """Closing the acceptor must end its accept thread at once, not
        leave close() waiting out its join timeout."""
        acceptor = ShardAcceptor(self._listener(), name="close-test").start()
        time.sleep(0.05)  # let the thread block in accept()
        start = time.monotonic()
        acceptor.close()
        assert time.monotonic() - start < 1.0
        assert not acceptor._thread.is_alive()


# ---------------------------------------------------------------------------
# Snapshot folding (SHARD_STATS → OBS_DUMP)
# ---------------------------------------------------------------------------


class TestFoldSnapshots:
    def _registry(self, served, latencies):
        reg = MetricsRegistry()
        counter = reg.counter("shard.served")
        for _ in range(served):
            counter.inc()
        reg.gauge("shard.backlog").add(float(served))
        hist = reg.histogram("shard.latency_ms")
        for value in latencies:
            hist.observe(value)
        return reg

    def test_counters_and_gauges_sum(self):
        a = self._registry(3, [1.0]).snapshot()
        b = self._registry(5, [2.0]).snapshot()
        folded = fold_snapshots([a, b])
        assert folded["counters"]["shard.served"] == 8
        assert folded["gauges"]["shard.backlog"] == pytest.approx(8.0)

    def test_histograms_merge_bucketwise(self):
        a = self._registry(1, [1.0, 2.0, 500.0]).snapshot()
        b = self._registry(1, [3.0, 1000.0]).snapshot()
        folded = fold_snapshots([a, b])
        merged = folded["histograms"]["shard.latency_ms"]
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(1506.0)
        assert merged["max"] == pytest.approx(1000.0)

    def test_fold_equals_single_registry_totals(self):
        """The invariant the OBS_DUMP test leans on: folding per-worker
        registries is indistinguishable from one registry observing all
        the traffic."""
        parts = [self._registry(i + 1, [float(i + 1)]) for i in range(4)]
        whole = self._registry(sum(range(1, 5)), [1.0, 2.0, 3.0, 4.0])
        folded = fold_snapshots([p.snapshot() for p in parts])
        reference = whole.snapshot()
        assert folded["counters"] == reference["counters"]
        assert folded["gauges"] == reference["gauges"]
        f = folded["histograms"]["shard.latency_ms"]
        r = reference["histograms"]["shard.latency_ms"]
        for key in ("count", "sum", "max", "buckets"):
            assert f[key] == r[key]

    def test_fold_does_not_mutate_inputs(self):
        a = self._registry(2, [1.0]).snapshot()
        b = self._registry(2, [1.0]).snapshot()
        before = a["counters"]["shard.served"]
        fold_snapshots([a, b])
        assert a["counters"]["shard.served"] == before

    def test_empty_fold(self):
        folded = fold_snapshots([])
        assert folded["counters"] == {}
        assert folded["gauges"] == {}
        assert folded["histograms"] == {}
