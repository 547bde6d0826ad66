"""Fastpath — data-plane before/after: cipher, codec, and tunnel throughput.

Measures the three layers the fast path touched, each against a faithful
replica of the seed implementation (kept here as the "before" baseline):

* **cipher** — RecordCipher seal+open MB/s: seed (per-byte XOR generator,
  per-block ``sha256(key+seq+ctr)``, per-record ``hmac.new``) vs the
  wire-compatible vectorized ``sha256ctr`` suite vs the negotiated
  ``shake128`` XOF suite.
* **codec** — encode + incremental decode frames/s under small TCP-like
  reads: seed FrameDecoder (full buffer copy + tail re-slice per frame)
  vs the consumed-offset decoder.
* **tunnel** — end-to-end frames/s over real TCP loopback: the seed
  receive path (legacy cipher, one send syscall per frame,
  re-encode-on-receive accounting, copying decode, a receive thread per
  tunnel — ``benchmarks/seed_io.py``) vs the fast path (negotiated
  suite, batched vectored writes, a started Tunnel on the reactor with
  zero-copy decode).

Writes ``BENCH_fastpath.json`` at the repo root so the perf trajectory is
tracked from this PR onward; run via ``python benchmarks/run_all.py
fastpath`` (add ``--quick`` for the smoke mode).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from benchmarks.common import save_table
from benchmarks.seed_io import CopyingTcpChannel, SeedReceiver
from repro.core.tunnel import Tunnel
from repro.security.cipher import (
    RecordCipher,
    SessionKeys,
    derive_session_keys,
    random_master_secret,
)
from repro.security.handshake import PeerIdentity, SecureChannel
from repro.transport.frames import (
    Frame,
    FrameDecoder,
    FrameKind,
    encode_frame,
    _decode_frame_prefix,
)
from repro.transport.reactor import ReactorTcpChannel

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_fastpath.json"

_SEQ = struct.Struct("!Q")


# ---------------------------------------------------------------------------
# Seed replicas (the "before" numbers)
# ---------------------------------------------------------------------------


class LegacyRecordCipher:
    """The seed's RecordCipher, verbatim: the de-optimized hot path."""

    def __init__(self, keys: SessionKeys):
        self.keys = keys
        self._send_seq = 0
        self._recv_seq = -1

    def _keystream(self, seq: int, nbytes: int) -> bytes:
        blocks = []
        seq_raw = _SEQ.pack(seq)
        for counter in range((nbytes + 31) // 32):
            blocks.append(
                hashlib.sha256(
                    self.keys.encrypt_key + seq_raw + counter.to_bytes(8, "big")
                ).digest()
            )
        return b"".join(blocks)[:nbytes]

    def seal(self, plaintext: bytes) -> bytes:
        seq = self._send_seq
        self._send_seq += 1
        stream = self._keystream(seq, len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        mac = hmac.new(
            self.keys.mac_key, _SEQ.pack(seq) + ciphertext, hashlib.sha256
        ).digest()
        return _SEQ.pack(seq) + mac + ciphertext

    def open(self, record: bytes) -> bytes:
        seq = _SEQ.unpack_from(record, 0)[0]
        ciphertext = record[40:]
        expected = hmac.new(
            self.keys.mac_key, _SEQ.pack(seq) + ciphertext, hashlib.sha256
        ).digest()
        if not hmac.compare_digest(record[8:40], expected):
            raise ValueError("record MAC verification failed")
        self._recv_seq = seq
        stream = self._keystream(seq, len(ciphertext))
        return bytes(c ^ s for c, s in zip(ciphertext, stream))


class LegacyFrameDecoder:
    """The seed's FrameDecoder: full-buffer copy + tail re-slice per frame."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._buffer += chunk

    def next_frame(self):
        frame, consumed = _decode_frame_prefix(bytes(self._buffer))
        if frame is None:
            return None
        del self._buffer[:consumed]
        return frame


class _BenchPeer:
    """Stands in for a Certificate in PeerIdentity (bench only)."""

    subject = "bench-peer"
    role = "proxy"


class LegacySecureChannel(SecureChannel):
    """Seed-equivalent data plane: legacy cipher, one syscall per frame,
    and the seed's re-encode-on-receive stats accounting."""

    def send_many(self, frames) -> None:
        for frame in frames:
            self.send(frame)

    def recv(self, timeout=None):
        frame = super().recv(timeout=timeout)
        encode_frame(frame)  # seed accounting re-encoded every received frame
        return frame


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def _time_per_call(fn, min_seconds: float) -> float:
    fn()  # warm-up
    reps = 0
    start = time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds and reps >= 3:
            return elapsed / reps


def bench_cipher(quick: bool = False) -> list[dict]:
    """Seal+open throughput by suite and record size."""
    keys = derive_session_keys(random_master_secret(), "client")
    sizes = [4 * 1024, 64 * 1024] if quick else [4 * 1024, 64 * 1024, 1024 * 1024]
    min_seconds = 0.05 if quick else 0.4
    rows = []
    for size in sizes:
        blob = b"\x77" * size
        row = {"bytes": size}
        for label, factory in [
            ("seed", lambda: LegacyRecordCipher(keys)),
            ("sha256ctr", lambda: RecordCipher(keys, suite="sha256ctr")),
            ("shake128", lambda: RecordCipher(keys, suite="shake128")),
        ]:
            sender, receiver = factory(), factory()
            per_call = _time_per_call(
                lambda: receiver.open(sender.seal(blob)), min_seconds
            )
            row[f"{label}_MBps"] = size / per_call / 1e6
        row["compat_speedup_x"] = row["sha256ctr_MBps"] / row["seed_MBps"]
        row["negotiated_speedup_x"] = row["shake128_MBps"] / row["seed_MBps"]
        rows.append(row)
    return rows


def bench_codec(quick: bool = False) -> list[dict]:
    """Reassembly frames/s: steady MTU reads, a coalesced burst, and one
    large frame under small reads — the last two are where the seed
    decoder's per-frame full-buffer copy goes quadratic."""
    small = [
        Frame(
            kind=FrameKind.MPI,
            channel=i % 8,
            headers={"app": "bench", "rank": i % 16, "tag": 7},
            payload=bytes(200 + (i % 700)),
        )
        for i in range(100 if quick else 600)
    ]
    small_blob = b"".join(encode_frame(f) for f in small)
    big = Frame(
        kind=FrameKind.DATA,
        channel=1,
        headers={"op": "chunk"},
        payload=b"\x55" * ((256 if quick else 1024) * 1024),
    )
    big_blob = encode_frame(big)
    scenarios = [
        ("mtu_stream", small_blob, 1536, len(small)),
        ("burst_drain", small_blob, len(small_blob), len(small)),
        ("large_frame_small_reads", big_blob, 8192, 1),
    ]
    min_seconds = 0.05 if quick else 0.4
    rows = []
    for name, blob, chunk_size, expected in scenarios:
        row = {"scenario": name, "frames": expected, "chunk_bytes": chunk_size}
        for label, factory in [
            ("seed", LegacyFrameDecoder),
            ("fastpath", FrameDecoder),
        ]:

            def run(factory=factory, blob=blob, chunk_size=chunk_size, expected=expected):
                decoder = factory()
                got = 0
                for start in range(0, len(blob), chunk_size):
                    decoder.feed(blob[start : start + chunk_size])
                    while decoder.next_frame() is not None:
                        got += 1
                assert got == expected

            per_call = _time_per_call(run, min_seconds)
            row[f"{label}_frames_per_s"] = expected / per_call
            row[f"{label}_MBps"] = len(blob) / per_call / 1e6
        row["speedup_x"] = row["fastpath_MBps"] / row["seed_MBps"]
        rows.append(row)
    return rows


def _secure_tcp_pair(legacy: bool) -> tuple[SecureChannel, SecureChannel]:
    """Secure channel pair over real TCP loopback, skipping the (separately
    benchmarked) handshake: both ends get ciphers from one master secret."""
    channel_cls = CopyingTcpChannel if legacy else ReactorTcpChannel
    with socket.create_server(("127.0.0.1", 0)) as server:
        client_sock = socket.create_connection(server.getsockname())
        server_sock, _ = server.accept()
    client_raw = channel_cls(client_sock, name="bench-a")
    server_raw = channel_cls(server_sock, name="bench-b")
    master = random_master_secret()
    ck = derive_session_keys(master, "client")
    sk = derive_session_keys(master, "server")
    peer = PeerIdentity(_BenchPeer())
    if legacy:
        a = LegacySecureChannel(client_raw, LegacyRecordCipher(ck), LegacyRecordCipher(sk), peer)
        b = LegacySecureChannel(server_raw, LegacyRecordCipher(sk), LegacyRecordCipher(ck), peer)
    else:
        suite = "shake128"  # what two upgraded proxies negotiate
        a = SecureChannel(client_raw, RecordCipher(ck, suite), RecordCipher(sk, suite), peer)
        b = SecureChannel(server_raw, RecordCipher(sk, suite), RecordCipher(ck, suite), peer)
    return a, b


def bench_tunnel(quick: bool = False) -> list[dict]:
    """End-to-end frames/s through tunnels on TCP loopback."""
    payload = b"\x42" * 4096
    count = 300 if quick else 3000
    batch = 32
    rows = []
    for label, legacy in [("seed", True), ("fastpath", False)]:
        secure_a, secure_b = _secure_tcp_pair(legacy)
        sender = Tunnel(secure_a, "a")
        done = threading.Event()
        seen = [0]

        def on_frame(frame, seen=seen, done=done):
            seen[0] += 1
            if seen[0] >= count:
                done.set()

        if legacy:
            receiver = SeedReceiver(secure_b, on_frame).start()
        else:
            receiver = Tunnel(secure_b, "b")
            receiver.on_frame(FrameKind.MPI, on_frame)
            receiver.start()
        frames = [
            Frame(kind=FrameKind.MPI, channel=1, headers={"rank": 0}, payload=payload)
            for _ in range(batch)
        ]
        start = time.perf_counter()
        sent = 0
        while sent < count:
            n = min(batch, count - sent)
            if legacy:
                for frame in frames[:n]:
                    sender.send(frame)
            else:
                sender.send_many(frames[:n])
            sent += n
        assert done.wait(timeout=120.0), "receiver did not drain"
        elapsed = time.perf_counter() - start
        sender.close()
        receiver.close()
        rows.append(
            {
                "variant": label,
                "frames": count,
                "payload_bytes": len(payload),
                "frames_per_s": count / elapsed,
                "MBps": count * len(payload) / elapsed / 1e6,
            }
        )
    by = {row["variant"]: row for row in rows}
    for row in rows:
        row["speedup_x"] = row["frames_per_s"] / by["seed"]["frames_per_s"]
    return rows


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_experiment(quick: bool = False) -> dict:
    cipher_rows = bench_cipher(quick)
    codec_rows = bench_codec(quick)
    tunnel_rows = bench_tunnel(quick)
    cipher_speedup = max(row["negotiated_speedup_x"] for row in cipher_rows)
    tunnel_speedup = max(row["speedup_x"] for row in tunnel_rows)
    report = {
        "generated_by": "benchmarks/bench_fastpath.py",
        "quick": quick,
        "cipher_seal_open_speedup_x": round(cipher_speedup, 2),
        "tunnel_frames_per_s_speedup_x": round(tunnel_speedup, 2),
        "cipher": cipher_rows,
        "codec": codec_rows,
        "tunnel": tunnel_rows,
        "notes": (
            "before = faithful replica of the seed implementation; "
            "after = negotiated shake128 suite + vectorized sha256ctr, "
            "offset FrameDecoder, iovec sendmsg framing, write coalescing. "
            "Wire layout unchanged; sha256ctr records are byte-identical "
            "to the seed's."
        ),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_tables(quick: bool = False) -> list[dict]:
    """run_all.py entry point: flatten the report into printable rows."""
    report = run_experiment(quick)
    rows = []
    for row in report["cipher"]:
        rows.append({"bench": "cipher", **{k: v for k, v in row.items()}})
    for row in report["codec"]:
        rows.append({"bench": "codec", **{k: v for k, v in row.items()}})
    for row in report["tunnel"]:
        rows.append({"bench": "tunnel", **{k: v for k, v in row.items()}})
    return rows


def check_shape(report: dict) -> None:
    # The fast path must beat the seed by the tentpole targets.
    assert report["cipher_seal_open_speedup_x"] >= 10.0, report
    assert report["tunnel_frames_per_s_speedup_x"] >= 2.0, report
    for row in report["codec"]:
        # Steady-state MTU reads are codec-bound (parity); the burst and
        # large-frame scenarios are where the O(n^2) fix must show.
        floor = 0.8 if row["scenario"] == "mtu_stream" else 1.2
        assert row["speedup_x"] > floor, row


@pytest.mark.fastpath
@pytest.mark.slow
@pytest.mark.benchmark(group="fastpath")
def test_fastpath_quick(benchmark):
    report = benchmark.pedantic(lambda: run_experiment(quick=True), rounds=1, iterations=1)
    # Quick mode checks plumbing and direction, not the full-run targets.
    assert report["cipher_seal_open_speedup_x"] > 2.0
    assert report["tunnel_frames_per_s_speedup_x"] > 1.0
    save_table("fastpath", "Fastpath: data-plane before/after", run_tables(quick=True))


if __name__ == "__main__":
    quick = "--quick" in __import__("sys").argv
    report = run_experiment(quick=quick)
    print(json.dumps(report, indent=2))
    if not quick:
        check_shape(report)
