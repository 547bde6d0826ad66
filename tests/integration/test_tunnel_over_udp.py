"""Integration: the secure tunnel running over the reliable-UDP transport.

Because every transport implements the same Channel contract, the
SSL-like handshake and record layer run unchanged over UDP + ARQ — even
with datagram loss underneath — and a started :class:`Tunnel` over UDP
is delivered by the shared reactor like a tunnel over TCP.
"""

import struct
import threading
import time

import pytest

from repro.core.tunnel import Tunnel
from repro.security.ca import CertificationAuthority
from repro.security.handshake import accept_secure, connect_secure
from repro.security.rsa import RsaKeyPair
from repro.transport.frames import Frame, FrameKind
from repro.transport.udp import udp_pair

KEY_BITS = 512


@pytest.fixture(scope="module")
def pki():
    clock = time.time
    ca = CertificationAuthority(key_bits=KEY_BITS, clock=clock)
    key_a = RsaKeyPair.generate(KEY_BITS)
    key_b = RsaKeyPair.generate(KEY_BITS)
    return {
        "ca": ca,
        "clock": clock,
        "a": (key_a, ca.issue("proxy.A", "proxy", key_a.public)),
        "b": (key_b, ca.issue("proxy.B", "proxy", key_b.public)),
    }


def secure_over_udp(pki, loss_injector_a=None):
    raw_a, raw_b = udp_pair(loss_injector_a=loss_injector_a)
    result = {}

    def server():
        key, cert = pki["b"]
        result["b"] = accept_secure(
            raw_b, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
        )

    thread = threading.Thread(target=server)
    thread.start()
    key, cert = pki["a"]
    secure_a = connect_secure(
        raw_a, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
    )
    thread.join(timeout=60.0)
    return secure_a, result["b"], (raw_a, raw_b)


def test_handshake_and_records_over_udp(pki):
    secure_a, secure_b, raws = secure_over_udp(pki)
    try:
        secure_a.send(
            Frame(kind=FrameKind.CONTROL, headers={"op": "PING"}, payload=b"x" * 2048)
        )
        frame = secure_b.recv(timeout=10.0)
        assert frame.headers == {"op": "PING"}
        assert frame.payload == b"x" * 2048
    finally:
        for raw in raws:
            raw.close()


def drop_every_4th_data():
    """A loss injector dropping every 4th DATA datagram; counts drops."""
    counter = {"n": 0}

    def lossy(datagram):
        if struct.unpack_from("!B", datagram, 0)[0] != 1:
            return False
        counter["n"] += 1
        return counter["n"] % 4 == 0

    return lossy, counter


def test_handshake_survives_datagram_loss(pki):
    """Drop every 4th DATA datagram; ARQ masks it from the handshake."""
    lossy, counter = drop_every_4th_data()
    secure_a, secure_b, raws = secure_over_udp(pki, loss_injector_a=lossy)
    try:
        for i in range(10):
            secure_a.send(Frame(kind=FrameKind.DATA, headers={"seq": i}))
        got = [secure_b.recv(timeout=30.0).headers["seq"] for _ in range(10)]
        assert got == list(range(10))
        assert counter["n"] > 0  # loss actually happened
    finally:
        for raw in raws:
            raw.close()


def test_replay_protection_intact_over_udp(pki):
    """ARQ-level retransmissions must not look like record replays."""
    # Force heavy duplication by dropping half the ACKs coming back.
    counter = {"n": 0}

    def drop_acks(datagram):
        if struct.unpack_from("!B", datagram, 0)[0] != 2:
            return False
        counter["n"] += 1
        return counter["n"] % 2 == 0

    raw_a, raw_b = udp_pair(loss_injector_b=drop_acks)
    result = {}

    def server():
        key, cert = pki["b"]
        result["b"] = accept_secure(
            raw_b, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
        )

    thread = threading.Thread(target=server)
    thread.start()
    key, cert = pki["a"]
    secure_a = connect_secure(
        raw_a, key, cert, pki["ca"].public_key, pki["clock"], timeout=60.0
    )
    thread.join(timeout=60.0)
    secure_b = result["b"]
    try:
        for i in range(20):
            secure_a.send(Frame(kind=FrameKind.DATA, headers={"seq": i}))
        got = [secure_b.recv(timeout=30.0).headers["seq"] for _ in range(20)]
        assert got == list(range(20))
    finally:
        raw_a.close()
        raw_b.close()


def tunnels_over_udp(pki, loss_injector_a=None, loss_injector_b=None):
    raw_a, raw_b = udp_pair(
        loss_injector_a=loss_injector_a, loss_injector_b=loss_injector_b
    )
    result = {}

    def server():
        key, cert = pki["b"]
        result["b"] = Tunnel.establish_server(
            raw_b, "proxy.B", key, cert, pki["ca"].public_key, pki["clock"]
        )

    thread = threading.Thread(target=server)
    thread.start()
    key, cert = pki["a"]
    tunnel_a = Tunnel.establish_client(
        raw_a, "proxy.A", key, cert, pki["ca"].public_key, pki["clock"]
    )
    thread.join(timeout=60.0)
    return tunnel_a, result["b"]


def collect(tunnel, kind, count):
    """Start ``tunnel`` and return (frames list, event set at ``count``)."""
    got, done = [], threading.Event()

    def on_frame(frame):
        got.append(frame.headers["seq"])
        if len(got) >= count:
            done.set()

    tunnel.on_frame(kind, on_frame)
    tunnel.start()
    return got, done


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "datagram-loss"])
def test_tunnel_over_udp_is_delivered_by_the_reactor(pki, lossy):
    injector_a, counter_a = drop_every_4th_data()
    injector_b, counter_b = drop_every_4th_data()
    a, b = tunnels_over_udp(
        pki,
        loss_injector_a=injector_a if lossy else None,
        loss_injector_b=injector_b if lossy else None,
    )
    try:
        at_b, b_done = collect(b, FrameKind.CONTROL, 30)
        at_a, a_done = collect(a, FrameKind.MPI, 30)
        for i in range(30):
            a.send(Frame(kind=FrameKind.CONTROL, headers={"seq": i}, payload=b"a" * 512))
        b.send_many(Frame(kind=FrameKind.MPI, headers={"seq": i}) for i in range(30))
        assert b_done.wait(timeout=30.0) and a_done.wait(timeout=30.0)
        assert at_b == list(range(30))
        assert at_a == list(range(30))
        if lossy:
            assert counter_a["n"] >= 4 and counter_b["n"] >= 4  # loss happened
    finally:
        a.close()
        b.close()


def test_tunnel_over_udp_reports_peer_close(pki):
    a, b = tunnels_over_udp(pki)
    lost = threading.Event()
    b.on_close(lambda tunnel: lost.set())
    b.start()
    a.start()
    a.close()
    assert lost.wait(timeout=10.0)
    assert not b.alive
    assert b.join(timeout=5.0)
