"""Unit tests for the reliable-UDP transport, including loss injection."""

import struct
import threading

import pytest

from repro.transport.errors import ChannelClosed, FrameError, TransportTimeout
from repro.transport.frames import Frame, FrameKind
from repro.transport.udp import MAX_UDP_FRAME, udp_pair


def data_frame(payload=b"x", **headers):
    return Frame(kind=FrameKind.DATA, headers=headers, payload=payload)


def close_pair(a, b):
    a.close()
    b.close()


class TestLossFree:
    def test_round_trip(self):
        a, b = udp_pair()
        try:
            a.send(data_frame(b"over real datagrams", seq=1))
            frame = b.recv(timeout=5.0)
            assert frame.payload == b"over real datagrams"
            assert frame.headers == {"seq": 1}
        finally:
            close_pair(a, b)

    def test_bidirectional(self):
        a, b = udp_pair()
        try:
            a.send(data_frame(b"ping"))
            assert b.recv(timeout=5.0).payload == b"ping"
            b.send(data_frame(b"pong"))
            assert a.recv(timeout=5.0).payload == b"pong"
        finally:
            close_pair(a, b)

    def test_order_preserved(self):
        a, b = udp_pair()
        try:
            for i in range(100):
                a.send(data_frame(seq=i))
            got = [b.recv(timeout=5.0).headers["seq"] for _ in range(100)]
            assert got == list(range(100))
        finally:
            close_pair(a, b)

    def test_recv_timeout(self):
        a, b = udp_pair()
        try:
            with pytest.raises(TransportTimeout):
                b.recv(timeout=0.05)
        finally:
            close_pair(a, b)

    def test_oversized_frame_rejected(self):
        a, b = udp_pair()
        try:
            with pytest.raises(FrameError, match="too large"):
                a.send(data_frame(b"\x00" * (MAX_UDP_FRAME + 1)))
        finally:
            close_pair(a, b)

    def test_close_propagates(self):
        a, b = udp_pair()
        a.send(data_frame(b"last"))
        assert b.recv(timeout=5.0).payload == b"last"
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv(timeout=5.0)
        b.close()

    def test_send_after_close_raises(self):
        a, b = udp_pair()
        close_pair(a, b)
        with pytest.raises(ChannelClosed):
            a.send(data_frame())

    def test_poll_recv_drains_under_the_ready_callback(self):
        """The reactor protocol: poll_recv never blocks, the callback
        fires per delivered frame and once more at closure."""
        a, b = udp_pair()
        try:
            assert b.poll_recv() is None
            ready = threading.Semaphore(0)
            b.set_ready_callback(ready.release)
            for i in range(3):
                a.send(data_frame(seq=i))
            got = []
            while len(got) < 3:
                assert ready.acquire(timeout=5.0)
                frame = b.poll_recv()
                if frame is not None:
                    got.append(frame.headers["seq"])
            assert got == [0, 1, 2]
            a.close()
            assert ready.acquire(timeout=5.0)
            with pytest.raises(ChannelClosed):
                b.poll_recv()
            with pytest.raises(ChannelClosed):
                b.poll_recv()  # closure stays visible
        finally:
            close_pair(a, b)

    def test_threaded_echo(self):
        a, b = udp_pair()

        def echo():
            for _ in range(50):
                frame = b.recv(timeout=10.0)
                b.send(frame)

        thread = threading.Thread(target=echo)
        thread.start()
        try:
            for i in range(50):
                a.send(data_frame(seq=i))
            got = [a.recv(timeout=10.0).headers["seq"] for _ in range(50)]
            assert got == list(range(50))
            thread.join(timeout=10.0)
        finally:
            close_pair(a, b)


class TestUnderLoss:
    """The ARQ layer must mask dropped datagrams, exactly like TCP would."""

    def make_dropper(self, drop_indices):
        counter = {"n": 0}

        def drop(datagram):
            dtype = struct.unpack_from("!B", datagram, 0)[0]
            if dtype != 1:  # only drop DATA; ACK/FIN loss tested separately
                return False
            index = counter["n"]
            counter["n"] += 1
            return index in drop_indices

        return drop

    def test_single_drop_recovered_by_retransmit(self):
        a, b = udp_pair(loss_injector_a=self.make_dropper({0}))
        try:
            a.send(data_frame(b"must arrive"))
            assert b.recv(timeout=10.0).payload == b"must arrive"
        finally:
            close_pair(a, b)

    def test_burst_drops_preserve_order(self):
        # Drop the first transmission of frames 2, 3 and 7.
        a, b = udp_pair(loss_injector_a=self.make_dropper({2, 3, 7}))
        try:
            for i in range(10):
                a.send(data_frame(seq=i))
            got = [b.recv(timeout=10.0).headers["seq"] for _ in range(10)]
            assert got == list(range(10))
        finally:
            close_pair(a, b)

    def test_periodic_loss_full_stream_delivered(self):
        # Every 5th DATA datagram (first transmission or retransmission)
        # vanishes; cumulative ACK + retransmission still delivers all.
        counter = {"n": 0}

        def drop_every_5th(datagram):
            if struct.unpack_from("!B", datagram, 0)[0] != 1:
                return False
            counter["n"] += 1
            return counter["n"] % 5 == 0

        a, b = udp_pair(loss_injector_a=drop_every_5th)
        try:
            for i in range(40):
                a.send(data_frame(seq=i))
            got = [b.recv(timeout=20.0).headers["seq"] for _ in range(40)]
            assert got == list(range(40))
        finally:
            close_pair(a, b)

    def test_ack_loss_tolerated(self):
        """Dropping ACKs causes duplicate DATA, which must be discarded."""
        counter = {"n": 0}

        def drop_some_acks(datagram):
            if struct.unpack_from("!B", datagram, 0)[0] != 2:
                return False
            counter["n"] += 1
            return counter["n"] % 2 == 0

        a, b = udp_pair(loss_injector_b=drop_some_acks)
        try:
            for i in range(20):
                a.send(data_frame(seq=i))
            got = [b.recv(timeout=20.0).headers["seq"] for _ in range(20)]
            assert got == list(range(20))  # no duplicates delivered
        finally:
            close_pair(a, b)

    def test_total_blackhole_eventually_closes(self):
        a, b = udp_pair(loss_injector_a=lambda d: True)  # nothing escapes
        try:
            a.send(data_frame(b"doomed"))
            # The retransmitter gives up and closes the channel.
            deadline = 20.0
            import time

            start = time.monotonic()
            while not a.closed and time.monotonic() - start < deadline:
                time.sleep(0.1)
            assert a.closed
        finally:
            close_pair(a, b)
