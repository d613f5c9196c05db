"""Transport-level behaviour tested without the full MPI stack."""

import threading

import numpy as np
import pytest

from repro.runtime.envelope import Envelope, KIND_DATA
from repro.transport.chunked import ChunkedTransport
from repro.transport.inproc import InprocTransport
from repro.transport.modeled import ModeledTransport
from repro.transport.netmodel import ENVIRONMENTS
from repro.transport.socket_tcp import SocketTransport
from repro.transport import make_transport
from repro.util.clock import VirtualClock


def collect(transport, rank):
    got = []
    transport.set_deliver(rank, got.append)
    return got


class TestInproc:
    def test_direct_delivery(self):
        tr = InprocTransport(2)
        got = collect(tr, 1)
        env = Envelope(src=0, dst=1, payload=np.arange(3, dtype=np.int64),
                       nelems=3)
        tr.send(env)
        assert got and got[0] is env
        assert tr.mode == "SM"

    def test_missing_mailbox_raises(self):
        tr = InprocTransport(2)
        with pytest.raises(RuntimeError):
            tr.send(Envelope(src=0, dst=1))

    def test_broadcast_control(self):
        tr = InprocTransport(3)
        sinks = [collect(tr, r) for r in range(3)]
        tr.broadcast_control(Envelope(kind=2, src=0))
        assert all(len(s) == 1 for s in sinks)


class TestChunked:
    def test_payload_copied_not_aliased(self):
        tr = ChunkedTransport(2, packet_bytes=8)
        got = collect(tr, 1)
        data = np.arange(10, dtype=np.int32)
        tr.send(Envelope(src=0, dst=1, payload=data, nelems=10))
        assert np.array_equal(got[0].payload, data)
        assert got[0].payload is not data

    def test_packet_accounting(self):
        tr = ChunkedTransport(2, packet_bytes=8)  # 2 int32 per packet
        collect(tr, 1)
        tr.send(Envelope(src=0, dst=1,
                         payload=np.arange(10, dtype=np.int32), nelems=10))
        assert tr.packets_staged == 5

    def test_object_payload_staged(self):
        tr = ChunkedTransport(2, packet_bytes=4)
        got = collect(tr, 1)
        tr.send(Envelope(src=0, dst=1, payload=b"hello world", nelems=1,
                         is_object=True))
        assert bytes(got[0].payload) == b"hello world"

    def test_bad_packet_size_rejected(self):
        with pytest.raises(ValueError):
            ChunkedTransport(2, packet_bytes=0)

    def test_mode_follows_inner(self):
        sm = ChunkedTransport(2)
        assert sm.mode == "SM"

    def test_packet_accounting_is_race_free_under_concurrent_sends(self):
        # multiple rank threads stage packets concurrently; a bare
        # ``+= 1`` per packet loses increments and under-reports
        tr = ChunkedTransport(2, packet_bytes=8)  # 2 int32 per packet
        collect(tr, 0)
        collect(tr, 1)
        sends_per_thread, packets_per_send = 200, 5
        payload = np.arange(10, dtype=np.int32)  # 5 packets

        def sender(dst):
            for _ in range(sends_per_thread):
                tr.send(Envelope(src=1 - dst, dst=dst, payload=payload,
                                 nelems=10))

        threads = [threading.Thread(target=sender, args=(d,))
                   for d in (0, 1, 0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tr.packets_staged == \
            len(threads) * sends_per_thread * packets_per_send


class TestSocket:
    def test_roundtrip_frames(self):
        tr = SocketTransport(2)
        got1 = collect(tr, 1)
        collect(tr, 0)
        tr.start()
        try:
            arrived = threading.Event()
            tr.set_deliver(1, lambda e: (got1.append(e), arrived.set()))
            data = np.arange(100, dtype=np.float64)
            tr.send(Envelope(src=0, dst=1, context=3, tag=7, payload=data,
                             nelems=100))
            assert arrived.wait(timeout=5)
            env = got1[-1]
            assert env.tag == 7 and env.context == 3
            assert np.array_equal(np.asarray(env.payload), data)
        finally:
            tr.close()

    def test_self_send_loopback(self):
        tr = SocketTransport(2)
        got0 = collect(tr, 0)
        collect(tr, 1)
        tr.start()
        try:
            tr.send(Envelope(src=0, dst=0, payload=None, nelems=0))
            assert len(got0) == 1  # delivered synchronously, no wire
        finally:
            tr.close()

    def test_per_pair_fifo(self):
        tr = SocketTransport(2)
        collect(tr, 0)
        seen = []
        done = threading.Event()

        def sink(env):
            seen.append(env.tag)
            if len(seen) == 50:
                done.set()

        tr.set_deliver(1, sink)
        tr.start()
        try:
            for i in range(50):
                tr.send(Envelope(src=0, dst=1, tag=i))
            assert done.wait(timeout=5)
            assert seen == list(range(50))
        finally:
            tr.close()

    def test_close_idempotent(self):
        tr = SocketTransport(2)
        tr.start()
        tr.close()
        tr.close()


class TestTCPMesh:
    """The process-backend carrier, exercised in-process: two 'ranks' of
    one job mesh up through the real rendezvous helpers."""

    @staticmethod
    def _make_pair():
        from repro.transport.socket_tcp import (TCPMeshTransport,
                                                build_mesh, mesh_listener)
        listeners = [mesh_listener(), mesh_listener()]
        book = {r: listeners[r].getsockname()[:2] for r in range(2)}
        out = [None, None]

        def boot(rank):
            peers = build_mesh(rank, 2, listeners[rank], book)
            out[rank] = TCPMeshTransport(2, rank, peers)

        threads = [threading.Thread(target=boot, args=(r,))
                   for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert all(out), "mesh bootstrap failed"
        return out

    def test_frames_cross_the_mesh(self):
        t0, t1 = self._make_pair()
        try:
            got = []
            arrived = threading.Event()
            t1.set_deliver(1, lambda e: (got.append(e), arrived.set()))
            t0.set_deliver(0, lambda e: None)
            t0.start()
            t1.start()
            data = np.arange(64, dtype=np.float64)
            t0.send(Envelope(src=0, dst=1, context=3, tag=7, payload=data,
                             nelems=64))
            assert arrived.wait(timeout=5)
            env = got[-1]
            assert env.tag == 7 and env.context == 3
            assert np.array_equal(np.asarray(env.payload), data)
            assert t0.mode == "DM"
        finally:
            t0.close()
            t1.close()

    def test_loopback_is_local(self):
        t0, t1 = self._make_pair()
        try:
            got = []
            t0.set_deliver(0, got.append)
            t0.start()
            t1.start()
            t0.send(Envelope(src=0, dst=0))
            assert len(got) == 1  # delivered synchronously, no wire
        finally:
            t0.close()
            t1.close()

    def test_peer_death_delivers_peerfail(self):
        """A peer dying outside teardown is a classified single-rank loss
        (ULFM failure plane), not a whole-universe abort."""
        from repro.runtime.envelope import KIND_PEERFAIL, decode_peerfail_env
        t0, t1 = self._make_pair()
        try:
            got = []
            arrived = threading.Event()
            t0.set_deliver(0, lambda e: (got.append(e), arrived.set()))
            t0.start()
            t1.close()  # rank 1 "hard-killed" outside teardown
            assert arrived.wait(timeout=5)
            env = got[-1]
            assert env.kind == KIND_PEERFAIL
            failed_rank, cause = decode_peerfail_env(env)
            assert failed_rank == 1
            assert isinstance(cause, (ConnectionError, RuntimeError))
        finally:
            t0.close()

    def test_mesh_must_cover_all_peers(self):
        from repro.transport.socket_tcp import TCPMeshTransport
        with pytest.raises(ValueError):
            TCPMeshTransport(3, 0, {})


class TestModeled:
    def test_charges_clock(self):
        clock = VirtualClock()
        model = ENVIRONMENTS["WMPI_SM"]
        tr = ModeledTransport(2, model, clock)
        collect(tr, 1)
        tr.send(Envelope(src=0, dst=1,
                         payload=np.zeros(1000, dtype=np.int8),
                         nelems=1000, kind=KIND_DATA))
        assert clock.now() == pytest.approx(model.message_time(1000))
        assert tr.messages == 1
        assert tr.bytes_charged == 1000

    def test_control_charged_software_overhead_only(self):
        clock = VirtualClock()
        model = ENVIRONMENTS["WMPI_SM"]
        tr = ModeledTransport(2, model, clock)
        collect(tr, 1)
        from repro.runtime.envelope import KIND_ACK
        tr.send(Envelope(kind=KIND_ACK, src=0, dst=1))
        assert clock.now() == pytest.approx(model.t_sw)


class TestFactory:
    def test_known_names(self):
        for name in ("inproc", "chunked", "socket"):
            tr = make_transport(name, 2)
            tr.close()

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_transport("carrier-pigeon", 2)


class TestVectoredFrames:
    """wire.py scatter/gather primitives: short writes, batching, EOF."""

    def _pair(self, bufsize=None):
        import socket
        a, b = socket.socketpair()
        if bufsize:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, bufsize)
            b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, bufsize)
        return a, b

    def test_vectored_roundtrip_many_views(self):
        import threading
        import numpy as np
        from repro.transport import wire
        a, b = self._pair(bufsize=8192)   # force short writes / reads
        src = np.arange(200_000, dtype=np.uint8)
        mvs = memoryview(src).cast("B")
        views = [mvs[i:i + 1777] for i in range(0, len(src), 1777)]
        header = b"H" * 32
        out = np.zeros(len(src), dtype=np.uint8)
        mvd = memoryview(out).cast("B")
        rviews = [mvd[i:i + 1313] for i in range(0, len(out), 1313)]

        def tx():
            wire.send_frame(a, header, views)   # list body -> vectored

        t = threading.Thread(target=tx)
        t.start()
        got_header = bytearray(32)
        wire.recv_exact_into(b, memoryview(got_header))
        wire.recv_exact_into_views(b, rviews)
        t.join(timeout=10)
        assert bytes(got_header) == header
        assert np.array_equal(out, src)
        a.close(); b.close()

    def test_recv_views_raises_on_eof(self):
        from repro.transport import wire
        a, b = self._pair()
        a.close()
        view = memoryview(bytearray(16))
        with pytest.raises(ConnectionError):
            wire.recv_exact_into_views(b, [view])
        b.close()

    def test_body_nbytes(self):
        from repro.transport import wire
        assert wire.body_nbytes(b"abc") == 3
        assert wire.body_nbytes([memoryview(b"ab"), memoryview(b"c")]) == 3
        assert wire.body_nbytes([]) == 0


# ---------------------------------------------------------------------------
# shared-memory intra-node transport
# ---------------------------------------------------------------------------

import itertools
import os
import time

_seg_seq = itertools.count(1)


def _seg_name():
    return f"repro_t{os.getpid():x}_{next(_seg_seq)}"


class _SpinStall:
    """Minimal stall for driving the raw ring without a channel."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        time.sleep(0)

    def reset(self):
        pass


class _Stats:
    """CounterGroup stand-in recording ``stall_sleeps`` increments."""

    def __init__(self):
        self.stall_sleeps = 0

    def add(self, key, delta=1):
        if key == "stall_sleeps":
            self.stall_sleeps += delta


class TestShmRing:
    """The SPSC byte ring: wrap-around, backpressure, oversized frames."""

    @staticmethod
    def _segment(ring=64, rndv=64):
        from repro.transport.shm import ShmSegment
        return ShmSegment(_seg_name(), create=True, ring=ring, rndv=rndv)

    def test_wraparound_roundtrip(self):
        seg = self._segment(ring=64)
        try:
            ring, stall = seg.frame, _SpinStall()
            for pattern in (b"A" * 40, b"B" * 40, b"C" * 40):
                ring.write(pattern, stall)   # second/third writes wrap
                out = memoryview(bytearray(40))
                got = 0
                while got < 40:
                    got += ring.read_some([out[got:]], stall)
                assert bytes(out) == pattern
            assert ring.read_available() == 0
            assert ring.write_free() == ring.capacity
        finally:
            seg.close()

    def test_frame_straddling_wrap_scatters_across_views(self):
        """A 100-byte frame through a 64-byte ring: the payload is
        larger than the capacity (streams in pieces) and the consumer's
        destination views straddle the wrap point."""
        seg = self._segment(ring=64)
        try:
            ring = seg.frame
            src = bytes(i % 251 for i in range(100))
            out = bytearray(100)
            mv = memoryview(out)
            views = [mv[:33], mv[33:]]
            done = []

            def consumer():
                ring.read_exact_views(views, _SpinStall())
                done.append(True)

            t = threading.Thread(target=consumer)
            t.start()
            ring.write(src, _SpinStall())
            t.join(timeout=10)
            assert done and bytes(out) == src
        finally:
            seg.close()

    def test_full_ring_backpressure_sleeps_instead_of_spinning(self):
        """A producer blocked on a full ring must fall into the sleep
        backoff (counted as ``stall_sleeps``), not hot-spin."""
        from repro.transport.shm import ShmChannel
        seg = self._segment(ring=4096, rndv=64)
        chan = ShmChannel(seg, 0, 1)
        stats = _Stats()
        chan.bind(threading.Event(), stats)
        payload = bytes(256 * 1024)
        try:
            t = threading.Thread(target=chan.sendall, args=(payload,))
            t.start()
            time.sleep(0.05)          # let the producer fill and block
            assert stats.stall_sleeps > 0
            got = 0
            buf = memoryview(bytearray(8192))
            while got < len(payload):
                got += chan.recv_into(buf)
            t.join(timeout=10)
            assert not t.is_alive()
            assert got == len(payload)
        finally:
            seg.close()

    def test_blocked_wait_unwinds_when_peer_marked_dead(self):
        """Rings have no EOF: the ``dead`` flag (fed by the heartbeat
        plane) is what breaks a blocked wait out."""
        from repro.transport.shm import ShmChannel
        seg = self._segment(ring=4096, rndv=64)
        chan = ShmChannel(seg, 0, 1)
        chan.bind(threading.Event(), _Stats())
        errs = []

        def producer():
            try:
                chan.sendall(bytes(64 * 1024))
            except ConnectionError as exc:
                errs.append(exc)

        try:
            t = threading.Thread(target=producer)
            t.start()
            time.sleep(0.02)
            chan.dead.set()
            t.join(timeout=10)
            assert errs and "dead" in str(errs[0])
        finally:
            seg.close()


#: producer side of the two-process ring stress: attach the segment
#: by name and stream seeded random frames, each ``len | crc32 | body``
_RING_PRODUCER = """
import random, struct, sys, time, zlib
from repro.transport.shm import ShmSegment

class Stall:
    def __call__(self):
        time.sleep(0)

    def reset(self):
        pass

seg = ShmSegment(sys.argv[1], create=False)
rng, stall = random.Random(int(sys.argv[3])), Stall()
try:
    for _ in range(int(sys.argv[2])):
        body = rng.randbytes(rng.randint(1, 300))
        seg.frame.write(struct.pack("<II", len(body), zlib.crc32(body))
                        + body, stall)
finally:
    seg.close()
"""


class TestShmRingTwoProcess:
    """Producer and consumer in separate processes on separate cores:
    the counters must publish atomically under real concurrency."""

    FRAMES = 60_000

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2,
        reason="needs 2+ CPUs: on one core the producer and consumer "
               "never run at the same instant, so a torn counter "
               "publish cannot be observed")
    def test_checksummed_frames_survive_wraparound(self):
        import struct
        import subprocess
        import sys
        import zlib
        from pathlib import Path

        import repro
        from repro.transport.shm import ShmSegment
        seg = ShmSegment(_seg_name(), create=True, ring=4096, rndv=64)
        env = dict(os.environ, PYTHONPATH=str(
            Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", _RING_PRODUCER, seg.name,
             str(self.FRAMES), "7"], env=env, stderr=subprocess.PIPE)
        deadline = time.monotonic() + 120

        class Stall:
            def __call__(self):
                if proc.poll() is not None and \
                        not seg.frame.read_available():
                    raise AssertionError(
                        "producer died: " + proc.stderr.read().decode())
                assert time.monotonic() < deadline, "ring stress hung"
                time.sleep(0)

            def reset(self):
                pass

        def read_exact(n):
            out = bytearray(n)
            seg.frame.read_exact_views([memoryview(out)], stall)
            return bytes(out)

        stall = Stall()
        try:
            for i in range(self.FRAMES):
                size, crc = struct.unpack("<II", read_exact(8))
                assert 1 <= size <= 300, f"frame {i}: torn length {size}"
                body = read_exact(size)
                assert zlib.crc32(body) == crc, f"frame {i}: bad checksum"
            assert proc.wait(timeout=60) == 0, proc.stderr.read().decode()
            assert seg.frame.read_available() == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
            seg.close()


class TestShmTransport:
    """The full shm transport in-process: framing, FIFO, cleanup."""

    def test_concurrent_pingpong_stress(self):
        from repro.transport.shm import shm_world
        tr = shm_world(2, ring=8192)
        n = 300
        seen = {0: [], 1: []}
        done = {0: threading.Event(), 1: threading.Event()}

        def sink(rank):
            def deliver(env):
                seen[rank].append(env)
                if len(seen[rank]) == n:
                    done[rank].set()
            return deliver

        tr.set_deliver(0, sink(0))
        tr.set_deliver(1, sink(1))
        tr.start()
        try:
            payload = np.arange(16, dtype=np.int32)

            def sender(src):
                for i in range(n):
                    tr.send(Envelope(src=src, dst=1 - src, tag=i,
                                     payload=payload, nelems=16))

            threads = [threading.Thread(target=sender, args=(s,))
                       for s in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert done[0].wait(timeout=10) and done[1].wait(timeout=10)
            for rank in (0, 1):
                assert [e.tag for e in seen[rank]] == list(range(n))
            assert np.array_equal(np.asarray(seen[0][-1].payload), payload)
        finally:
            tr.close()

    def test_close_unlinks_every_segment(self):
        from repro.transport.shm import leaked_segments, shm_world
        nonce = f"t{os.getpid():x}u{next(_seg_seq)}"
        tr = shm_world(2, nonce=nonce)
        assert len(leaked_segments(nonce, 2)) == 2   # both pairs live
        tr.close()
        assert leaked_segments(nonce, 2) == []

    def test_universe_finalize_unlinks_segments(self):
        from repro.runtime.engine import Universe
        from repro.transport.shm import leaked_segments, shm_world
        nonce = f"t{os.getpid():x}u{next(_seg_seq)}"
        uni = Universe(2, transport=shm_world(2, nonce=nonce))
        try:
            assert len(leaked_segments(nonce, 2)) == 2
        finally:
            uni.close()
        assert leaked_segments(nonce, 2) == []

    def test_segment_attach_validates_magic(self):
        from multiprocessing import shared_memory
        from repro.transport.shm import ShmSegment
        name = _seg_name()
        raw = shared_memory.SharedMemory(name=name, create=True, size=512)
        try:
            with pytest.raises(ValueError):
                ShmSegment(name, create=False)
        finally:
            raw.unlink()
            raw.close()
