"""Shared-memory intra-node transport + hierarchical per-peer selection.

On one host, procs-DM ranks used to talk through loopback TCP — two
kernel crossings plus wire framing per message.  This module moves
same-host traffic into ``multiprocessing.shared_memory`` segments, the
way production MPIs structure their fastest path (MPICH Nemesis,
Open MPI sm/vader):

* **Per-pair SPSC ring** (:class:`_SpscRing`) — each directed pair
  (src -> dst) owns one segment, created by the *receiver* during
  bootstrap, containing a byte-stream frame ring and a separate
  rendezvous region.  Eager frames are written into the frame ring in
  exactly the socket wire format (:mod:`repro.runtime.envelope`); the
  receiver's progress thread drains them through the same
  ``Envelope.decode`` choke point the TCP path uses.  The ring is a
  *byte stream* with 64-bit monotonic head/tail counters: the producer
  only ever advances ``head``, the consumer only ever advances ``tail``
  (see the ``shm-ring-discipline`` lint rule), frames of any size
  stream through (a frame larger than the ring flows in pieces as the
  consumer drains), and a full ring blocks the producer through an
  adaptive yield-then-sleep backoff — never a hot spin.
* **Claimable rendezvous region** — RTS/CTS ride the frame ring (so
  matching order stays FIFO with eager data), then the payload bytes
  land in the segment's rendezvous region and the receiver scatters
  them *directly into the posted buffer* via the layout IR's run views
  (:meth:`repro.datatypes.layout.LayoutIR.byte_views` /
  ``scatter_range`` walk) — strided receives stay zero-staging.  The
  region is itself SPSC flow-controlled: the notify frame goes first
  and the payload streams behind it, so payloads larger than the
  region never deadlock.  Keeping bulk payloads out of the frame ring
  means CTS/ACK/probe frames never queue behind megabytes of data.
* **Hierarchical selection** (:class:`HierarchicalTransport`) — the
  bootstrap address book carries a host identity and an shm nonce per
  rank; a composite transport picks the shared ring for same-host
  peers and the TCP mesh for everyone else, per peer.  The control
  plane stays on TCP: aborts, ``KIND_PEERFAIL``, ``KIND_REVOKE`` and
  the launcher heartbeats.  **A dead peer produces no EOF on a shared
  ring** — the heartbeat plane remains the failure detector; on a
  ``peerfail`` delivery the composite marks the dead peer's channels so
  blocked ring waits unwind with ``ConnectionError``, and the launcher
  sweeps the job's segments so fault-injected runs never leak
  ``/dev/shm`` entries.

Escape hatch: ``REPRO_SHM=0`` disables the shm path entirely (procs-DM
falls back to loopback TCP).  Sizing: ``REPRO_SHM_RING_BYTES`` (frame
ring, default 1 MiB) and ``REPRO_SHM_RNDV_BYTES`` (rendezvous region,
default 4 MiB) — both are recorded in the segment header, so attachers
never need to agree on environment variables.

Atomicity note: the head/tail counters are aligned 8-byte stores
(single ``memcpy`` of 8 bytes in CPython); on x86-64's TSO model the
data write is visible before the index publish.  The counters sit on
separate cache lines to avoid producer/consumer false sharing.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import threading
import time
from multiprocessing import shared_memory

from repro.obs.trace import TRACE
from repro.runtime import envelope as ev
from repro.runtime.envelope import Envelope
from repro.transport.base import Transport
from repro.transport.wire import (RecvPool, WireProtocol, body_nbytes,
                                  wants_rendezvous)
from repro.util import faultinject

__all__ = ["ShmTransport", "HierarchicalTransport", "ShmChannel",
           "ShmSegment", "shm_enabled", "ring_bytes", "rndv_bytes",
           "node_id", "segment_name", "create_inbound", "attach_outbound",
           "shm_world", "unlink_job_segments", "leaked_segments"]

#: default frame-ring capacity (bytes); REPRO_SHM_RING_BYTES overrides.
#: Sized so whole multi-megabyte eager frames fit without streaming —
#: a frame that fits the ring costs exactly one consumer wakeup
DEFAULT_RING_BYTES = 4 << 20
#: default rendezvous-region capacity; REPRO_SHM_RNDV_BYTES overrides
DEFAULT_RNDV_BYTES = 4 << 20

#: segment header: magic(8) | ring_bytes(8) | rndv_bytes(8) |
#: sleeping(1), then the four ring counters each on their own cache
#: line (false sharing)
_MAGIC = b"RPSHM01\x00"
_SZ = struct.Struct("<Q")
_SLEEP_OFF = 24
_FRAME_HEAD_OFF = 64
_FRAME_TAIL_OFF = 128
_RNDV_HEAD_OFF = 192
_RNDV_TAIL_OFF = 256
_DATA_OFF = 320

#: upper bound on one doorbell sleep: the safety net for the unfenced
#: sleeping-flag handshake (see ShmSegment.poke) and the teardown poll
_DOORBELL_TIMEOUT = 0.005

#: pump spin budget before parking on the doorbells: sched_yield on a
#: shared core donates the slice to whoever is runnable, so spinning
#: longer than a couple of slots just thrashes the scheduler
_PUMP_YIELDS = 2

#: backoff shape for blocked ring waits: a few scheduler yields, then
#: exponentially growing sleeps — a blocked side must never burn the
#: core its peer needs to make progress (we may share one core)
_SPIN_YIELDS = 64
_SLEEP_BASE = 50e-6
_SLEEP_MAX = 500e-6


def shm_enabled() -> bool:
    """Is the shared-memory intra-node path enabled? (``REPRO_SHM=0``
    is the escape hatch — procs-DM then stays on loopback TCP.)"""
    return os.environ.get("REPRO_SHM", "1") != "0"


def _env_bytes(name: str, default: int, floor: int) -> int:
    try:
        return max(floor, int(os.environ.get(name, default)))
    except ValueError:
        return default


def ring_bytes() -> int:
    """Frame-ring capacity in bytes (``REPRO_SHM_RING_BYTES``)."""
    return _env_bytes("REPRO_SHM_RING_BYTES", DEFAULT_RING_BYTES, 4096)


def rndv_bytes() -> int:
    """Rendezvous-region capacity in bytes (``REPRO_SHM_RNDV_BYTES``)."""
    return _env_bytes("REPRO_SHM_RNDV_BYTES", DEFAULT_RNDV_BYTES, 4096)


def node_id() -> str:
    """Host identity carried in the bootstrap address book.

    Two ranks share memory iff their node ids match.  The boot id
    disambiguates hostname collisions across machines (containers
    cloned from one image all think they are ``localhost``).
    """
    boot = ""
    try:
        with open("/proc/sys/kernel/random/boot_id") as f:
            boot = f.read().strip()
    except OSError:
        pass
    return f"{socket.gethostname()}:{boot}"


def segment_name(nonce: str, src: int, dst: int) -> str:
    """Name of the segment carrying src->dst traffic (owned by ``dst``)."""
    return f"repro_{nonce}_{src}t{dst}"


# ---------------------------------------------------------------------------
# SPSC byte ring
# ---------------------------------------------------------------------------

class _SpscRing:
    """Single-producer single-consumer byte ring over shared memory.

    ``head`` and ``tail`` are 64-bit monotonic byte counters living in
    the segment's control block; occupancy is ``head - tail`` and the
    data offset is ``counter % capacity``, so wrap-around never needs a
    modular comparison.  Counters are loaded and published through a
    ``cast("Q")`` view of the control block: an item access is one
    aligned 8-byte copy, so the other process never sees a torn value
    (``struct.pack_into`` zero-fills its destination before writing,
    which publishes a transient 0).  Discipline (enforced by the
    ``shm-ring-discipline`` lint rule): only producer-side methods
    (``write*``) store ``head``, only consumer-side methods (``read*``)
    store ``tail``; each side reads the other's counter but never
    writes it.  The segment is zero-filled on creation, so neither side
    initialises the counters.
    """

    __slots__ = ("_ctrl", "_head_off", "_tail_off", "_data", "_cap")

    def __init__(self, ctrl: memoryview, head_off: int, tail_off: int,
                 data: memoryview):
        self._ctrl = ctrl.cast("Q")
        # byte offsets of the counters -> word indexes into ``_ctrl``
        self._head_off = head_off // 8
        self._tail_off = tail_off // 8
        self._data = data
        self._cap = len(data)

    @property
    def capacity(self) -> int:
        return self._cap

    def release(self) -> None:
        """Drop the exported views so the segment mmap can close."""
        self._ctrl.release()
        self._data.release()

    def _load(self, off: int) -> int:
        return self._ctrl[off]

    def _store(self, off: int, value: int) -> None:
        self._ctrl[off] = value

    # -- producer side ------------------------------------------------------
    def write_free(self) -> int:
        """Bytes the producer could write right now without blocking."""
        return self._cap - (self._load(self._head_off)
                            - self._load(self._tail_off))

    def write(self, buf, stall) -> None:
        """Stream ``buf`` into the ring, blocking via ``stall`` on a
        full ring; frames larger than the capacity flow through in
        pieces as the consumer drains."""
        mv = buf if isinstance(buf, memoryview) else memoryview(buf)
        if mv.format != "B":
            mv = mv.cast("B")
        n = len(mv)
        sent = 0
        head = self._load(self._head_off)
        while sent < n:
            free = self._cap - (head - self._load(self._tail_off))
            if free == 0:
                stall()
                continue
            take = min(free, n - sent)
            pos = head % self._cap
            first = min(take, self._cap - pos)
            self._data[pos:pos + first] = mv[sent:sent + first]
            if take > first:
                self._data[:take - first] = mv[sent + first:sent + take]
            sent += take
            head += take
            # data first, then the publish: a consumer that sees the
            # new head is guaranteed to see the bytes (x86-64 TSO)
            self._store(self._head_off, head)
            stall.reset()

    def write_views(self, views, stall) -> int:
        """Vectored write: stream every view into the ring in order.

        A strided frame is thousands of small runs; paying the full
        per-call cost of :meth:`write` for each one dominates the copy
        itself.  This loop hoists the counter loads out of the per-view
        path and publishes ``head`` once per filled stretch — the
        consumer still overlaps (the publish happens before any stall),
        so frames larger than the ring flow through.  Returns the byte
        count written."""
        data, cap = self._data, self._cap
        head = self._load(self._head_off)
        free = cap - (head - self._load(self._tail_off))
        start = head
        for mv in views:
            if not isinstance(mv, memoryview):
                mv = memoryview(mv)
            if mv.format != "B":
                mv = mv.cast("B")
            n = len(mv)
            sent = 0
            while sent < n:
                if free == 0:
                    # let the consumer see everything copied so far,
                    # then wait for drain
                    self._store(self._head_off, head)
                    stall()
                    free = cap - (head - self._load(self._tail_off))
                    if free:
                        stall.reset()
                    continue
                take = free if free < n - sent else n - sent
                pos = head % cap
                first = min(take, cap - pos)
                data[pos:pos + first] = mv[sent:sent + first]
                if take > first:
                    data[:take - first] = mv[sent + first:sent + take]
                sent += take
                head += take
                free -= take
        self._store(self._head_off, head)
        return head - start

    # -- consumer side ------------------------------------------------------
    def read_available(self) -> int:
        """Bytes the consumer could read right now without blocking."""
        return self._load(self._head_off) - self._load(self._tail_off)

    def read_some(self, views, stall) -> int:
        """Fill ``views`` (in order) with whatever is available, blocking
        via ``stall`` until at least one byte lands; returns the count."""
        tail = self._load(self._tail_off)
        while True:
            avail = self._load(self._head_off) - tail
            if avail:
                break
            stall()
        want = sum(len(v) for v in views)
        take = min(avail, want)
        left = take
        for v in views:
            if not left:
                break
            chunk = min(left, len(v))
            pos = tail % self._cap
            first = min(chunk, self._cap - pos)
            v[:first] = self._data[pos:pos + first]
            if chunk > first:
                v[first:chunk] = self._data[:chunk - first]
            tail += chunk
            left -= chunk
        self._store(self._tail_off, tail)
        return take

    def read_exact_views(self, views, stall) -> None:
        """Fill every view completely (the scatter walk: ring bytes land
        run by run in the posted buffer's windows)."""
        i, off = 0, 0
        views = [v for v in views if len(v)]
        while i < len(views):
            head = views[i][off:] if off else views[i]
            got = self.read_some([head] + views[i + 1:], stall)
            stall.reset()
            while got:
                room = len(views[i]) - off
                if got >= room:
                    got -= room
                    i += 1
                    off = 0
                else:
                    off += got
                    got = 0

    def read_discard(self, nbytes: int, stall) -> None:
        """Consume and drop ``nbytes`` (unsinkable rendezvous payload)."""
        tail = self._load(self._tail_off)
        left = nbytes
        while left:
            avail = self._load(self._head_off) - tail
            if not avail:
                stall()
                continue
            take = min(avail, left)
            tail += take
            left -= take
            self._store(self._tail_off, tail)
            stall.reset()


# ---------------------------------------------------------------------------
# segment lifecycle
# ---------------------------------------------------------------------------

def _untrack(shm) -> None:
    """Detach an *attached* segment from this process's resource
    tracker: the attacher does not own the name, and Python < 3.13
    would otherwise unlink it when this process exits."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 - tracker internals vary by version
        pass


class ShmSegment:
    """One directed pair's shared segment: header + frame ring + region.

    Created (and later unlinked) by the receiving rank; the sending
    rank attaches by name.  Capacities are recorded in the header so
    the attacher never needs to agree on environment variables.
    """

    def __init__(self, name: str, create: bool,
                 ring: int | None = None, rndv: int | None = None):
        self.name = name
        self.owner = create
        if create:
            ring = ring if ring is not None else ring_bytes()
            rndv = rndv if rndv is not None else rndv_bytes()
            size = _DATA_OFF + ring + rndv
            self.shm = shared_memory.SharedMemory(name=name, create=True,
                                                  size=size)
            buf = self.shm.buf
            buf[0:8] = _MAGIC
            _SZ.pack_into(buf, 8, ring)
            _SZ.pack_into(buf, 16, rndv)
        else:
            self.shm = shared_memory.SharedMemory(name=name)
            _untrack(self.shm)
            buf = self.shm.buf
            if bytes(buf[0:8]) != _MAGIC:
                self.shm.close()
                raise ValueError(f"shm segment {name} has a bad magic")
            ring = _SZ.unpack_from(buf, 8)[0]
            rndv = _SZ.unpack_from(buf, 16)[0]
        self.ring_bytes = ring
        self.rndv_bytes = rndv
        self._ctrl = buf[:_DATA_OFF]
        self.frame = _SpscRing(buf[:_DATA_OFF], _FRAME_HEAD_OFF,
                               _FRAME_TAIL_OFF,
                               buf[_DATA_OFF:_DATA_OFF + ring])
        self.rndv = _SpscRing(buf[:_DATA_OFF], _RNDV_HEAD_OFF,
                              _RNDV_TAIL_OFF,
                              buf[_DATA_OFF + ring:_DATA_OFF + ring + rndv])
        self._closed = False
        # Doorbell: an abstract-namespace datagram socket named after
        # the segment.  The consumer (owner) binds it and sleeps in
        # select(); producers poke it — but only while the consumer
        # advertises it is asleep, so the steady-state data path makes
        # no syscalls at all.  Abstract names die with the process:
        # nothing to sweep after a SIGKILL.
        self._db_addr = f"\0{name}.db".encode()
        self.doorbell = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        self.doorbell.setblocking(False)
        if create:
            try:
                self.doorbell.bind(self._db_addr)
            except OSError:
                self.shm.close()
                self.shm.unlink()
                raise

    # -- consumer-sleep handshake ------------------------------------------
    def set_sleeping(self) -> None:
        """Consumer: advertise the upcoming doorbell wait.  The caller
        must re-check ring occupancy *after* this store (and before
        sleeping) to close the publish/sleep race."""
        self._ctrl[_SLEEP_OFF] = 1

    def clear_sleeping(self) -> None:
        self._ctrl[_SLEEP_OFF] = 0

    def drain_doorbell(self) -> None:
        """Consumer: swallow queued pokes after a wakeup."""
        while True:
            try:
                self.doorbell.recv(16)
            except (BlockingIOError, OSError):
                return

    def poke(self) -> None:
        """Producer: wake the consumer iff it advertised a sleep.

        The flag store and the ring publish are plain stores (no fence
        between the producer's publish and this load), so an in-flight
        race can miss one poke — the consumer's bounded select timeout
        absorbs that.  The flag is cleared before ringing so a burst of
        publishes costs one datagram, not one per frame."""
        if self._ctrl[_SLEEP_OFF]:
            self._ctrl[_SLEEP_OFF] = 0
            try:
                self.doorbell.sendto(b"\0", self._db_addr)
            except OSError:
                pass   # receiver gone or queue full: either way it wakes

    def close(self) -> None:
        """Release views and unmap; unlink too when this side owns the
        name.  Idempotent, and unlink-by-name always runs even if a
        leaked view keeps the mapping alive."""
        if self._closed:
            return
        self._closed = True
        try:
            self.doorbell.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self.frame.release()
            self.rndv.release()
            self._ctrl.release()
            self.shm.close()
        except BufferError:  # pragma: no cover - leaked view elsewhere
            pass
        if self.owner:
            self.unlink()

    def unlink(self) -> None:
        try:
            self.shm.unlink()   # also unregisters from the tracker
        except (FileNotFoundError, OSError):
            # someone else (launcher sweep, peer tracker) removed the
            # name first; drop our tracker entry so its shutdown scan
            # doesn't report a phantom leak
            _untrack(self.shm)


def create_inbound(nonce: str, rank: int, nprocs: int,
                   ring: int | None = None, rndv: int | None = None) \
        -> dict[tuple[int, int], ShmSegment]:
    """Create this rank's inbound segments (one per possible sender).

    Runs during bootstrap *before* the rank reports its mesh port, so
    by the time the launcher gossips the book every advertised segment
    exists — attachers never race creation.
    """
    segs: dict[tuple[int, int], ShmSegment] = {}
    try:
        for src in range(nprocs):
            if src == rank:
                continue
            segs[(src, rank)] = ShmSegment(
                segment_name(nonce, src, rank), create=True,
                ring=ring, rndv=rndv)
    except Exception:
        for seg in segs.values():
            seg.close()
        raise
    return segs


def attach_outbound(nonce: str, rank: int, peers) \
        -> dict[tuple[int, int], ShmSegment]:
    """Attach the segments owned by same-node ``peers`` for our sends."""
    segs: dict[tuple[int, int], ShmSegment] = {}
    for dst in peers:
        segs[(rank, dst)] = ShmSegment(segment_name(nonce, rank, dst),
                                       create=False)
    return segs


def unlink_job_segments(nonce: str, nprocs: int) -> list[str]:
    """Launcher-side sweep: unlink every segment a job could have
    created (fault-injected workers die by ``os._exit`` and clean up
    nothing).  Returns the names that were actually removed."""
    removed = []
    for src in range(nprocs):
        for dst in range(nprocs):
            if src == dst:
                continue
            name = segment_name(nonce, src, dst)
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            except OSError:  # pragma: no cover - permission races
                continue
            try:
                seg.unlink()   # unregisters the attach's tracker entry
            except (FileNotFoundError, OSError):
                _untrack(seg)
            seg.close()
            removed.append(name)
    return removed


def leaked_segments(nonce: str, nprocs: int) -> list[str]:
    """Job segments still present in ``/dev/shm`` (test assertions)."""
    out = []
    for src in range(nprocs):
        for dst in range(nprocs):
            if src != dst and os.path.exists(
                    f"/dev/shm/{segment_name(nonce, src, dst)}"):
                out.append(segment_name(nonce, src, dst))
    return out


# ---------------------------------------------------------------------------
# channel: a socket-shaped endpoint over one directed pair's rings
# ---------------------------------------------------------------------------

class _Stall:
    """One blocked ring wait: yields, then sleeps with exponential
    backoff; checks teardown/peer-death every pause; registers a
    sanitizer wait-for edge ("blocked on ring space / ring data") once
    the block outlives a probe interval."""

    __slots__ = ("chan", "what", "edge_rank", "edge_peer", "_n", "_bw",
                 "_next_tick")

    def __init__(self, chan: "ShmChannel", what: str,
                 edge: tuple[int, int] | None = None):
        self.chan = chan
        self.what = what
        self.edge_rank, self.edge_peer = edge if edge else (None, None)
        self._n = 0
        self._bw = None
        self._next_tick = 0.0

    def __call__(self) -> None:
        chan = self.chan
        if chan.dead.is_set():
            self.finish()
            raise ConnectionError(
                f"shm peer rank dead ({chan.src}->{chan.dst})")
        closing = chan.closing
        if closing is not None and closing.is_set():
            self.finish()
            raise ConnectionError("peer closed")
        if self.edge_rank is not None:
            # producer-side wait (ring/region full): the consumer may
            # have gone to sleep before we filled it — ring its bell so
            # it comes back and drains
            chan.seg.poke()
        n = self._n
        self._n = n + 1
        if n < _SPIN_YIELDS:
            time.sleep(0)
        else:
            time.sleep(min(_SLEEP_BASE * (1 << min(n - _SPIN_YIELDS, 5)),
                           _SLEEP_MAX))
            if chan.stats is not None:
                chan.stats.add("stall_sleeps")
            self._sanitize_tick()

    def reset(self) -> None:
        """Progress was made: restart the backoff curve."""
        self._n = 0

    def _sanitize_tick(self) -> None:
        san = self.chan.sanitizer
        if san is None or self.edge_rank is None:
            return
        now = time.monotonic()
        if self._bw is None:
            self._bw = san.transport_wait_begin(self.edge_rank,
                                                self.edge_peer, self.what)
            self._next_tick = now + san.probe_interval
            return
        if now >= self._next_tick:
            san.transport_wait_tick(self._bw)
            self._next_tick = now + san.probe_interval

    def finish(self) -> None:
        """Unregister the sanitizer edge (always called on the way out)."""
        if self._bw is not None:
            self.chan.sanitizer.transport_wait_end(self._bw)
            self._bw = None


class ShmChannel:
    """One direction (src -> dst) of a pair: socket-shaped endpoint.

    Exposes exactly the byte-level surface :mod:`repro.transport.wire`
    drives (``sendall`` / ``sendmsg`` / ``recv_into`` /
    ``recvmsg_into``) so the whole eager protocol — framing, header
    peek, direct landing into posted-buffer views — runs unchanged over
    the ring.  The rendezvous region has its own producer/consumer API
    (``write_rndv`` / ``read_rndv_*``), used only by the transport's
    writer thread and pump.  Frame atomicity on the ring comes from the
    transport's per-channel send lock (the single-producer discipline);
    the region's single producer is the writer thread by construction.
    """

    __slots__ = ("seg", "src", "dst", "dead", "closing", "stats",
                 "sanitizer")

    def __init__(self, seg: ShmSegment, src: int, dst: int):
        self.seg = seg
        self.src = src
        self.dst = dst
        #: set when the peer rank is declared failed: a ring has no EOF,
        #: so this flag is how blocked waits learn the peer is gone
        self.dead = threading.Event()
        self.closing: threading.Event | None = None
        self.stats = None
        self.sanitizer = None

    def bind(self, closing: threading.Event, stats, sanitizer=None) -> None:
        self.closing = closing
        self.stats = stats
        self.sanitizer = sanitizer

    def _send_stall(self, what: str) -> _Stall:
        return _Stall(self, what, edge=(self.src, self.dst))

    # -- producer (sender process) -----------------------------------------
    def sendall(self, data) -> None:
        stall = self._send_stall("ring-space")
        try:
            self.seg.frame.write(data, stall)
            self.seg.poke()
        finally:
            stall.finish()

    def sendmsg(self, bufs) -> int:
        """Vectored frame write; returns the full byte count (the ring
        never short-writes — it streams).  The ``shm.ring`` fault site
        sits between the header and the body, so an injected death
        leaves a half-written frame for the survivor to cope with."""
        stall = self._send_stall("ring-space")
        total = 0
        try:
            bufs = list(bufs)
            self.seg.frame.write(bufs[0], stall)
            total += len(bufs[0])
            if len(bufs) > 1:
                faultinject.maybe_fail("shm.ring", self.src)
                total += self.seg.frame.write_views(bufs[1:], stall)
            self.seg.poke()
        finally:
            stall.finish()
        return total

    def write_rndv(self, body) -> None:
        """Stream a rendezvous payload into the region (writer thread)."""
        stall = self._send_stall("rndv-space")
        try:
            if isinstance(body, (list, tuple)):
                self.seg.rndv.write_views(body, stall)
            else:
                self.seg.rndv.write(body, stall)
            self.seg.poke()
        finally:
            stall.finish()

    # -- consumer (receiver process) ---------------------------------------
    def frame_readable(self) -> int:
        return self.seg.frame.read_available()

    def recv_into(self, view) -> int:
        stall = _Stall(self, "ring-data")
        try:
            return self.seg.frame.read_some([view], stall)
        finally:
            stall.finish()

    def recvmsg_into(self, bufs):
        stall = _Stall(self, "ring-data")
        try:
            return (self.seg.frame.read_some(bufs, stall),)
        finally:
            stall.finish()

    def read_rndv_views(self, views) -> None:
        """The rendezvous scatter: region bytes land run by run in the
        posted user buffer's writable views — no staging copy."""
        stall = _Stall(self, "rndv-data")
        try:
            self.seg.rndv.read_exact_views(views, stall)
        finally:
            stall.finish()

    def read_rndv_discard(self, nbytes: int) -> None:
        stall = _Stall(self, "rndv-data")
        try:
            self.seg.rndv.read_discard(nbytes, stall)
        finally:
            stall.finish()


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------

class ShmTransport(WireProtocol, Transport):
    """Shared-ring transport over a set of per-pair channels.

    Hosts one local rank per worker process, or every rank of an
    in-process job (tests, thread backends).  All of the wire protocol
    — eager framing, header-peek direct landing, RTS/CTS, Ssend ACKs,
    sanitizer probes, the writer-thread discipline — is inherited from
    :class:`~repro.transport.wire.WireProtocol`; the channels stand in
    for sockets.  Only the rendezvous *payload* path is overridden: the
    notify frame rides the frame ring, the bytes ride the segment's
    rendezvous region, and the receiver scatters them straight into the
    posted buffer.
    """

    mode = "DM"

    def __init__(self, nprocs: int, local_ranks,
                 channels: dict[tuple[int, int], ShmChannel]):
        Transport.__init__(self, nprocs)
        self.local_ranks = tuple(sorted(set(int(r) for r in local_ranks)))
        self._chan = dict(channels)
        self._clock = {pair: threading.Lock() for pair in self._chan}
        self._closing = threading.Event()
        self._pumps: list[threading.Thread] = []
        self._started = False
        self._sanitizer = None
        self._wire_init(self.local_ranks)
        for chan in self._chan.values():
            chan.bind(self._closing, self.wire_stats)

    # -- wire-protocol routing hooks ---------------------------------------
    def _peer_sock(self, src: int, dst: int):
        return self._chan.get((src, dst))

    def _wants_rendezvous(self, env: Envelope) -> bool:
        """Ring-capacity-aware protocol choice.

        On a wire, rendezvous also bounds the eager-staging copy; on
        shared rings both paths cost the same two copies, so the RTS/CTS
        round trip (two extra cross-process wakeups) only pays for
        itself once the frame cannot sit in the ring whole — flow
        control, not copy avoidance.  Frames that fit stay eager no
        matter what the global threshold says."""
        if not wants_rendezvous(env):
            return False
        chan = self._chan.get((env.src, env.dst))
        if chan is None:
            return True
        return env.payload.nbytes + ev.HEADER_SIZE > chan.seg.ring_bytes

    def _peer_lock(self, src: int, dst: int):
        return self._clock[(src, dst)]

    def set_sanitizer(self, san) -> None:
        """Arm ring waits with the sanitizer's wait-for bookkeeping."""
        self._sanitizer = san
        for chan in self._chan.values():
            chan.sanitizer = san

    def shm_peers(self, rank: int) -> set[int]:
        """Peers this rank can send to over shared memory."""
        return {dst for (src, dst) in self._chan if src == rank}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for rank in self.local_ranks:
            t = threading.Thread(target=self._pump, args=(rank,),
                                 name=f"repro-shmpump-{rank}", daemon=True)
            self._pumps.append(t)
            t.start()
        self._wire_start(name=f"repro-shm-writer-{self.local_ranks[0]}")

    def close(self) -> None:
        if self._closing.is_set():
            return
        self._closing.set()
        self._wire_close()
        for t in self._pumps:
            t.join(timeout=2.0)
        segs = {id(ch.seg): ch.seg for ch in self._chan.values()}
        for seg in segs.values():
            seg.close()

    def mark_peer_dead(self, rank: int) -> None:
        """A peer was declared failed (heartbeat plane): wake every ring
        wait touching it — shared memory has no EOF to notice."""
        for (src, dst), chan in self._chan.items():
            if src == rank or dst == rank:
                chan.dead.set()

    def peer_dead(self, rank: int) -> bool:
        for (src, dst), chan in self._chan.items():
            if (src == rank or dst == rank) and chan.dead.is_set():
                return True
        return False

    # -- sending -----------------------------------------------------------
    def send(self, env: Envelope) -> None:
        if env.dst == env.src and env.src in self.local_ranks:
            deliver = self._deliver[env.dst]
            if deliver is None:
                raise RuntimeError(f"rank {env.dst} has no mailbox attached")
            deliver(env)
            return
        if self._chan.get((env.src, env.dst)) is None:
            raise RuntimeError(f"no shm channel {env.src}->{env.dst}")
        self._wire_send(env)

    def send_oob(self, env: Envelope) -> None:
        """Out-of-band control delivery for waits blocked *inside* the
        transport (a sanitizer probe from a rank stalled on a full ring
        cannot ride that same ring).  In-process peers get a direct
        deliver; anything else is dropped — the probe re-originates
        every tick, so nothing is lost."""
        deliver = self._deliver[env.dst] if env.dst < self.nprocs else None
        if env.dst in self.local_ranks and deliver is not None:
            deliver(env)

    # -- rendezvous payload path (region, not the frame ring) ---------------
    def _writer_loop(self) -> None:
        """Writer thread: control frames verbatim, rendezvous payloads
        into the region.  Mirrors the socket writer's discipline — this
        thread plus rank threads do all ring writing; pumps never do."""
        while True:
            item = self._writeq.get()
            if item is None:
                return
            if isinstance(item, tuple):
                src, dst, header = item
                try:
                    self._framed_send(src, dst, header)
                    self._count(tx_frames=1, tx_bytes=len(header))
                except (OSError, RuntimeError, ConnectionError):
                    if self._closing.is_set():
                        return
                continue
            env = item
            try:
                env.kind = ev.KIND_RNDV_DATA
                header, body = ev.encode(env)
                chan = self._chan.get((env.src, env.dst))
                if chan is None:
                    raise RuntimeError(
                        f"no shm channel {env.src}->{env.dst}")
                nbytes = body_nbytes(body)
                t_flush = TRACE.now() if TRACE.enabled else 0.0
                # Notify first, then stream: the receiver consumes the
                # region while the payload is still landing, so a
                # payload larger than the region flows through it.
                with self._peer_lock(env.src, env.dst):
                    # repro: allow(blocking-under-lock) -- single-writer discipline
                    chan.sendall(header)
                chan.write_rndv(body)
                self._count(tx_frames=1, tx_bytes=len(header) + nbytes)
                if TRACE.enabled:
                    TRACE.span(env.src, "wire.flush", "wire", t_flush,
                               {"dst": env.dst, "bytes": nbytes})
                    st = self._rndv.get(env.src)
                    t0 = None
                    if st is not None:
                        with st.lock:
                            t0 = st.t0.pop(env.seq, None)
                    if t0 is not None:
                        TRACE.span(env.src, "wire.rndv", "wire", t0,
                                   {"dst": env.dst, "seq": env.seq,
                                    "bytes": nbytes})
            except (OSError, RuntimeError, ConnectionError):
                if self._closing.is_set():
                    return
                continue   # peer death surfaces via the failure plane
            if env.on_flushed is not None:
                env.on_flushed()
            if env.mode == ev.MODE_SYNCHRONOUS:
                deliver = self._deliver[env.src]
                if deliver is not None:
                    deliver(Envelope(kind=ev.KIND_ACK, src=env.dst,
                                     dst=env.src, context=env.context,
                                     tag=env.tag, seq=env.seq))

    def _handle_rndv_data(self, rank: int, chan, pool: RecvPool, src: int,
                          tag: int, seq: int, nelems: int,
                          nbytes: int) -> None:
        """Land a rendezvous payload from the region onto its sink."""
        st = self._rndv[rank]
        with st.lock:
            sink = st.sinks.pop((src, seq), None)
        if sink is None:  # pragma: no cover - protocol guarantees a sink
            chan.read_rndv_discard(nbytes)
            return
        t0 = TRACE.now() if TRACE.enabled else 0.0
        if sink.views is not None and body_nbytes(sink.views) == nbytes:
            # the zero-staging path: region -> posted user buffer, every
            # layout run filled in serialization order (scatter walk)
            chan.read_rndv_views(sink.views)
            self._count(rndv_direct_frames=1, rndv_direct_bytes=nbytes)
            if TRACE.enabled:
                TRACE.span(rank, "wire.rndv_land", "wire", t0,
                           {"src": src, "bytes": nbytes, "direct": True})
            sink.posted.req.complete(source_world=src, tag=tag,
                                     count_elements=nelems)
            return
        body = pool.body(nbytes)
        chan.read_rndv_views([body])
        env = ev.decode(pool.header, body)
        env.borrowed = True
        count, error, message = sink.posted.land(env)
        self._count(rndv_staged_frames=1, rndv_staged_bytes=nbytes)
        if TRACE.enabled:
            TRACE.span(rank, "wire.rndv_land", "wire", t0,
                       {"src": src, "bytes": nbytes, "direct": False})
        sink.posted.req.complete(source_world=src, tag=tag,
                                 count_elements=count, error=error,
                                 error_message=message)

    # -- receiving ---------------------------------------------------------
    def _pump(self, rank: int) -> None:
        """Progress thread for ``rank``: drain every inbound ring.

        Spins briefly between frames, then parks in ``select()`` on the
        inbound segments' doorbells — a sleeping pump costs the
        scheduler nothing, which matters when every local rank shares
        one core.  A channel whose producer died mid-frame raises out
        of the blocking read and is abandoned — the failure plane, fed
        by the TCP heartbeats, owns the diagnosis.
        """
        pool = RecvPool()
        chans = [ch for (src, dst), ch in sorted(self._chan.items())
                 if dst == rank and src != rank]
        idle = 0
        while not self._closing.is_set():
            progressed = False
            for chan in chans:
                if chan.dead.is_set():
                    continue
                if chan.frame_readable() < ev.HEADER_SIZE:
                    continue
                try:
                    self._read_frame(rank, chan, pool)
                    progressed = True
                except (ConnectionError, OSError):
                    if self._closing.is_set():
                        return
                    chan.dead.set()
            if progressed:
                idle = 0
                continue
            idle += 1
            if idle < _PUMP_YIELDS:
                time.sleep(0)
                continue
            # advertise the sleep, then re-check occupancy: a producer
            # that published before seeing the flag is caught here, one
            # that published after will poke the doorbell
            live = [ch for ch in chans if not ch.dead.is_set()]
            for chan in live:
                chan.seg.set_sleeping()
            if any(ch.frame_readable() >= ev.HEADER_SIZE for ch in live):
                for chan in live:
                    chan.seg.clear_sleeping()
                idle = 0
                continue
            try:
                ready, _, _ = select.select(
                    [ch.seg.doorbell for ch in live], [], [],
                    _DOORBELL_TIMEOUT)
            except OSError:  # pragma: no cover - teardown closed a fd
                ready = []
            for chan in live:
                chan.seg.clear_sleeping()
            for sock in ready:
                for chan in live:
                    if chan.seg.doorbell is sock:
                        chan.seg.drain_doorbell()
            idle = 0

    def describe(self) -> str:
        return (f"ShmTransport(nprocs={self.nprocs}, "
                f"local={self.local_ranks}, pairs={len(self._chan)})")


def shm_world(nprocs: int, nonce: str | None = None,
              ring: int | None = None, rndv: int | None = None) \
        -> ShmTransport:
    """In-process shm transport hosting every rank (tests, thread mode).

    Creates all pair segments locally; closing the transport unlinks
    them.  The data path is byte-for-byte the one worker processes use
    — same rings, same framing, same region — minus the bootstrap.
    """
    if nonce is None:
        nonce = f"w{os.getpid():x}{int(time.monotonic_ns()) & 0xffffff:x}"
    channels: dict[tuple[int, int], ShmChannel] = {}
    segs: list[ShmSegment] = []
    try:
        for src in range(nprocs):
            for dst in range(nprocs):
                if src == dst:
                    continue
                seg = ShmSegment(segment_name(nonce, src, dst), create=True,
                                 ring=ring, rndv=rndv)
                segs.append(seg)
                channels[(src, dst)] = ShmChannel(seg, src, dst)
    except Exception:
        for seg in segs:
            seg.close()
        raise
    return ShmTransport(nprocs, range(nprocs), channels)


# ---------------------------------------------------------------------------
# hierarchical composite
# ---------------------------------------------------------------------------

#: kinds that must stay on TCP even for shm peers: teardown and failure
#: notifications may not block behind a wedged ring (a dead consumer
#: never drains it), and PR 9's detection latency depends on them
_TCP_ONLY_KINDS = frozenset((ev.KIND_ABORT, ev.KIND_PEERFAIL,
                             ev.KIND_REVOKE))


class HierarchicalTransport(Transport):
    """Per-peer transport selection: shared rings within the host, the
    TCP mesh across hosts — chosen from the bootstrap address book.

    Data-plane kinds (DATA, RTS, ACK, sanitizer probes) ride shm for
    same-host peers, preserving the per-pair FIFO the matching order
    depends on; everything else — and every remote peer — rides TCP.
    The control plane (abort/peerfail/revoke broadcasts, launcher
    heartbeats) never leaves TCP: a dead peer produces no EOF on a
    shared ring, so the heartbeat plane must stay the detector.  A
    ``KIND_PEERFAIL`` delivery is observed on its way to the mailbox
    and poisons the dead peer's ring channels, unblocking stalled
    waits.
    """

    mode = "DM"

    def __init__(self, nprocs: int, rank: int, tcp: Transport,
                 shm: ShmTransport | None):
        super().__init__(nprocs)
        self.rank = int(rank)
        self.tcp = tcp
        self.shm = shm
        self._shm_peers = shm.shm_peers(self.rank) if shm is not None \
            else set()

    # -- engine wiring: fan out to both legs --------------------------------
    def set_deliver(self, rank: int, fn) -> None:
        super().set_deliver(rank, fn)
        wrapped = self._observe_failures(fn)
        self.tcp.set_deliver(rank, wrapped)
        if self.shm is not None:
            self.shm.set_deliver(rank, wrapped)

    def set_direct_claim(self, rank: int, fn) -> None:
        super().set_direct_claim(rank, fn)
        self.tcp.set_direct_claim(rank, fn)
        if self.shm is not None:
            self.shm.set_direct_claim(rank, fn)

    def set_sanitizer(self, san) -> None:
        if self.shm is not None:
            self.shm.set_sanitizer(san)

    def _observe_failures(self, fn):
        def deliver(env: Envelope) -> None:
            if env.kind == ev.KIND_PEERFAIL and self.shm is not None:
                # no EOF exists on a ring: poison the dead peer's
                # channels here so blocked sends/reads unwind
                self.shm.mark_peer_dead(env.src)
            fn(env)
        return deliver

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self.tcp.start()
        if self.shm is not None:
            self.shm.start()

    def close(self) -> None:
        if self.shm is not None:
            self.shm.close()
        self.tcp.close()

    # -- routing -----------------------------------------------------------
    def send(self, env: Envelope) -> None:
        shm = self.shm
        if (shm is not None and env.dst in self._shm_peers
                and env.dst != self.rank
                and env.kind not in _TCP_ONLY_KINDS
                and not shm.peer_dead(env.dst)):
            shm.send(env)
            return
        self.tcp.send(env)

    def send_oob(self, env: Envelope) -> None:
        """Probes from transport-level waits bypass the (possibly
        wedged) rings entirely: TCP always has an independent path."""
        self.tcp.send(env)

    def broadcast_control(self, env: Envelope) -> None:
        # teardown fan-out must not depend on ring space
        self.tcp.broadcast_control(env)

    # -- introspection -----------------------------------------------------
    @property
    def wire_stats(self):
        """The TCP leg's counters (remote/control traffic); the shm
        leg's live under ``.shm.wire_stats``."""
        return self.tcp.wire_stats

    def describe(self) -> str:
        n_shm = len(self._shm_peers)
        return (f"HierarchicalTransport(rank={self.rank}, "
                f"shm_peers={n_shm}, tcp_peers="
                f"{self.nprocs - 1 - n_shm})")
