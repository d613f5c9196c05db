"""Rank-side half of the benchmark: the probes every workload runs.

``rank_main`` is the SPMD body handed to ``repro.mpirun`` (thread ranks)
or ``repro.procrun`` (process ranks).  Process workers re-import this
file by path, so it defines functions only and runs nothing on import.

Rank 0 drives the job in rounds.  At the top of each round it broadcasts
whether another round follows (outside every timed interval), then every
probe runs one block of its operations.  Interleaving the probes in
rounds spreads each one over the whole run, so a stretch of slow
scheduling on the shared box shifts every metric a little instead of
one metric a lot.

Probes (payloads all derive from the seed):

* ``call``     rank 0 sends 8 B to itself: Isend + Recv + Wait.
* ``window``   rank 0 posts ``depth`` receives from itself, sends
               ``depth`` messages, completes the receives in reverse.
* ``pp8`` / ``pp1m``  8 B / 1 MiB round trips between ranks 0 and 1
               (blocking Send/Recv); with one rank the partner is
               rank 0 itself and each leg is Isend + Recv + Wait.
* ``halo``     Jacobi steps on a 256 x 256 grid split by columns: two
               Sendrecv of a strided Vector column, a numpy sweep and
               an 8 B Allreduce(MAX) of the residual.

Every received payload is checked outside the timed interval; a
mismatch is counted as a failed operation with its cause.
"""

from __future__ import annotations

import resource
import time
import zlib

import numpy as np

from repro.mpijava import MPI

GRID = 256
SMALL, LARGE = 8, 1 << 20
POOL = 8            # distinct random payloads per size, used in turn
WINDOW = 4096       # receives posted at once by the window probe
MIN_ROUNDS = 2
TAG_CALL, TAG_PING, TAG_PONG, TAG_EAST, TAG_WEST = 1, 2, 3, 4, 5
MAX_CAUSES = 20


class Ledger:
    """Attempts, failures and their causes for one rank."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: list[str] = []

    def tally(self, attempted: int, causes: list[str]) -> None:
        """Count ``attempted`` operations, one failed per cause."""
        self.attempted += attempted
        self.failed += len(causes)
        self.causes.extend(causes[:MAX_CAUSES - len(self.causes)])

    def check(self, ok: bool, cause: str) -> None:
        self.tally(1, [] if ok else [cause])


class Corruptor:
    """Flips one byte of the first payload handed to it, when armed.

    Stands in for a transport that corrupts data in flight, so the
    benchmark's own tests can show that its checks catch it.
    """

    def __init__(self, armed: bool):
        self.armed = armed

    def __call__(self, arr: np.ndarray) -> None:
        if self.armed:
            arr.view(np.uint8)[arr.nbytes // 2] ^= 0xFF
            self.armed = False


def payload_pool(seed: int, nbytes: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, nbytes])
    return [rng.integers(0, 256, nbytes, dtype=np.uint8).view(np.int8)
            for _ in range(POOL)]


def initial_field(seed: int) -> np.ndarray:
    """Global 256 x 256 start field: random interior, fixed boundary."""
    rng = np.random.default_rng([seed, GRID])
    u = rng.random((GRID, GRID))
    u[0, :] = 1.0
    u[-1, :] = 0.0
    u[:, 0] = 0.5
    u[:, -1] = 0.25
    return u


def sweep(u: np.ndarray, out: np.ndarray, first: int, last: int) -> float:
    """One Jacobi update of columns ``first:last`` (rows 1..GRID-2).

    Shared by the ranks and the serial reference, so both do the same
    arithmetic on every point and must agree bitwise.
    """
    c = slice(first, last)
    new = 0.25 * (u[:-2, c] + u[2:, c]
                  + u[1:-1, first - 1:last - 1] + u[1:-1, first + 1:last + 1])
    resid = float(np.max(np.abs(new - u[1:-1, c])))
    out[1:-1, c] = new
    return resid


def serial_halo(seed: int, steps: int) -> tuple[np.ndarray, list[float]]:
    """The same Jacobi steps on one array: the reference for ``halo``."""
    u = initial_field(seed)
    v = u.copy()
    resid = []
    for _ in range(steps):
        resid.append(sweep(u, v, 1, GRID - 1))
        u, v = v, u
    return u, resid


class Probes:
    """One rank's probe state: buffers, samples, counters, ledger."""

    def __init__(self, cfg: dict):
        self.world = MPI.COMM_WORLD
        self.rank = self.world.Rank()
        self.size = self.world.Size()
        self.ledger = Ledger()
        # one rank corrupts, so one byte goes bad per launch
        self.corrupt = Corruptor(cfg.get("corrupt", False)
                                 and self.rank == self.size - 1)
        seed = cfg["seed"]
        self.small = payload_pool(seed, SMALL)
        self.large = payload_pool(seed, LARGE)
        self.crc = {n: [zlib.crc32(p) for p in pool]
                    for n, pool in ((SMALL, self.small), (LARGE, self.large))}
        self.rbuf = {SMALL: np.zeros(SMALL, np.int8),
                     LARGE: np.zeros(LARGE, np.int8)}
        self.samples: dict[str, list[float]] = {}
        #: called after every call, round trip and step (traced run)
        self.on_op = None
        self._halo_init(seed)

    def record(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- call: depth-1 self message -----------------------------------------
    def call(self, n: int) -> None:
        if self.rank != 0:
            return
        w, buf = self.world, self.rbuf[SMALL]
        for i in range(n):
            src = self.small[i % POOL]
            t0 = time.perf_counter()
            req = w.Isend(src, 0, SMALL, MPI.BYTE, 0, TAG_CALL)
            w.Recv(buf, 0, SMALL, MPI.BYTE, 0, TAG_CALL)
            req.Wait()
            t1 = time.perf_counter()
            self.record("call", t1 - t0)
            self.corrupt(buf)
            self.ledger.check(np.array_equal(buf, src),
                              f"call: self message {i} payload mismatch")
            if self.on_op:
                self.on_op()

    # -- window: many receives posted first, completed in reverse ------------
    def window(self, depth: int = WINDOW, key: str = "window") -> None:
        if self.rank != 0:
            return
        w = self.world
        sbuf = self.large[1][:depth * SMALL]
        rbuf = np.zeros(depth * SMALL, np.int8)
        t0 = time.perf_counter()
        recvs = [w.Irecv(rbuf, i * SMALL, SMALL, MPI.BYTE, 0, i)
                 for i in range(depth)]
        sends = [w.Isend(sbuf, i * SMALL, SMALL, MPI.BYTE, 0, i)
                 for i in range(depth)]
        for req in reversed(recvs):
            req.Wait()
        for req in reversed(sends):
            req.Wait()
        t1 = time.perf_counter()
        self.record(key, t1 - t0)
        self.corrupt(rbuf)
        got = rbuf.reshape(depth, SMALL)
        want = sbuf.reshape(depth, SMALL)
        bad = np.flatnonzero((got != want).any(axis=1))
        self.ledger.tally(depth, [f"{key}: tag {t} payload mismatch"
                                  for t in bad])

    # -- pingpong ----------------------------------------------------------
    def _leg(self, src, dst, nbytes, tag) -> None:
        """One leg of a round trip with rank 0 as its own partner."""
        req = self.world.Isend(src, 0, nbytes, MPI.BYTE, 0, tag)
        self.world.Recv(dst, 0, nbytes, MPI.BYTE, 0, tag)
        req.Wait()

    def pingpong(self, nbytes: int, n: int) -> None:
        w = self.world
        pool, crcs = (self.small, self.crc[SMALL]) if nbytes == SMALL \
            else (self.large, self.crc[LARGE])
        buf = self.rbuf[nbytes]
        key = "pp8" if nbytes == SMALL else "pp1m"
        if self.size == 1:
            echo = np.empty_like(buf)
        for i in range(n):
            src = pool[i % POOL]
            if self.rank == 0:
                t0 = time.perf_counter()
                if self.size == 1:
                    self._leg(src, buf, nbytes, TAG_PING)
                    self._leg(buf, echo, nbytes, TAG_PONG)
                    got = echo
                else:
                    w.Send(src, 0, nbytes, MPI.BYTE, 1, TAG_PING)
                    w.Recv(buf, 0, nbytes, MPI.BYTE, 1, TAG_PONG)
                    got = buf
                t1 = time.perf_counter()
                self.record(key, t1 - t0)
                self.corrupt(got)
                self.ledger.check(zlib.crc32(got) == crcs[i % POOL],
                                  f"{key}: round trip {i} checksum mismatch")
            elif self.rank == 1:
                w.Recv(buf, 0, nbytes, MPI.BYTE, 0, TAG_PING)
                self.corrupt(buf)
                w.Send(buf, 0, nbytes, MPI.BYTE, 0, TAG_PONG)
                self.ledger.check(zlib.crc32(buf) == crcs[i % POOL],
                                  f"{key}: ping {i} checksum mismatch")
            if self.on_op:
                self.on_op()

    # -- halo: Jacobi on a column split ------------------------------------
    def _halo_init(self, seed: int) -> None:
        ncol = GRID // self.size
        self.col0 = self.rank * ncol
        self.ld = ncol + 2
        u = np.zeros((GRID, self.ld))
        lo, hi = max(self.col0 - 1, 0), min(self.col0 + ncol + 1, GRID)
        u[:, lo - self.col0 + 1:hi - self.col0 + 1] = \
            initial_field(seed)[:, lo:hi]
        self.u, self.v = u, u.copy()
        # interior columns this rank updates (global boundary stays fixed)
        self.first = 2 if self.rank == 0 else 1
        self.last = ncol if self.rank == self.size - 1 else ncol + 1
        self.column = MPI.DOUBLE.Vector(GRID, 1, self.ld).Commit()
        self.east = self.rank + 1 if self.rank + 1 < self.size \
            else MPI.PROC_NULL
        self.west = self.rank - 1 if self.rank > 0 else MPI.PROC_NULL
        self.resid: list[float] = []
        self.steps = 0

    def halo(self, n: int) -> None:
        w, col, ld = self.world, self.column, self.ld
        local = np.zeros(1)
        glob = np.zeros(1)
        for _ in range(n):
            flat = self.u.reshape(-1)
            t0 = time.perf_counter()
            # last interior column east, west ghost column from the west
            w.Sendrecv(flat, ld - 2, 1, col, self.east, TAG_EAST,
                       flat, 0, 1, col, self.west, TAG_EAST)
            if self.steps == 0:
                # the west ghost just received, or with one rank a
                # boundary column: either way the field must diverge
                self.corrupt(self.u[:, 0 if self.rank else 1])
            w.Sendrecv(flat, 1, 1, col, self.west, TAG_WEST,
                       flat, ld - 1, 1, col, self.east, TAG_WEST)
            t1 = time.perf_counter()
            local[0] = sweep(self.u, self.v, self.first, self.last)
            t2 = time.perf_counter()
            w.Allreduce(local, 0, glob, 0, 1, MPI.DOUBLE, MPI.MAX)
            t3 = time.perf_counter()
            self.u, self.v = self.v, self.u
            self.resid.append(float(glob[0]))
            self.steps += 1
            self.record("step", t3 - t0)
            self.record("sendrecv", (t1 - t0) / 2)
            self.record("compute", t2 - t1)
            self.record("allreduce", t3 - t2)
            self.record("comm_share", (t1 - t0 + t3 - t2) / (t3 - t0))
            if self.on_op:
                self.on_op()

    def halo_result(self) -> dict:
        """Owned columns and residual history, for the serial check."""
        ncol = GRID // self.size
        return {"col0": self.col0, "cols": self.u[:, 1:ncol + 1].copy(),
                "resid": self.resid, "steps": self.steps}


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(p: Probes, plan: dict, seconds: float) -> None:
    """Run rounds of every probe until ``seconds`` have passed on rank 0
    (and at least ``MIN_ROUNDS``)."""
    flag = np.zeros(1, np.int32)
    end = time.monotonic() + seconds
    rounds = 0
    while True:
        if p.rank == 0:
            flag[0] = rounds < MIN_ROUNDS or time.monotonic() < end
        p.world.Bcast(flag, 0, 1, MPI.INT, 0)
        if not flag[0]:
            return
        p.call(plan["call"])
        for _ in range(plan["window"]):
            p.window()
        p.pingpong(SMALL, plan["pp8"])
        p.pingpong(LARGE, plan["pp1m"])
        p.halo(plan["halo"])
        rounds += 1


def rank_main(cfg: dict) -> dict:
    """SPMD body for one benchmark launch; see the module docstring."""
    t_entry = time.monotonic()
    MPI.Init([])
    t_init = time.monotonic()
    out: dict = {"rank": MPI.COMM_WORLD.Rank(), "t_entry": t_entry,
                 "t_init": t_init}
    if cfg["mode"] == "setup":
        MPI.COMM_WORLD.Barrier()
        out["t_fin"] = time.monotonic()
        MPI.Finalize()
        out["rss_mb"] = rss_mb()
        return out
    p = Probes(cfg)
    wire0 = carrier_bytes()
    if cfg["mode"] == "measure":
        run_rounds(p, cfg["plan"], cfg["seconds"])
    elif cfg["mode"] == "trace":
        from layers import trace_probes
        out["trace"] = trace_probes(p, cfg)
    wire1 = carrier_bytes()
    out["carrier"] = {k: wire1[k] - wire0.get(k, 0) for k in wire1}
    out["samples"] = p.samples
    out["halo"] = p.halo_result()
    out["attempted"] = p.ledger.attempted
    out["failed"] = p.ledger.failed
    out["causes"] = p.ledger.causes
    p.world.Barrier()
    out["t_fin"] = time.monotonic()
    MPI.Finalize()
    out["rss_mb"] = rss_mb()
    return out


# -- which carrier each peer's data crossed -------------------------------------

def _legs():
    """(name, wire counter group) for each carrier under this rank."""
    from repro.runtime.engine import current_runtime
    tr = current_runtime().universe.transport
    legs = []
    for name, leg in (("shm", getattr(tr, "shm", None)),
                      ("tcp", getattr(tr, "tcp", None))):
        if leg is not None:
            legs.append((name, leg.wire_stats))
    if not legs:
        stats = getattr(tr, "wire_stats", None)
        name = "tcp" if stats is not None else type(tr).__name__
        legs.append((name, stats))
    return legs


def carrier_bytes() -> dict[str, int]:
    return {name: (stats["tx_bytes"] if stats is not None else 0)
            for name, stats in _legs()}
