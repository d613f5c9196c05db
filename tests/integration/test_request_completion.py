"""Request completion at depth: registries drain, failures walk, and a
self message pair stays inside a deterministic cost budget.

Requests share one wait primitive per rank and an armed request sits in
the universe's ``failure_scopes`` registry only until it completes.
These tests hold that design to account end to end:

* the registry (and the abort-listener list) is empty after a 4096-deep
  self window and after receives whose message was already unexpected
  when they were posted;
* a peer death fails 4096 outstanding receives, and a restarted
  persistent receive, with ``ERR_PROC_FAILED`` in bounded time;
* one 8 B ``Isend`` + ``Recv`` + ``Wait`` to self on ``inproc`` creates
  no lock, event or condition and makes a fixed number of Python calls
  into ``repro`` (counted with ``sys.setprofile``, so noise-free).
"""

from __future__ import annotations

import collections
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro import mpirun
from repro.errors import ERR_PROC_FAILED, MPIException
from repro.executor.runner import RankFailure
from repro.mpijava import MPI, Request
from repro.runtime.engine import current_runtime
from repro.util.faultinject import SimulatedRankDeath

from tests.conftest import run

DEPTH = 4096

#: Python calls into ``repro`` for one self 8 B Isend+Recv+Wait pair
#: through the OO layer (measured after the flattening of request
#: completion; the per-request lock/event design made 150)
PAIR_CALL_BUDGET = 127


def test_failure_scope_registry_drains_at_depth():
    def body():
        w = MPI.COMM_WORLD
        u = current_runtime().universe
        sbuf = np.arange(DEPTH, dtype=np.int64)
        rbuf = np.zeros(DEPTH, dtype=np.int64)
        # receives first: each one is armed, then matched by its send
        reqs = [w.Irecv(rbuf, i, 1, MPI.LONG, 0, i) for i in range(DEPTH)]
        armed = len(u.failure_scopes)
        reqs += [w.Isend(sbuf, i, 1, MPI.LONG, 0, i) for i in range(DEPTH)]
        Request.Waitall(reqs)
        assert (rbuf == sbuf).all()
        # sends first: every receive finds its message in the
        # unexpected queue and completes before it could be armed
        rbuf[:] = 0
        reqs = [w.Isend(sbuf, i, 1, MPI.LONG, 0, i) for i in range(DEPTH)]
        reqs += [w.Irecv(rbuf, i, 1, MPI.LONG,
                         MPI.ANY_SOURCE if i % 2 else 0, i)
                 for i in range(DEPTH)]
        Request.Waitall(reqs)
        assert (rbuf == sbuf).all()
        return armed, len(u.failure_scopes), len(u._abort_listeners)

    assert run(1, body) == [(DEPTH, 0, 0)]


def _depth_failure_body():
    """Rank 0 posts DEPTH receives from rank 1, which then dies."""
    MPI.Init([])
    w = MPI.COMM_WORLD
    w.Errhandler_set(MPI.ERRORS_RETURN)
    one = np.ones(1, dtype=np.int32)
    if w.Rank() == 1:
        w.Send(one, 0, 1, MPI.INT, 0, DEPTH)        # persistent cycle 1
        w.Recv(one, 0, 1, MPI.INT, 0, DEPTH + 1)    # rank 0 is posted
        MPI.Finalize()                  # REPRO_FAULT kills rank 1 here
        return
    u = current_runtime().universe
    pbuf = np.zeros(1, dtype=np.int32)
    pers = w.Recv_init(pbuf, 0, 1, MPI.INT, 1, DEPTH)
    pers.Start()
    pers.Wait()
    assert pbuf[0] == 1
    pers.Start()                        # re-arms its failure scope
    rbuf = np.zeros(DEPTH, dtype=np.int32)
    reqs = [w.Irecv(rbuf, i, 1, MPI.INT, 1, i) for i in range(DEPTH)]
    # + rank 1's pending Recv: thread ranks share one universe
    assert len(u.failure_scopes) == DEPTH + 2
    w.Send(one, 0, 1, MPI.INT, 1, DEPTH + 1)
    t0 = time.monotonic()
    codes = collections.Counter()
    for r in reqs + [pers]:
        try:
            r.Wait()
        except MPIException as exc:
            codes[exc.error_code] += 1
    elapsed = time.monotonic() - t0
    assert codes == {ERR_PROC_FAILED: DEPTH + 1}, codes
    # the walk visits each armed request once: bounded, not O(DEPTH^2)
    assert elapsed < 5.0, elapsed
    assert not u.failure_scopes
    MPI.Finalize()


def test_peer_death_fails_every_outstanding_receive(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "finalize:1")
    with pytest.raises(RankFailure) as ei:
        mpirun(2, _depth_failure_body, transport="inproc", timeout=60.0)
    failures = ei.value.failures
    # only the injected death: rank 0's assertions all held
    assert set(failures) == {1}, failures
    assert isinstance(failures[1], SimulatedRankDeath), failures


# -- deterministic count gate -------------------------------------------------

_REPRO_DIR = os.path.dirname(repro.__file__)
#: Python-level constructors of threading primitives (Lock itself is a
#: C function, seen as a ``c_call`` event)
_PRIMITIVE_CODES = {threading.Condition.__init__.__code__,
                    threading.Event.__init__.__code__,
                    threading.RLock.__code__}


def _profile(fn):
    """Run ``fn`` under ``sys.setprofile``: (calls into repro by module,
    synchronization primitives created)."""
    calls: collections.Counter = collections.Counter()
    prims = []

    def prof(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in _PRIMITIVE_CODES:
                prims.append(code.co_qualname)
            elif code.co_filename.startswith(_REPRO_DIR):
                calls[os.path.relpath(code.co_filename, _REPRO_DIR)] += 1
        elif event == "c_call" and arg is threading.Lock:
            prims.append("Lock")

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, prims


@pytest.mark.skipif(os.environ.get("REPRO_SANITIZE") == "1",
                    reason="the sanitizer adds checks (and their calls "
                           "and locks) by design; the budget is for the "
                           "default path")
def test_self_pair_call_and_primitive_budget():
    def body():
        w = MPI.COMM_WORLD
        sbuf = np.array([42], dtype=np.int64)
        rbuf = np.zeros(1, dtype=np.int64)

        def pair():
            req = w.Isend(sbuf, 0, 1, MPI.LONG, 0, 7)
            w.Recv(rbuf, 0, 1, MPI.LONG, 0, 7)
            req.Wait()

        for _ in range(3):      # warm every lazy cache first
            pair()
        calls, prims = _profile(pair)
        assert rbuf[0] == 42
        return calls, prims

    [(calls, prims)] = run(1, body)
    # both requests complete before their wait: no lock, no event
    assert prims == [], prims
    total = sum(calls.values())
    assert total <= PAIR_CALL_BUDGET, \
        f"{total} calls > budget {PAIR_CALL_BUDGET}: {dict(calls)}"
