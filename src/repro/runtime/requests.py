"""Request state machine for non-blocking and persistent communication.

A :class:`RequestImpl` is the runtime object behind the OO layer's
``Request``/``Prequest``.  Completion may happen in another thread (the
one that delivers the envelope), so its state is guarded by the lock of
the owning rank's :class:`Progress` — one wait primitive per rank, as in
the MPICH/libNBC progress engine, and no lock or event per request.  A
blocked wait sleeps on that primitive's condition; the completion of a
request it watches, or a job abort, wakes it.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.errors import (MPIException, ProcFailedException,
                          RevokedException, ERR_PENDING, ERR_PROC_FAILED,
                          ERR_REQUEST, ERR_REVOKED, SUCCESS)


class Progress:
    """One rank's wait primitive: guards its requests' state, wakes its
    blocked waits."""

    __slots__ = ("lock", "cond")

    def __init__(self):
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)

    def wake(self) -> None:
        """Wake every wait blocked on this rank (job abort)."""
        with self.lock:
            self.cond.notify_all()

    def sleep_until(self, watched: list, ready: Callable, timeout=None):
        """Sleep until ``ready()`` (run under the lock; it may raise the
        job abort) is truthy or ``timeout`` expires; returns it.
        ``watched`` requests notify on completion while it sleeps."""
        with self.lock:
            for r in watched:
                r._waiters += 1
            try:
                return self.cond.wait_for(ready, timeout)
            finally:
                for r in watched:
                    r._waiters -= 1


#: requests built outside a rank (unit tests, tools) share this one
_DETACHED = Progress()


class RequestImpl:
    """One outstanding communication operation."""

    KIND_SEND = "send"
    KIND_RECV = "recv"
    #: sanitizer send-buffer verifier (see _sanitize_completion_checks)
    sanitize_verify_send = None

    def __init__(self, universe, kind: str,
                 progress: Progress | None = None):
        self.universe = universe
        self.kind = kind
        self._progress = progress or _DETACHED
        #: blocked waits watching this request (guarded by the primitive)
        self._waiters = 0
        self._listeners: list[Callable[[], None]] | None = None
        self.done = False
        self.cancelled = False
        self.error = SUCCESS
        self.error_message = ""
        # status fields (world-rank source; the OO layer translates)
        self.status_source_world = -1
        self.status_tag = -1
        self.count_elements = 0
        # persistent-request machinery
        self.persistent = False
        self.active = True           # inactive persistent requests await Start
        self._restart: Optional[Callable[[], None]] = None
        self.persistent_inner: Optional["RequestImpl"] = None
        # ULFM failure scope (see arm_failure_scope)
        self._ft_armed = False
        self._ft_contexts: tuple = ()
        self._ft_peers: tuple = ()
        self._ft_mailbox = None
        self.ft_failed_rank = -1
        self.ft_revoked_context = -1
        san = getattr(universe, "sanitizer", None)
        if san is not None:
            san.note_request(self)

    # -- completion (called by mailbox / engine threads) ---------------------
    def complete(self, source_world: int = -1, tag: int = -1,
                 count_elements: int = 0, error: int = SUCCESS,
                 error_message: str = "", cancelled: bool = False) -> None:
        progress = self._progress
        with progress.lock:
            if self.done:
                return
            self.done = True
            self.cancelled = cancelled
            self.status_source_world = source_world
            self.status_tag = tag
            self.count_elements = count_elements
            self.error = error
            self.error_message = error_message
            listeners = self._listeners
            self._listeners = None
            if self._waiters:
                progress.cond.notify_all()
        if self._ft_armed:
            self._ft_armed = False
            self.universe.failure_scopes.pop(id(self), None)
        for fn in listeners or ():
            fn()

    def complete_cancelled(self) -> None:
        self.complete(cancelled=True)

    def add_listener(self, fn: Callable[[], None]) -> bool:
        """Register a completion callback; fired immediately if done.

        Returns True if the request was already complete.
        """
        with self._progress.lock:
            if not self.done:
                if self._listeners is None:
                    self._listeners = []
                self._listeners.append(fn)
                return False
        fn()
        return True

    # -- ULFM failure scope ----------------------------------------------------
    def arm_failure_scope(self, contexts=(), peers=(),
                          mailbox=None) -> None:
        """Fail this request if a watched peer dies or context is revoked.

        ``peers`` are the world ranks whose death makes the operation
        undeliverable (the matched source, or every other group member
        for ``ANY_SOURCE`` / collectives); ``contexts`` are the context
        ids whose revocation cancels it.  The request enters the
        universe's ``failure_scopes`` registry until it completes; the
        check runs once now (the event may predate the request) and
        again on every failure-plane event.  An affected request
        *completes with the error code*, so the normal Wait/Test path
        surfaces ``ERR_PROC_FAILED`` / ``ERR_REVOKED`` through the
        communicator's error handler.
        """
        self._ft_contexts = tuple(contexts)
        self._ft_peers = tuple(peers)
        if mailbox is not None:
            self._ft_mailbox = mailbox
        u = self.universe
        self._ft_armed = True
        u.failure_scopes[id(self)] = self
        if self.done:   # completed while arming, maybe before the entry
            u.failure_scopes.pop(id(self), None)
        elif u.failed_ranks or u.revoked_contexts:
            self.fail_if_affected()

    def fail_if_affected(self) -> None:
        if self.done:
            return
        u = self.universe
        for ctx in self._ft_contexts:
            if ctx in u.revoked_contexts:
                self.ft_revoked_context = ctx
                self._fail_now(ERR_REVOKED,
                               f"communicator (context {ctx}) was revoked")
                return
        for peer in self._ft_peers:
            if peer in u.failed_ranks:
                self.ft_failed_rank = peer
                self._fail_now(ERR_PROC_FAILED, f"rank {peer} failed")
                return

    def _fail_now(self, error: int, message: str) -> None:
        # a failed receive leaves its PostedRecv behind: pull it out of
        # the matching queues so it cannot consume a later message (and
        # the Finalize audit doesn't see a phantom leak)
        mb = self._ft_mailbox
        if mb is not None:
            mb.discard_posted(self)
        self.complete(error=error, error_message=message)

    # -- waiting --------------------------------------------------------------
    def _settled(self) -> bool:
        if self.done:
            return True
        self.universe.check_abort()     # raises once the job is poisoned
        return False

    def block(self, timeout: float | None = None) -> bool:
        """Sleep on the rank's primitive until this request completes;
        raises the job abort, returns False only if ``timeout`` expires."""
        return self._progress.sleep_until((self,), self._settled, timeout)

    def wait(self) -> None:
        """Block until complete; raise on communication error or job abort
        (no poll tick: the abort wakes the rank's primitive).  A completed
        request reports its own outcome even if the job aborted later."""
        if not self.done:
            san = getattr(self.universe, "sanitizer", None)
            if san is not None:     # deadlock probing (REPRO_SANITIZE=1)
                san.sanitized_wait(self)
            else:
                self.block()
            if not self.done:
                self.universe.check_abort()
        if self.sanitize_verify_send is not None:
            self._sanitize_completion_checks()
        self.raise_if_error()

    def test(self) -> bool:
        if self.done:
            if self.sanitize_verify_send is not None:
                self._sanitize_completion_checks()
            self.raise_if_error()
            return True
        self.universe.check_abort()
        return False

    def _sanitize_completion_checks(self) -> None:
        """Run sanitizer verifiers pinned to completion observation.

        The MPI moment a send buffer returns to user ownership is the
        Wait/Test that *observes* completion — so the buffer-mutation
        checksum fires here, once, on every backend alike.
        """
        verify = self.sanitize_verify_send
        self.sanitize_verify_send = None
        verify()

    def raise_if_error(self) -> None:
        if self.error != SUCCESS:
            if self.error == ERR_PROC_FAILED:
                exc = ProcFailedException(self.ft_failed_rank,
                                          self.error_message)
                cause = self.universe.failed_ranks.get(self.ft_failed_rank)
                if cause is not None:
                    exc.__cause__ = cause
                raise exc
            if self.error == ERR_REVOKED:
                raise RevokedException(self.ft_revoked_context,
                                       self.error_message)
            raise MPIException(self.error, self.error_message)

    # -- persistent requests ----------------------------------------------------
    def make_persistent(self, restart: Callable[[], None]) -> None:
        self.persistent = True
        self.active = False
        self._restart = restart

    def start(self) -> None:
        """(Re)activate a persistent request (``MPI_Start``)."""
        if not self.persistent:
            raise MPIException(ERR_REQUEST, "Start on a non-persistent "
                                            "request")
        if self.active and not self.done:
            raise MPIException(ERR_PENDING, "Start on an active persistent "
                                            "request")
        with self._progress.lock:
            self.done = False
            self.cancelled = False
            self.error = SUCCESS
            self.error_message = ""
            self.active = True
        self._restart()     # the new inner request arms its own scope

    def deactivate(self) -> None:
        """Wait/Test on a completed persistent request deactivates it."""
        self.active = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "pending"
        return f"RequestImpl({self.kind}, {state})"


def wait_any(requests: list[Optional[RequestImpl]], universe) -> int:
    """``MPI_Waitany`` core: index of first completion, or -1 if all null.
    (All the requests belong to the calling rank, hence to one primitive.)
    """
    live = [(i, r) for i, r in enumerate(requests) if r is not None]
    if not live:
        return -1

    def first_done():   # 1-based index; 0 keeps the wait asleep
        for i, r in live:
            if r.done:
                return i + 1
        universe.check_abort()
        return 0

    return live[0][1]._progress.sleep_until(
        [r for _, r in live], first_done) - 1


def wait_all(requests: list[Optional[RequestImpl]], universe) -> None:
    for r in requests:
        if r is not None:
            r.wait()


def test_all(requests: list[Optional[RequestImpl]], universe) -> bool:
    # completion first: like wait(), fully-completed request sets report
    # their own outcome even if the job aborted afterwards
    if all(r is None or r.done for r in requests):
        return True
    universe.check_abort()
    return False


def wait_some(requests: list[Optional[RequestImpl]], universe) -> list[int]:
    """``MPI_Waitsome``: block for >=1 completion, return all done indices."""
    idx = wait_any(requests, universe)
    if idx < 0:
        return []
    return [i for i, r in enumerate(requests) if r is not None and r.done]


def test_some(requests: list[Optional[RequestImpl]], universe) -> list[int]:
    done = [i for i, r in enumerate(requests) if r is not None and r.done]
    if not done:
        universe.check_abort()
    return done
