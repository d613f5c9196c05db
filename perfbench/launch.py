"""One benchmark job in its own interpreter: ``python3 perfbench/launch.py``.

``run.py`` starts this file once per launch with ``PYTHONHASHSEED`` set.
String hashing lays out the program's dicts differently in every
interpreter, which is one source of run-to-run variance in per-call
costs; taking each launch's hash seed from a list every run shares
removes it.

Reads one pickled request on stdin: ``(nprocs, cfg, timeout, repeat)``.
Runs the job ``repeat`` times and writes one pickled list on stdout, a
reply per job: ``{"res": [...], "t0": ..., "t_end": ...}`` with the
per-rank results of ``ranks.rank_main``, or ``{"error": ...}`` when the
job failed.
"""

from __future__ import annotations

import os
import pickle
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def describe(exc: BaseException) -> str:
    """The failure and, for failed ranks, where in the program it arose."""
    text = f"{type(exc).__name__}: {exc}"
    for rank, failure in sorted(getattr(exc, "failures", {}).items()):
        tb = getattr(failure, "remote_traceback", "").strip().splitlines()
        if tb:
            text += f"\n    rank {rank} traceback tail:\n      " + \
                "\n      ".join(tb[-6:])
    return text


def main() -> int:
    nprocs, cfg, timeout, repeat = pickle.load(sys.stdin.buffer)
    # the reply owns stdout: anything else printed here or by the rank
    # processes goes to stderr
    reply_fd = os.dup(1)
    os.dup2(2, 1)
    sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
    from repro import mpirun, procrun
    from ranks import rank_main

    replies = []
    for _ in range(repeat):
        t0 = time.monotonic()
        try:
            if nprocs == 1:
                res = mpirun(1, rank_main, args=(cfg,), timeout=timeout)
            else:
                res = procrun(nprocs, rank_main, args=(cfg,),
                              timeout=timeout)
            replies.append({"res": res, "t0": t0, "t_end": time.monotonic()})
        except Exception as exc:  # noqa: BLE001 - counted by run.py
            replies.append({"error": describe(exc)})
    with os.fdopen(reply_fd, "wb") as out:
        out.write(pickle.dumps(replies))
    return 0


if __name__ == "__main__":
    sys.exit(main())
