"""The repository benchmark: one command, three workloads, two of them
listed in BENCHMARK.json (``pingpong`` is not; see ``WORKLOADS``).

Run from the repository root::

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the separate traced run and prints every per-layer
metric (see perfbench/README.md for the layer -> metric map).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; an earlier line
``{"env": ...}`` is the environment record.  Any failed check or operation is printed with its
cause and makes the exit code 1.  Without ``src/repro`` beside this
directory the command prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: the whole command must end well inside 180 s
BUDGET_S = 150.0

#: PYTHONHASHSEED of the n-th measuring launch of every run (see
#: launch.py); the n-th setup-only interpreter takes the n-th too (in
#: turn), and the traced launch the first
HASH_SEEDS = (1, 2, 3, 4, 5, 6)

#: operations per block for the fast-end statistic (see Run.measure)
BLOCK = {"call": 100, "window": 1, "pp8": 100, "pp1m": 20, "step": 50}

#: operations of each probe in one round (see ranks.run_rounds).  Every
#: workload runs every probe so that every end-to-end metric exists on
#: every workload; the workload's own probes get most of each round.
#: ``setup_only`` is (interpreters, start-and-stop jobs in each), see
#: Run.setup_only.
WORKLOADS = {
    # 1 thread rank, inproc: the OO wrapper cost with no wire and no
    # wakeup.  call and window carry the round.
    "self-msg": {
        "nprocs": 1, "env": {}, "launches": 6, "setup_only": (8, 25),
        "plan": {"call": 3000, "window": 1, "pp8": 300, "pp1m": 20,
                 "halo": 60},
    },
    # 2 processes on the default carrier (shm between ranks of one
    # host).  8 B and 1 MiB round trips carry the round.  Not listed in
    # BENCHMARK.json: the shm ring stores its head and tail counters
    # with ``struct`` "<Q" pack_into, not as one atomic 8-byte store, so
    # the other process can read a torn counter, and about one run in
    # five fails (a ValueError from
    # ``_SpscRing.write`` or a hang).  Left runnable so the failure can
    # be reproduced; list it again once the counter publish is atomic.
    "pingpong": {
        "nprocs": 2, "env": {"REPRO_SHM": None}, "launches": 4,
        "setup_only": (2, 3),
        "plan": {"call": 400, "window": 1, "pp8": 1500, "pp1m": 200,
                 "halo": 150},
    },
    # 2 processes forced onto the TCP mesh.  Jacobi steps carry the round.
    "halo": {
        "nprocs": 2, "env": {"REPRO_SHM": "0"}, "launches": 4,
        "setup_only": (2, 3),
        "plan": {"call": 400, "window": 1, "pp8": 300, "pp1m": 160,
                 "halo": 500},
    },
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one received payload byte (self-test of "
                         "the output checks; the run must fail)")
    return ap.parse_args(argv)


def median(values) -> float:
    return float(np.median(values))


def pct(values, q) -> float:
    return float(np.percentile(values, q))


class Run:
    """Launches one workload's jobs and folds their results."""

    def __init__(self, name: str, opts):
        self.name = name
        self.wl = WORKLOADS[name]
        self.opts = opts
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.causes: list[str] = []
        self.setup: list[float] = []
        #: median set-up time of each setup-only interpreter
        self.setup_medians: list[float] = []
        self.phases: dict[str, list[float]] = {"spawn": [], "init": [],
                                               "finalize": []}
        self.rss: list[float] = []
        self.carrier: dict[str, dict[str, str]] = {}
        self.hash_seeds: list[int] = []

    def fail(self, cause: str) -> None:
        """One failed operation the ranks could not count themselves."""
        self.attempted += 1
        self.failed += 1
        self.causes.append(cause)

    def launch(self, cfg: dict, timeout: float, repeat: int = 1,
               hash_seed: int = HASH_SEEDS[0]):
        """``repeat`` jobs in one fresh interpreter (see launch.py).
        Returns the per-rank results of the last job, or None if it
        failed."""
        cfg = dict(cfg, seed=self.opts.seed, workload=self.name)
        timeout = max(5.0, min(timeout, self.deadline - time.monotonic()))
        self.hash_seeds.append(hash_seed)
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        request = pickle.dumps((self.wl["nprocs"], cfg, timeout, repeat))
        # the job's own timeout reaps its ranks; this is the backstop
        wait = timeout * repeat + 15.0
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "launch.py")],
                input=request, capture_output=True, env=env, timeout=wait)
            replies = pickle.loads(proc.stdout) if proc.stdout else \
                [{"error": f"launcher exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}"}]
        except subprocess.TimeoutExpired:
            replies = [{"error": f"launcher still running after "
                                 f"{wait:.0f} s"}]
        res = None
        for reply in replies:
            res = self.fold(cfg, reply)
        return res

    def fold(self, cfg: dict, reply: dict):
        """Account one job's reply; returns its per-rank results."""
        if "error" in reply:
            self.fail(f"{cfg['mode']} launch: {reply['error']}")
            return None
        res, t0, t_end = reply["res"], reply["t0"], reply["t_end"]
        entry = max(r["t_entry"] for r in res)
        init = max(r["t_init"] for r in res)
        self.setup.append(init - t0)
        self.phases["spawn"].append(entry - t0)
        self.phases["init"].append(init - entry)
        self.phases["finalize"].append(t_end - max(r["t_fin"] for r in res))
        self.rss.append(max(r["rss_mb"] for r in res))
        if cfg["mode"] == "setup":
            return res
        for r in res:
            self.attempted += r["attempted"]
            self.failed += r["failed"]
            self.causes += [f"rank {r['rank']}: {c}" for c in r["causes"]]
        self.check_halo(res)
        self.note_carrier(res)
        return res

    def check_halo(self, res) -> None:
        """Compare the distributed Jacobi with the serial reference."""
        from ranks import serial_halo
        steps = {r["halo"]["steps"] for r in res}
        if len(steps) != 1:
            self.fail(f"halo: ranks ran different step counts {steps}")
            return
        steps = steps.pop()
        want, want_resid = serial_halo(self.opts.seed, steps)
        got = want.copy()
        for r in res:
            h = r["halo"]
            got[:, h["col0"]:h["col0"] + h["cols"].shape[1]] = h["cols"]
            # every rank saw the same reduced residual each step
            bad = [i for i, (a, b) in enumerate(zip(h["resid"], want_resid))
                   if not close(a, b)]
            self.attempted += steps
            self.failed += len(bad)
            if bad:
                self.causes.append(
                    f"rank {r['rank']}: halo residual differs from the "
                    f"serial run at {len(bad)} of {steps} steps (first: "
                    f"step {bad[0]})")
        self.attempted += 1
        if not close(got, want):
            self.failed += 1
            diff = np.abs(got - want)
            i, j = np.unravel_index(np.argmax(diff), diff.shape)
            self.causes.append(
                f"halo: field differs from the serial run after {steps} "
                f"steps (max |diff| {diff[i, j]:.3e} at row {i}, col {j})")

    def note_carrier(self, res) -> None:
        """Which carrier each peer's data crossed, from bytes sent."""
        for r in res:
            peers = [p for p in range(len(res)) if p != r["rank"]] \
                or [r["rank"]]
            used = sorted(k for k, v in r["carrier"].items() if v > 0) \
                or ["inproc"]
            self.carrier[str(r["rank"])] = {str(p): "+".join(used)
                                            for p in peers}

    def setup_only(self) -> None:
        """Jobs that only start and stop, so setup_s has many samples.

        They run in several fresh interpreters.  On a 2-vCPU VM one
        interpreter's thread-rank set-up sat near 70 us or near 110 us
        for all its jobs, whichever level it drew; the mean of several
        interpreters' medians keeps setup_s steady.
        """
        interpreters, jobs = self.wl["setup_only"]
        for i in range(interpreters):
            first = len(self.setup)
            self.launch({"mode": "setup"}, timeout=60.0, repeat=jobs,
                        hash_seed=HASH_SEEDS[i % len(HASH_SEEDS)])
            if len(self.setup) > first:
                self.setup_medians.append(median(self.setup[first:]))

    # -- the two kinds of run --------------------------------------------
    def measure(self) -> dict:
        """Every end-to-end metric.

        A p50 or a rate is read from the fast end of the run: samples
        are cut into blocks of consecutive operations (``BLOCK``), and
        the metric is the 10th percentile of the block medians.  The
        per-call cost on the shared 2-vCPU box switches between levels
        about 40% apart for seconds at a time, whatever the code does;
        the fast blocks measure the code rather than the neighbours.
        """
        from ranks import LARGE, WINDOW
        self.setup_only()
        k = self.wl["launches"]
        blocks: dict[str, list[float]] = {key: [] for key in BLOCK}
        span = self.opts.seconds / k
        for i in range(k):
            if self.deadline - time.monotonic() < span + 10.0:
                break   # earlier jobs hung; their failures are counted
            cfg = {"mode": "measure", "plan": self.wl["plan"],
                   "seconds": span, "corrupt": self.opts.corrupt and i == 0}
            res = self.launch(cfg, timeout=span + 30.0,
                              hash_seed=HASH_SEEDS[i])
            if res is None:
                continue
            for key, size in BLOCK.items():
                x = res[0]["samples"][key]
                blocks[key] += [median(x[j:j + size])
                                for j in range(0, len(x) - size + 1, size)]
        m = {}
        if self.setup_medians:
            m["setup_s"] = float(np.mean(self.setup_medians))
        if all(blocks.values()):
            def fast(key, scale):
                return pct(blocks[key], 10) * scale

            m["call_us_p50"] = fast("call", 1e6)
            m["window_rate_kps"] = WINDOW / fast("window", 1e3)
            m["lat_us_p50"] = fast("pp8", 1e6 / 2)
            m["bw_MBps"] = 2 * LARGE / fast("pp1m", 1e6)
            m["step_ms_p50"] = fast("step", 1e3)
        if self.rss:
            m["rss_MB"] = max(self.rss)
        return m

    def trace(self) -> dict:
        self.setup_only()
        cfg = {"mode": "trace", "corrupt": self.opts.corrupt}
        res = self.launch(cfg, timeout=150.0)
        if res is None:
            return {}
        m = dict(res[0]["trace"])
        for phase, vals in self.phases.items():
            m[f"executor.{phase}_s"] = median(vals)
        m["transport.shm_byte_share"] = shm_share(res)
        m["failed_frac"] = self.failed / max(1, self.attempted)
        return m


def close(a, b) -> bool:
    """Bitwise equal, or within 1e-12 everywhere."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (
        np.array_equal(a, b) or bool(np.all(np.abs(a - b) <= 1e-12)))


def shm_share(res) -> float:
    sent = [r["carrier"] for r in res]
    shm = sum(c.get("shm", 0) for c in sent)
    total = sum(sum(c.values()) for c in sent)
    return shm / total if total else 0.0


def environment(run: Run) -> dict:
    """What the numbers depend on besides the code under test."""
    return {
        "workload": run.name,
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
        "hash_seeds": run.hash_seeds,
        "git_commit": git_commit(),
        "src_sha1": source_digest(),
        "carrier": run.carrier,
    }


def git_commit():
    """HEAD of the enclosing checkout, or None outside a git tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """SHA-1 over the program's sources, for checkouts without git."""
    h = hashlib.sha1()
    pkg = os.path.join(SRC, "repro")
    for dirpath, _, files in sorted(os.walk(pkg)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(opts.workload, opts)
    for key, value in run.wl["env"].items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    metrics = run.trace() if opts.trace else run.measure()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if opts.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(units) - set(metrics))
    if missing and not run.failed:
        run.fail(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({"env": environment(run)}))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.4f} {units[name]}")
    for cause in run.causes:
        print(f"FAILED: {cause}")
    correct = run.failed == 0 and run.attempted > 0
    print(f"failed_frac {run.failed}/{run.attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
