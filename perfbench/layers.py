"""Traced run: per-layer cost of the probes, measured from outside.

Two instruments, both installed inside the rank and both removed again
before the rank returns:

* ``SpanTracer`` wraps the public entry points of each layer of
  ``src/repro`` in timing shims.  A span's self time is its duration
  minus the durations of the spans it encloses, so each layer is
  charged only for its own code.  Only the rank's own thread is timed:
  pump and writer threads run the same functions concurrently.
* ``CallCounter`` is a ``sys.setprofile`` hook on the rank thread that
  counts Python function calls by the layer their code lives in, per
  operation.  The reported counts are those of the most common path
  through the stack: on two processes a message that arrives before its
  receive is posted takes another path, and how often that happens
  depends on timing, while the most common path repeats exactly.

Neither touches the program's files; everything here is swapped into
module and class attributes at run time.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter

import numpy as np

from ranks import LARGE, SMALL, Probes

LAYERS = ("mpijava", "jni", "runtime", "datatypes", "transport", "obs")

#: fixed operation counts of the traced run, so counts repeat exactly
COUNTS = {"call": 2000, "pp8": 1000, "pp1m": 50, "halo": 1000,
          "d256": 20, "d4096": 3}
TRACED = {"call": 1000, "pp8": 300, "halo": 100}

#: per-message divisor of each probe: messages rank 0 both sends and
#: receives per operation (a halo step moves two on two ranks)
MSGS_PER_OP = {"call": 1, "pp8": 1, "halo": 2}

#: which probe carries each workload's self times and call counts
PRIMARY = {"self-msg": "call", "pingpong": "pp8", "halo": "halo"}


def entry_points():
    """(owner, attribute, layer) for every shimmed entry point."""
    from repro.datatypes import layout, packing
    from repro.jni import capi, handles
    from repro.mpijava import MPI
    from repro.mpijava.request import Request
    from repro.obs.metrics import CounterGroup
    from repro.runtime import buffers, requests
    from repro.runtime.collective import allreduce
    from repro.runtime.engine import current_runtime

    rt = current_runtime()
    comm_impl = handles.tables_for(rt).comms.lookup(handles.COMM_WORLD)
    points = [(type(MPI.COMM_WORLD), n, "mpijava") for n in (
        "Send", "Recv", "Isend", "Irecv", "Sendrecv", "Allreduce")]
    points += [(Request, "Wait", "mpijava")]
    points += [(capi, n, "jni") for n in (
        "mpi_send", "mpi_recv", "mpi_isend", "mpi_irecv", "mpi_wait",
        "mpi_sendrecv", "mpi_allreduce")]
    points += [(type(comm_impl), n, "runtime") for n in (
        "send", "recv", "isend", "irecv", "sendrecv")]
    points += [(requests.RequestImpl, "wait", "runtime"),
               (allreduce, "allreduce", "runtime")]
    points += [(mod, n, "datatypes") for mod in (packing, buffers)
               for n in ("gather_elements", "scatter_elements")]
    points += [(layout.LayoutIR, n, "datatypes")
               for n in ("gather", "scatter_range", "byte_views")]
    transport = rt.universe.transport
    classes = {type(transport)} | {type(getattr(transport, leg))
                                   for leg in ("tcp", "shm")
                                   if getattr(transport, leg, None)}
    points += [(cls, "send", "transport") for cls in classes]
    points += [(CounterGroup, n, "obs") for n in ("inc", "add")]
    resolved = {}
    for owner, name, layer in points:
        if isinstance(owner, type):
            # shim the class that defines the method, once
            owner = next(k for k in owner.__mro__ if name in k.__dict__)
        resolved[(id(owner), name)] = (owner, name, layer)
    return list(resolved.values())


class SpanTracer:
    """Timing shims around layer entry points, with self-time totals."""

    def __init__(self):
        self.tid = threading.get_ident()
        self.saved: list[tuple[object, str, object]] = []
        self.stack: list[float] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.durations: dict[str, list[float]] = {}

    def reset(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.durations = {}

    def install(self) -> None:
        for owner, name, layer in entry_points():
            fn = owner.__dict__[name]
            self.saved.append((owner, name, fn))
            setattr(owner, name, self._shim(fn, layer,
                                            f"{layer}.{name}"))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self.saved):
            setattr(owner, name, fn)
        self.saved.clear()

    def _shim(self, fn, layer: str, label: str):
        tid, stack, clock = self.tid, self.stack, time.perf_counter

        def shim(*args, **kwargs):
            if threading.get_ident() != tid:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                self.self_s[layer] += dur - child
                if stack:
                    stack[-1] += dur
                self.durations.setdefault(label, []).append(dur)
        return shim


class CallCounter:
    """``sys.setprofile`` hook: Python calls per layer, rank thread only."""

    def __init__(self):
        import repro
        self.root = os.path.dirname(repro.__file__) + os.sep
        self.layer_of: dict[str, str | None] = {}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.last = dict(self.calls)
        self.per_op: list[dict[str, int]] = []

    def tick(self) -> None:
        """Close one operation: record the calls made since the last."""
        self.per_op.append({k: v - self.last[k]
                            for k, v in self.calls.items()})
        self.last = dict(self.calls)

    def common_path(self) -> dict[str, int]:
        """Per-layer calls of the most frequent per-operation pattern."""
        paths = Counter(tuple(op[k] for k in LAYERS) for op in self.per_op)
        return dict(zip(LAYERS, paths.most_common(1)[0][0]))

    def _layer(self, filename: str):
        layer = None
        if filename.startswith(self.root):
            top = filename[len(self.root):].split(os.sep, 1)[0]
            layer = top if top in self.calls else None
        self.layer_of[filename] = layer
        return layer

    def hook(self, frame, event, arg) -> None:
        if event == "call":
            fname = frame.f_code.co_filename
            layer = self.layer_of.get(fname, "?")
            if layer == "?":
                layer = self._layer(fname)
            if layer is not None:
                self.calls[layer] += 1

    def __enter__(self):
        sys.setprofile(self.hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


def _counters() -> dict[str, dict[str, int]]:
    from repro.obs.metrics import REGISTRY
    return {g: REGISTRY.aggregate(g) for g in ("wire", "datapath",
                                                "mailbox")}


def _delta(before, after) -> dict[str, dict[str, int]]:
    return {g: {k: v - before[g].get(k, 0) for k, v in after[g].items()}
            for g in after}


def run_probe(p: Probes, probe: str, n: int) -> None:
    if probe == "call":
        p.call(n)
    elif probe == "pp8":
        p.pingpong(SMALL, n)
    elif probe == "pp1m":
        p.pingpong(LARGE, n)
    elif probe == "halo":
        p.halo(n)
    else:
        for _ in range(n):
            p.window(int(probe[1:]), key=probe)


def _p50_us(values) -> float:
    return float(np.median(values)) * 1e6 if values else 0.0


def trace_probes(p: Probes, cfg: dict) -> dict:
    """The traced run's rank body; rank 0's dict carries the metrics."""
    primary = PRIMARY[cfg["workload"]]
    m: dict[str, float] = {}
    delta = {}
    for probe in ("call", "d256", "d4096", "pp8", "pp1m", "halo"):
        before = _counters()
        run_probe(p, probe, COUNTS[probe])
        delta[probe] = _delta(before, _counters())
    untraced = {k: list(v) for k, v in p.samples.items()}

    # spans: self time of each layer per message of each traced probe
    tracer = SpanTracer()
    spans = {}
    tracer.install()
    try:
        for probe, n in TRACED.items():
            p.samples.pop(probe if probe != "halo" else "step", None)
            tracer.reset()
            run_probe(p, probe, n)
            spans[probe] = (dict(tracer.self_s), tracer.durations)
    finally:
        tracer.uninstall()
    traced = {k: list(v) for k, v in p.samples.items()}

    with CallCounter() as counter:
        p.on_op = counter.tick
        run_probe(p, primary, TRACED[primary])
        p.on_op = None
    if p.rank != 0:
        return {}

    per_msg = TRACED[primary] * MSGS_PER_OP[primary]
    self_s = spans[primary][0]
    m["mpijava.self_us"] = self_s["mpijava"] / per_msg * 1e6
    m["jni.self_us"] = self_s["jni"] / per_msg * 1e6
    m["runtime.pair_us"] = self_s["runtime"] / per_msg * 1e6
    for layer, calls in counter.common_path().items():
        m[f"{layer}.calls_per_msg"] = calls / MSGS_PER_OP[primary]

    d256 = np.median(untraced["d256"]) / 256 * 1e6
    d4096 = np.median(untraced["d4096"]) / 4096 * 1e6
    m["runtime.window_us_per_msg.d256"] = float(d256)
    m["runtime.window_us_per_msg.d4096"] = float(d4096)
    m["runtime.depth_ratio"] = float(d4096 / d256)
    nwin = 4096 * COUNTS["d4096"]
    for key in ("matched_posted", "matched_unexpected", "matched_direct"):
        m[f"mailbox.{key}_per_msg"] = delta["d4096"]["mailbox"][key] / nwin

    # wire and datapath: both pingpong sizes, per round trip
    npp = COUNTS["pp8"] + COUNTS["pp1m"]
    wire = {k: delta["pp8"]["wire"].get(k, 0) + delta["pp1m"]["wire"].get(k, 0)
            for k in delta["pp8"]["wire"]}
    path = {k: delta["pp8"]["datapath"][k] + delta["pp1m"]["datapath"][k]
            for k in delta["pp8"]["datapath"]}
    m["wire.frames_per_msg"] = wire.get("tx_frames", 0) / npp
    m["wire.bytes_per_msg"] = wire.get("tx_bytes", 0) / npp
    m["wire.eager_frames_per_msg"] = wire.get("eager_frames", 0) / npp
    m["wire.rts_frames_per_msg"] = wire.get("rts_frames", 0) / npp
    m["wire.staged_bytes_per_msg"] = wire.get("rndv_staged_bytes", 0) / npp
    direct = wire.get("eager_direct_frames", 0) \
        + wire.get("rndv_direct_frames", 0)
    landed = direct + wire.get("eager_direct_miss", 0) \
        + wire.get("rndv_staged_frames", 0)
    m["wire.direct_hit_ratio"] = direct / landed if landed else 0.0
    for key in ("send_view", "send_iovec", "send_gather", "recv_direct",
                "recv_refused"):
        m[f"datapath.{key}_per_msg"] = path[key] / npp
    m["mpijava.recv_wait_us_p50"] = _p50_us(
        spans["pp8"][1].get("mpijava.Recv", []))

    nhalo = COUNTS["halo"] * MSGS_PER_OP["halo"]
    halo_self = spans["halo"][0]
    m["datatypes.vector_pack_us"] = halo_self["datatypes"] \
        / (TRACED["halo"] * MSGS_PER_OP["halo"]) * 1e6
    m["datapath.gather_runs_per_msg"] = \
        delta["halo"]["datapath"]["gather_runs"] / nhalo
    m["transport.sendrecv_us_p50"] = _p50_us(untraced["sendrecv"])
    m["collective.allreduce_us_p50"] = _p50_us(untraced["allreduce"])
    m["app.compute_ms_p50"] = _p50_us(untraced["compute"]) / 1e3
    m["app.comm_share"] = float(np.median(untraced["comm_share"]))

    # tails: too unsteady from run to run to gate on, kept as diagnostics
    m["call_us_p99"] = float(np.percentile(untraced["call"], 99)) * 1e6
    m["lat_us_p99"] = float(np.percentile(untraced["pp8"], 99)) * 1e6 / 2
    m["step_ms_p99"] = float(np.percentile(untraced["step"], 99)) * 1e3

    main = {"call": "call", "pp8": "pp8", "halo": "step"}[primary]
    m["obs.trace_overhead"] = float(np.median(traced[main])
                                    / np.median(untraced[main]))
    return m
