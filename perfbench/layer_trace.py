"""Outside-in layer tracer: wraps the repro modules' public functions.

Nothing under ``src/`` knows it is being traced.  :class:`LayerTracer`
replaces each function in :data:`PROBES` (on its class or module) with a
wrapper that records one span per call — probe, parent probe on the same
thread, thread, start, end, self time and an optional amount (bytes,
frames) — in a flat in-memory array.  Spans are written out after the
run; :meth:`LayerTracer.uninstall` puts every original object back.

Self time is a span's duration minus the time its child spans on the
same thread cover.  Spans of kind ``wait`` (a caller blocked on a reply
or on an MPI match) are reported as waits and never added to busy time.
Dispatch pool wait is measured from ``DispatchPipeline.dispatch``
returning to the ``SpanRecorder.start`` that opens the blocking
handler's ``handle.<OP>`` span on a worker thread — the handler's first
wrapped call — matched by the request's trace context.
"""

from __future__ import annotations

import threading
import time
from array import array
from importlib import import_module
from typing import Any, Callable, NamedTuple, Optional

BUSY = "busy"
WAIT = "wait"


class Probe(NamedTuple):
    """One traced function and how its calls are recorded."""

    module: str
    #: class name, or None for a module function
    owner: Optional[str]
    attr: str
    layer: str
    kind: str = BUSY
    #: wrapper builder: ``span`` (plain span) or one of the special
    #: wrappers of :class:`LayerTracer` (``ready``, ``guard``,
    #: ``dispatch``, ``handler_start``)
    wrap: str = "span"
    #: amount recorded with each call, from (args, result)
    amount: Optional[Callable[[tuple, Any], float]] = None


def _frames_out(args: tuple, result: Any) -> float:
    return float(sum(len(view) for view in result)) if result else 0.0


def _nbytes(args: tuple, result: Any) -> float:
    return float(len(args[1]))


def _count(args: tuple, result: Any) -> float:
    return float(result or 0)


def _frame_count(args: tuple, result: Any) -> float:
    return float(len(args[1])) if hasattr(args[1], "__len__") else 0.0


def _got_frame(args: tuple, result: Any) -> float:
    return 0.0 if result is None else 1.0


#: Module functions imported by name elsewhere are patched at every
#: importer too (see :data:`IMPORTERS`).
PROBES: list[Probe] = [
    Probe("repro.core.protocol", "ControlMessage", "to_frame", "protocol"),
    Probe("repro.core.protocol", "ControlMessage", "from_frame", "protocol"),
    Probe("repro.transport.frames", None, "encode_frame_views", "frames",
          amount=_frames_out),
    Probe("repro.transport.frames", None, "encode_value", "frames"),
    Probe("repro.transport.frames", None, "decode_value", "frames"),
    Probe("repro.transport.frames", "FrameDecoder", "feed", "frames", amount=_nbytes),
    Probe("repro.transport.frames", "FrameDecoder", "feed_into", "frames", amount=_count),
    Probe("repro.transport.frames", "FrameDecoder", "next_frame", "frames"),
    Probe("repro.transport.frames", "FrameDecoder", "next_frame_view", "frames"),
    Probe("repro.security.handshake", None, "encode_frame", "frames"),
    Probe("repro.security.handshake", None, "decode_frame", "frames"),
    Probe("repro.security.cipher", "RecordCipher", "seal", "cipher", amount=_nbytes),
    Probe("repro.security.cipher", "RecordCipher", "open", "cipher", amount=_nbytes),
    Probe("repro.core.tunnel", "Tunnel", "send", "tunnel"),
    Probe("repro.core.tunnel", "Tunnel", "send_many", "tunnel", amount=_frame_count),
    Probe("repro.transport.reactor", "ReactorTcpChannel", "send", "reactor"),
    Probe("repro.transport.reactor", "ReactorTcpChannel", "send_many", "reactor",
          amount=_frame_count),
    Probe("repro.transport.reactor", "ReactorTcpChannel", "poll_recv", "reactor",
          amount=_got_frame),
    Probe("repro.transport.reactor", "ReactorTcpChannel", "set_ready_callback",
          "reactor", wrap="ready"),
    Probe("repro.core.dispatch", "DispatchPipeline", "dispatch", "dispatch",
          wrap="dispatch"),
    Probe("repro.core.dispatch", "DispatchPipeline", "dispatch_batch", "dispatch"),
    Probe("repro.security.tokens", "TokenService", "verify_blob", "tokens"),
    Probe("repro.security.tokens", "TokenService", "delegate", "tokens"),
    Probe("repro.core.dispatch", "TokenAuthGuard", "__call__", "tokens", wrap="guard"),
    Probe("repro.core.proxy", "ProxyServer", "request", "proxy"),
    Probe("repro.core.protocol", "RequestTracker", "wait", "proxy", kind=WAIT),
    Probe("repro.core.site", "SiteNode", "execute", "site"),
    Probe("repro.core.multiplexer", "GridRouter", "send", "mpi"),
    Probe("repro.core.multiplexer", "GridRouter", "deliver_remote", "mpi"),
    Probe("repro.mpi.router", "Endpoint", "deliver", "mpi"),
    Probe("repro.mpi.router", "Endpoint", "match", "mpi", kind=WAIT),
    Probe("repro.control.wms", "WorkloadManager", "submit", "wms"),
    Probe("repro.control.wms", "WorkloadManager", "claim", "wms"),
    Probe("repro.control.wms", "WorkloadManager", "complete", "wms"),
    Probe("repro.control.wms", "FileJournal", "append", "wms"),
    Probe("repro.obs.trace", "SpanRecorder", "start", "obs", wrap="handler_start"),
    Probe("repro.obs.trace", "Span", "finish", "obs"),
    Probe("repro.core.tunnel", "Tunnel", "establish_client", "handshake"),
    Probe("repro.core.tunnel", "Tunnel", "establish_server", "handshake"),
    Probe("repro.security.rsa", "RsaKeyPair", "generate", "rsa"),
    Probe("repro.security.ca", "CertificationAuthority", "issue", "rsa"),
]

#: Modules that bind a frames function by name at import time; the
#: binding there is what their code calls, so it is patched there too.
IMPORTERS: dict[str, tuple[str, ...]] = {
    "encode_frame_views": ("repro.transport.reactor", "repro.transport.tcp"),
    "encode_value": (
        "repro.core.protocol", "repro.core.multiplexer", "repro.mpi.datatypes",
        "repro.security.tokens", "repro.security.auth", "repro.security.certs",
        "repro.security.tickets", "repro.security.handshake",
    ),
    "decode_value": (
        "repro.core.protocol", "repro.core.multiplexer",
        "repro.security.tokens", "repro.security.auth", "repro.security.certs",
        "repro.security.tickets", "repro.security.handshake",
    ),
}

#: Fields of one span record in :attr:`LayerTracer.spans`.
FIELDS = ("probe", "parent", "thread", "start", "end", "self", "amount")
_NF = len(FIELDS)
#: ``amount`` of a guard call: op not guarded / verdict cached / verified.
GUARD_OPEN, GUARD_HIT, GUARD_MISS = -1.0, 1.0, 0.0
#: Probe id of the synthetic pool-wait records (no wrapped function).
POOL_WAIT = "DispatchPipeline.pool_wait"
GUARD = "TokenAuthGuard.__call__"


class LayerTracer:
    """Install the probes, record spans, restore the originals."""

    def __init__(self) -> None:
        #: probe id -> (qualified name, layer, kind)
        self.probes: list[tuple[str, str, str]] = []
        self.spans = array("d")
        self.thread_names: list[str] = []
        self._threads: dict[int, int] = {}
        self._threads_lock = threading.Lock()
        self._tls = threading.local()
        #: (owner, attribute, original object as found in its __dict__)
        self._patches: list[tuple[Any, str, Any]] = []
        #: request trace key -> (dispatching thread, dispatch return time)
        self._pending: dict[tuple[str, str], tuple[int, Optional[float]]] = {}
        self._pool_wait_id = self._probe_id(POOL_WAIT, "dispatch", WAIT)

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for spec in PROBES:
            module = import_module(spec.module)
            owner = module if spec.owner is None else getattr(module, spec.owner)
            qualname = f"{spec.owner or spec.module.rsplit('.', 1)[1]}.{spec.attr}"
            probe = self._probe_id(qualname, spec.layer, spec.kind)
            original = vars(owner)[spec.attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrapper(original.__func__, probe, spec))
            else:
                wrapped = self._wrapper(original, probe, spec)
            self._patch(owner, spec.attr, original, wrapped)
            for importer in IMPORTERS.get(spec.attr, ()) if spec.owner is None else ():
                target = import_module(importer)
                if vars(target).get(spec.attr) is original:
                    self._patch(target, spec.attr, original, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Is every patched attribute the original object again?"""
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self._patches)

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def _probe_id(self, qualname: str, layer: str, kind: str) -> int:
        self.probes.append((qualname, layer, kind))
        return len(self.probes) - 1

    def _thread(self) -> int:
        ident = threading.get_ident()
        with self._threads_lock:
            index = self._threads.get(ident)
            if index is None:
                index = self._threads[ident] = len(self.thread_names)
                self.thread_names.append(threading.current_thread().name)
        return index

    # -- wrappers --------------------------------------------------------

    def _wrapper(self, fn: Callable, probe: int, spec: Probe) -> Callable:
        if spec.wrap == "span":
            return self._span_wrapper(fn, probe, spec.amount)
        build: Callable[[Callable, int], Callable] = getattr(self, f"_{spec.wrap}_wrapper")
        return build(fn, probe)

    def _span_wrapper(self, fn: Callable, probe: int,
                      amount: Optional[Callable] = None) -> Callable:
        tls, spans, perf = self._tls, self.spans, time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
                tls.thread = tracer._thread()
            frame = [0.0, probe]
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent_probe = parent[1]
                else:
                    parent_probe = -1
                spans.extend((probe, parent_probe, tls.thread, t0, t1,
                              duration - frame[0],
                              amount(args, result) if amount else 0.0))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _ready_wrapper(self, fn: Callable, probe: int) -> Callable:
        """Wrap the callback a channel is given: each call is a wakeup."""
        span = self._span_wrapper

        def set_ready_callback(channel: Any, callback: Any) -> Any:
            if callback is not None:
                callback = span(callback, probe)
            return fn(channel, callback)

        set_ready_callback.__wrapped__ = fn  # type: ignore[attr-defined]
        return set_ready_callback

    def _guard_wrapper(self, fn: Callable, probe: int) -> Callable:
        """Guard calls: amount says open op, cache hit or full verify."""
        tls = self._tls
        verify = next(i for i, p in enumerate(self.probes)
                      if p[0] == "TokenService.verify_blob")

        def counted(guard: Any, message: Any, peer: str) -> Any:
            if guard.scopes.get(message.op) is None:
                tls.guard = GUARD_OPEN
            else:
                tls.guard = GUARD_HIT
                tls.guard_mark = len(self.spans)
            return fn(guard, message, peer)

        def amount(args: tuple, result: Any) -> float:
            verdict = tls.guard
            if verdict == GUARD_HIT:
                spans = self.spans
                for i in range(tls.guard_mark, len(spans), _NF):
                    if spans[i] == verify and spans[i + 2] == tls.thread:
                        return GUARD_MISS
            return verdict

        return self._span_wrapper(counted, probe, amount)

    def _dispatch_wrapper(self, fn: Callable, probe: int) -> Callable:
        pending, perf = self._pending, time.perf_counter

        def dispatch(pipeline: Any, message: Any, *args: Any, **kwargs: Any) -> Any:
            key = _trace_key(message.trace)
            if key is not None:
                pending[key] = (threading.get_ident(), None)
            try:
                return fn(pipeline, message, *args, **kwargs)
            finally:
                # Still pending: the handler was not run inline, so it
                # waits on the pool from now on.
                entry = pending.get(key) if key is not None else None
                if entry is not None and entry[1] is None:
                    pending[key] = (entry[0], perf())

        return self._span_wrapper(dispatch, probe)

    def _handler_start_wrapper(self, fn: Callable, probe: int) -> Callable:
        """Opening a ``handle.<OP>`` span is the handler's first wrapped
        call: on another thread than its dispatch, it ends a pool wait."""
        pending, spans, perf = self._pending, self.spans, time.perf_counter
        pool_wait = self._pool_wait_id
        tls = self._tls

        def start(recorder: Any, name: str, parent: Any = None,
                  *args: Any, **kwargs: Any) -> Any:
            if parent is not None and name.startswith("handle."):
                entry = pending.pop((parent.trace_id, parent.span_id), None)
                if entry is not None and entry[0] != threading.get_ident():
                    now = perf()
                    returned = now if entry[1] is None else entry[1]
                    spans.extend((pool_wait, -1, tls.thread, returned, now,
                                  now - returned, 0.0))
            return fn(recorder, name, parent, *args, **kwargs)

        return self._span_wrapper(start, probe)

    # -- output ----------------------------------------------------------

    def write(self, path: str, t0: float, t1: float) -> int:
        """Write the spans that start in ``[t0, t1)`` as tab-separated
        text, one per line; returns how many were written."""
        names = [p[0] for p in self.probes]
        spans = self.spans
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("probe\tparent\tthread\tstart_s\tend_s\tself_us\tamount\n")
            for i in range(0, len(spans), _NF):
                if not t0 <= spans[i + 3] < t1:
                    continue
                parent = int(spans[i + 1])
                out.write(
                    f"{names[int(spans[i])]}\t"
                    f"{names[parent] if parent >= 0 else '-'}\t"
                    f"{self.thread_names[int(spans[i + 2])]}\t"
                    f"{spans[i + 3]:.6f}\t{spans[i + 4]:.6f}\t"
                    f"{spans[i + 5] * 1e6:.1f}\t{spans[i + 6]:g}\n"
                )
                written += 1
        return written

    def span_count(self) -> int:
        return len(self.spans) // _NF

    def summarize(self, t0: float, t1: float) -> dict[str, dict[str, float]]:
        """Per-probe totals over spans that start inside ``[t0, t1)``.

        ``entries`` counts the calls whose parent is in another layer (or
        none): the calls *into* a layer, not its internal recursion.
        ``guarded`` and ``hits`` count guard calls on guarded ops and the
        ones answered from the verdict cache.
        """
        probes = self.probes
        totals = {
            name: {"calls": 0, "entries": 0, "self_s": 0.0, "dur_s": 0.0,
                   "amount": 0.0, "guarded": 0, "hits": 0}
            for name, _, _ in probes
        }
        spans = self.spans
        for i in range(0, len(spans), _NF):
            start = spans[i + 3]
            if start < t0 or start >= t1:
                continue
            probe, parent = int(spans[i]), int(spans[i + 1])
            name, layer, _ = probes[probe]
            row = totals[name]
            row["calls"] += 1
            if parent < 0 or probes[parent][1] != layer:
                row["entries"] += 1
            row["self_s"] += spans[i + 5]
            row["dur_s"] += spans[i + 4] - start
            row["amount"] += spans[i + 6]
            if name == GUARD:
                row["guarded"] += spans[i + 6] != GUARD_OPEN
                row["hits"] += spans[i + 6] == GUARD_HIT
        return totals

    def layers(self) -> dict[str, str]:
        """Probe name -> layer, for the probes that count as busy time."""
        return {name: layer for name, layer, kind in self.probes if kind == BUSY}


def _trace_key(blob: Any) -> Optional[tuple[str, str]]:
    if isinstance(blob, dict):
        tid, sid = blob.get("tid"), blob.get("sid")
        if isinstance(tid, str) and isinstance(sid, str):
            return (tid, sid)
    return None


def layer_metrics(window: dict[str, dict[str, float]],
                  build: dict[str, dict[str, float]], busy_layers: dict[str, str],
                  ops: int, wall_s: float, retries: float,
                  journal_bytes: float) -> dict[str, float]:
    """The per-layer metrics, averaged per operation over the window.

    ``build`` holds the totals over the last grid build (handshakes and
    keys).  Busy time of every layer plus ``trace.unattributed_us_per_op``
    is the window's wall time per operation.
    """
    def calls(*names: str) -> float:
        return sum(window[n]["calls"] for n in names)

    def entries(layer: str) -> float:
        return sum(row["entries"] for n, row in window.items()
                   if busy_layers.get(n) == layer)

    def amount(*names: str) -> float:
        return sum(window[n]["amount"] for n in names)

    def self_us(*names: str) -> float:
        return sum(window[n]["self_s"] for n in names) * 1e6

    busy_us = {layer: 0.0 for layer in set(busy_layers.values())}
    for name, layer in busy_layers.items():
        busy_us[layer] += window[name]["self_s"] * 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sends = calls("Tunnel.send", "Tunnel.send_many")
    wakeups = calls("ReactorTcpChannel.set_ready_callback")
    guard = window[GUARD]
    handshakes = ("Tunnel.establish_client", "Tunnel.establish_server")
    per_op = {
        "protocol.calls_per_op": entries("protocol"),
        "protocol.busy_us_per_op": busy_us["protocol"],
        "frames.calls_per_op": entries("frames"),
        "frames.busy_us_per_op": busy_us["frames"],
        "frames.bytes_per_op": amount(
            "frames.encode_frame_views", "FrameDecoder.feed", "FrameDecoder.feed_into"),
        "cipher.calls_per_op": entries("cipher"),
        "cipher.busy_us_per_op": busy_us["cipher"],
        "cipher.bytes_per_op": amount("RecordCipher.seal", "RecordCipher.open"),
        "tunnel.sends_per_op": sends,
        "tunnel.busy_us_per_op": busy_us["tunnel"],
        "reactor.wakeups_per_op": wakeups,
        "reactor.busy_us_per_op": busy_us["reactor"],
        "dispatch.busy_us_per_op": busy_us["dispatch"],
        "dispatch.pool_wait_us_per_op": self_us(POOL_WAIT),
        "tokens.verifies_per_op": calls("TokenService.verify_blob"),
        "tokens.busy_us_per_op": busy_us["tokens"],
        "proxy.requests_per_op": calls("ProxyServer.request"),
        "proxy.busy_us_per_op": busy_us["proxy"],
        "proxy.reply_wait_us_per_op": self_us("RequestTracker.wait"),
        "proxy.retries_per_op": retries,
        "site.execute_us_per_op": self_us("SiteNode.execute"),
        "mpi.busy_us_per_op": busy_us["mpi"],
        "mpi.match_wait_us_per_op": self_us("Endpoint.match"),
        "wms.busy_us_per_op": busy_us["wms"],
        "wms.journal_us_per_op": self_us("FileJournal.append"),
        "wms.journal_bytes_per_op": journal_bytes,
        "obs.spans_per_op": calls("SpanRecorder.start"),
        "obs.busy_us_per_op": busy_us["obs"],
    }
    n = max(ops, 1)
    metrics = {name: value / n for name, value in per_op.items()}
    metrics["tunnel.frames_per_send"] = ratio(
        calls("Tunnel.send") + amount("Tunnel.send_many"), sends)
    metrics["reactor.frames_per_wakeup"] = ratio(
        amount("ReactorTcpChannel.poll_recv"), wakeups)
    metrics["tokens.guard_hit_ratio"] = ratio(guard["hits"], guard["guarded"])
    metrics["handshake.count"] = sum(build[h]["calls"] for h in handshakes)
    metrics["handshake.busy_ms"] = sum(build[h]["dur_s"] for h in handshakes) * 1e3
    metrics["rsa.keygen_ms"] = build["RsaKeyPair.generate"]["self_s"] * 1e3
    metrics["rsa.issue_ms"] = build["CertificationAuthority.issue"]["self_s"] * 1e3
    wall_us = wall_s * 1e6 / n
    metrics["trace.wall_us_per_op"] = wall_us
    metrics["trace.busy_us_per_op"] = sum(busy_us.values()) / n
    metrics["trace.unattributed_us_per_op"] = wall_us - metrics["trace.busy_us_per_op"]
    return metrics
