"""Boundary tracing for the traced run: spans around each layer's entry points.

The program is never edited.  :func:`install` replaces the entry points
listed in :data:`BOUNDARIES` with thin wrappers that time every call from
outside and restores the originals on :func:`uninstall`.  Wrappers are
installed on classes and modules *before* the traced world is built, so
bound methods that the program captures while it builds (RPC procedure
tables, link handlers) are wrapped too.  Timed runs never install them.

Each call opens a span.  A span's **self** time is its duration minus
the part covered by spans it opened (its children), so summing self time
over a layer never counts a nested layer twice.  Inclusive time is kept
only for the outermost active span of each name, so recursion does not
double it either.  Span times use ``time.perf_counter``; the process is
single-threaded, so wall time inside a span is the span's CPU time plus
any time the operating system took the processor away.

Up to :data:`MAX_RECORDED_SPANS` spans are also kept in memory and
written once at the end as Chrome trace-event JSON (``ph: "X"`` events;
Perfetto and ``chrome://tracing`` open it).  Each event carries its
parent span id and, on synchronous workloads, the op id of the workload
operation that caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

#: Spans kept for the span file; aggregates cover every span regardless.
MAX_RECORDED_SPANS = 100_000

_PUBLIC = object()  # marker: every public method the class defines

#: (span name, module, owner, attributes).  The span name's first
#: component(s) name the layer: ``crypto.arc4`` belongs to ``crypto``,
#: ``core.server.lease_fanout`` to ``core.server``.  Owner ``None`` means
#: module-level functions, looked up through the module at call time.
BOUNDARIES = [
    ("crypto.arc4", "repro.crypto.arc4", "ARC4",
     ["process", "encrypt", "decrypt", "keystream"]),
    ("crypto.arc4.key_schedule", "repro.crypto.arc4kernel", None,
     ["key_schedule"]),
    ("crypto.mac", "repro.crypto.mac", "SessionMAC",
     ["compute", "verify", "skip"]),
    ("crypto.sha1", "repro.crypto.backend", None, ["fast_sha1"]),
    ("crypto.sha1", "repro.crypto.sha1", "SHA1", ["update", "digest"]),
    ("crypto.rabin", "repro.crypto.rabin", "PublicKey",
     ["encrypt", "verify"]),
    ("crypto.rabin", "repro.crypto.rabin", "PrivateKey", ["decrypt", "sign"]),
    ("crypto.blowfish", "repro.crypto.blowfish", "Blowfish",
     ["encrypt_block", "decrypt_block", "encrypt_cbc", "decrypt_cbc"]),
    ("rpc.peer", "repro.rpc.peer", "RpcPeer",
     ["call", "call_task", "call_oneway", "serve_queued", "_on_record"]),
    ("rpc.xdr", "repro.rpc.xdr", "Codec", ["pack", "unpack"]),
    ("rpc.xdr", "repro.rpc.rpcmsg", None,
     ["pack_call", "pack_reply", "parse_message"]),
    ("nfs3.server", "repro.nfs3.server", "Nfs3Server",
     ["_getattr", "_setattr", "_lookup", "_access", "_readlink", "_read",
      "_write", "_create", "_mkdir", "_symlink", "_remove", "_rmdir",
      "_rename", "_link", "_readdir", "_readdirplus", "_fsstat",
      "_fsinfo", "_pathconf", "_commit", "_readv", "_writev"]),
    ("nfs3.client", "repro.nfs3.client", "Nfs3Client", ["_call"]),
    ("core.channel.send", "repro.core.channel", "SecureChannel", ["send"]),
    ("core.channel", "repro.core.channel", "SecureChannel",
     ["send_control", "_on_record"]),
    ("core.client", "repro.core.client", "MountedRemoteFs", ["_handle"]),
    ("core.client", "repro.core.client", "SfsClientDaemon",
     ["_getattr", "_lookup", "_access", "_readlink", "_readdir",
      "_fsinfo"]),
    ("core.client", "repro.core.client", "ServerSession",
     ["call_nfs", "call_nfs_task", "login", "login_task"]),
    ("core.keyneg", "repro.core.client", "ServerSession", ["connect"]),
    ("core.server", "repro.core.server", "ServerConnection",
     ["_relay", "_login", "_logout", "_connect", "_encrypt", "_rekey",
      "send_invalidate"]),
    ("core.server.lease_fanout", "repro.core.server", "RwExport",
     ["on_mutation"]),
    ("core.authserv.validate", "repro.core.authserv", "AuthServer",
     ["validate", "validate_batch"]),
    ("sim.sched", "repro.sim.sched", "Scheduler", ["run", "pump_once"]),
    ("sim.network", "repro.sim.network", "LinkSide", ["send"]),
    ("sim.network", "repro.sim.network", "Link", ["_deliver"]),
    ("sim.disk", "repro.sim.disk", "Disk", ["read", "write", "sync"]),
    ("kernel", "repro.kernel.vfs", "Process", _PUBLIC),
    ("fs", "repro.fs.memfs", "MemFs", _PUBLIC),
    ("obs", "repro.obs.registry", "Counter", ["inc"]),
    ("obs", "repro.obs.registry", "Gauge", ["set", "inc", "dec"]),
    ("obs", "repro.obs.registry", "Histogram", ["observe"]),
    ("obs", "repro.obs.registry", "CounterFamily", ["labels"]),
    ("obs", "repro.obs.trace", "LayerTracker", ["push", "pop"]),
]

#: Spans that also total the length of one argument (its index in the
#: call, counting ``self``): the channel's plaintext bytes per record.
SIZED = {"core.channel.send": 1}

#: Layers whose self time is reported as ``<layer>.host_s``.  A span
#: belongs to a layer when its name is the layer or starts with it.
LAYERS = ("crypto", "rpc", "nfs3", "core.channel", "core.client",
          "core.server", "sim.sched", "sim.network", "kernel", "fs", "obs")


class Tracer:
    """Aggregates per-span-name calls, self time and inclusive time."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds, inclusive seconds, depth]
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []   # open spans: [child seconds, id]
        self.events: list[tuple] = []
        self._next_id = 1
        #: Set by synchronous workloads before each op; stamped on spans.
        self.op_id: int | None = None
        #: Duration of spans opened with no span open: attributed time.
        self.top_level_s = 0.0
        self.origin = time.perf_counter()
        self._patched: list[tuple] = []
        #: span name -> total length of its sized argument (see SIZED).
        self.sizes: dict[str, int] = {}

    # -- aggregation -----------------------------------------------------

    def reset(self) -> None:
        """Zero the aggregates and drop recorded spans; spans still open
        (the caller's own) survive."""
        self.events.clear()
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = entry[2] = 0.0
        for name in self.sizes:  # in place: wrappers hold this dict
            self.sizes[name] = 0
        self.top_level_s = 0.0

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {name: (s[0], s[1], s[2]) for name, s in self.stats.items()}

    def _entry(self, name: str) -> list:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0, 0]
        return entry

    # -- wrappers --------------------------------------------------------

    def _open(self, entry: list) -> tuple[list, float]:
        entry[3] += 1
        span_id = 0
        if len(self.events) < MAX_RECORDED_SPANS:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, entry: list, frame: list,
               start: float) -> None:
        duration = time.perf_counter() - start
        stack = self._stack
        stack.pop()
        entry[3] -= 1
        entry[0] += 1
        entry[1] += duration - frame[0]
        if entry[3] == 0:
            entry[2] += duration
        if stack:
            stack[-1][0] += duration
            parent = stack[-1][1]
        else:
            self.top_level_s += duration
            parent = 0
        if frame[1]:
            self.events.append((frame[1], parent, name, start, duration,
                                self.op_id))

    def wrap(self, name: str, fn):
        entry = self._entry(name)
        open_, close = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                send, throw = None, None
                while True:
                    frame, start = open_(entry)
                    try:
                        if throw is not None:
                            waited = gen.throw(throw)
                        else:
                            waited = gen.send(send)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close(name, entry, frame, start)
                    try:
                        send, throw = (yield waited), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:
                        # Re-raised inside the wrapped generator, which
                        # either handles it or lets it propagate.
                        send, throw = None, exc
            return traced_gen

        size_arg = SIZED.get(name)
        if size_arg is not None:
            self.sizes.setdefault(name, 0)
            sizes = self.sizes

            @functools.wraps(fn)
            def traced_sized(*args, **kwargs):
                sizes[name] += len(args[size_arg])
                frame, start = open_(entry)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(name, entry, frame, start)
            return traced_sized

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = open_(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, entry, frame, start)
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for name, module_name, owner_name, attrs in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            if attrs is _PUBLIC:
                attrs = [attr for attr, value in vars(owner).items()
                         if not attr.startswith("_")
                         and inspect.isfunction(value)]
            for attr in attrs:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):  # ServerSession.connect
                    patched = classmethod(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reporting -------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, self_s, _incl, _depth) in self.stats.items():
            for layer in LAYERS:
                if name == layer or name.startswith(layer + "."):
                    totals[layer] += self_s
        return totals

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def inclusive_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def write_chrome_trace(self, path, metadata: dict) -> int:
        """Write recorded spans as Chrome trace-event JSON; returns count."""
        events = []
        for span_id, parent, name, start, duration, op_id in self.events:
            args = {"id": span_id, "parent": parent}
            if op_id is not None:
                args["op"] = op_id
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1, "tid": 1, "args": args,
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, out)
        return len(events)
