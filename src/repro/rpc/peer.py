"""A symmetric RPC peer: issues calls and serves programs over one pipe.

SFS connections are genuinely bidirectional — the server calls back to
the client to invalidate cache leases (paper section 3.3) — so instead of
separate client/server classes a single :class:`RpcPeer` owns each end of
a connection.  Programs register procedure tables; calls marshal through
the codecs in :mod:`repro.rpc.xdr`.

The underlying "pipe" is anything with ``send(bytes)`` and
``on_receive(handler)`` — a :class:`repro.sim.network.LinkSide`, a secure
channel wrapper, or a real TCP transport.  Wrapper pipes expose the link
underneath as ``transport``; the peer reads its transport hints
(``suggested_*``, ``synchronous_delivery``) from it once, at
construction.  There are two delivery modes:

* **synchronous** — the classic virtual network delivers inside
  ``send``, so a reply arrives by nested handler invocation before
  ``send`` returns;
* **asynchronous** — a pipelined link delivers when the clock crosses a
  record's arrival timer, and a TCP socket when its reader is pumped.

:meth:`RpcPeer.call_task` is the one code path that sends, awaits,
retries and times a call, in both modes.  Blocking entry points
(:meth:`RpcPeer.call`, the session's NFS relay and login) run a task
generator through :meth:`RpcPeer.drive`, which waits out each yielded
future by pumping the transport or advancing the virtual clock.

Set ``trace`` to a callable to pretty-print RPC traffic, mirroring the
debugging aid the paper credits for SFS's reliability ("Our RPC library
can pretty-print RPC traffic for debugging").
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from ..obs.registry import CounterFamily, NULL_REGISTRY
from ..sim.sched import Future, SchedulerStalled, Sleep
from . import rpcmsg
from .rpcmsg import (
    AUTH_NONE,
    CallHeader,
    NULL_AUTH,
    OpaqueAuth,
    ReplyHeader,
    parse_message,
)
from .xdr import Codec, VOID, XdrError


class Pipe(Protocol):
    """Minimal transport interface RpcPeer relies on."""

    def send(self, data: bytes) -> None: ...

    def on_receive(self, handler: Callable[[bytes], None]) -> None: ...


def _request_digest(record: bytes) -> bytes:
    """Identity of a call's bytes, for duplicate detection."""
    return hashlib.sha1(record).digest()


class RpcError(Exception):
    """Base class for RPC-level failures."""


class RpcTimeout(RpcError):
    """No reply arrived for an outstanding call (e.g. record dropped)."""


class RpcTransportDown(RpcTimeout):
    """The transport itself failed mid-call (connection closed).

    Raised immediately — retransmitting into a dead link cannot help,
    and the caller's reconnect machinery should run instead.  Subclasses
    :class:`RpcTimeout` because every handler that tolerates a lost
    reply (mount redial, session reconnect) must tolerate a lost
    connection the same way; this also puts a deadline on handshake
    RPCs, which previously hung when a server crashed mid-CONNECT."""


class RpcNoWaiter(RpcError):
    """No reply *could* arrive: delivery is asynchronous and no
    ``reply_waiter`` is configured.  A transport-wiring problem, not a
    lost record — deliberately *not* an :class:`RpcTimeout`, so retry
    and redial logic that treats timeouts as packet loss (or an attack)
    can never mask the misconfiguration; it fails fast instead."""


#: Minimum first-retransmission timeout on transports that deliver
#: asynchronously (pipelined links).  Generous on purpose — it must
#: outlast not just propagation but reply serialization (a 16-segment
#: READV is ~130 KB on the wire) *and* server-side device time (a
#: COMMIT can charge tens of milliseconds of disk).  Real NFS clients
#: start around a second for the same reason.  Retries exist to
#: recover *lost* records; on a clean link the reply resolves the call
#: future first and the timer never matters.
_ASYNC_RTO_FLOOR = 0.4


@dataclass
class RetryPolicy:
    """At-most-once retransmission with exponential backoff.

    A peer with a policy retransmits an unanswered call up to
    ``max_attempts`` times total, waiting ``base_delay`` before the
    first retry and multiplying by ``multiplier`` (capped at
    ``max_delay``) thereafter.  From the second retry on, the peer first
    invokes its ``recovery_hook`` (if any) so the session layer can
    repair a desynchronized secure channel before the record is resent.
    The receiving peer's duplicate-reply cache keeps the semantics
    at-most-once: a retransmitted call is answered from the cache, never
    re-executed.
    """

    max_attempts: int = 5
    base_delay: float = 0.002
    multiplier: float = 4.0
    max_delay: float = 0.5


class RpcRejected(RpcError):
    """The peer rejected or failed to accept the call."""

    def __init__(self, header: ReplyHeader) -> None:
        super().__init__(
            f"rpc rejected: reply_stat={header.reply_stat} "
            f"accept_stat={header.accept_stat} reject_stat={header.reject_stat}"
        )
        self.header = header


class RpcBusy(RpcRejected):
    """The server's request queue was full; the call never executed.

    The admission-control backpressure signal (``SERVER_BUSY``).  Unlike
    other rejections this one is *retryable by design*: the client backs
    off (``BackoffPolicy``) and resends as a fresh call — no duplicate
    hazard, because the server never started the procedure."""


@dataclass
class Procedure:
    """One registered procedure: codecs plus the handler."""

    name: str
    arg_codec: Codec
    res_codec: Codec
    handler: Callable[[Any, "CallContext"], Any]


@dataclass
class CallContext:
    """Passed to every handler: who called, with what credentials."""

    peer: "RpcPeer"
    header: CallHeader

    @property
    def cred(self) -> OpaqueAuth:
        return self.header.cred


class Program:
    """A (program number, version) with its procedure table."""

    def __init__(self, name: str, prog: int, vers: int) -> None:
        self.name = name
        self.prog = prog
        self.vers = vers
        self.procedures: dict[int, Procedure] = {}
        # Procedure 0 is the conventional NULL ping.
        self.add_proc(0, "NULL", VOID, VOID, lambda args, ctx: None)

    def add_proc(
        self,
        number: int,
        name: str,
        arg_codec: Codec,
        res_codec: Codec,
        handler: Callable[[Any, CallContext], Any],
    ) -> None:
        self.procedures[number] = Procedure(name, arg_codec, res_codec, handler)

    def proc(self, number: int, name: str, arg_codec: Codec, res_codec: Codec):
        """Decorator form of :meth:`add_proc`."""

        def register(handler: Callable[[Any, CallContext], Any]):
            self.add_proc(number, name, arg_codec, res_codec, handler)
            return handler

        return register


TraceFn = Callable[[str], None]


class RpcPeer:
    """One end of an RPC connection; both caller and dispatcher."""

    def __init__(self, pipe: Pipe, name: str = "peer",
                 trace: TraceFn | None = None) -> None:
        self._pipe = pipe
        self.name = name
        self.trace = trace
        # Wrapper pipes (secure channel, switchable pipe) expose the
        # link underneath as ``transport``; its hints are read once, here.
        transport = getattr(pipe, "transport", pipe)
        #: Optional hook for transports without synchronous delivery
        #: (real TCP): called repeatedly until the awaited reply lands.
        #: Must deliver at least one inbound record or raise.  Transports
        #: volunteer one via a `suggested_reply_waiter` attribute.
        self.reply_waiter: Callable[[], None] | None = getattr(
            transport, "suggested_reply_waiter", None
        )
        #: True when the transport delivers inside ``send`` (the virtual
        #: network); lets `call` tell a dropped record from a transport
        #: that has no way to wait for one.
        self.synchronous_delivery: bool = getattr(
            transport, "synchronous_delivery", False
        )
        #: Virtual clock to charge retry backoff to; None = wall clock.
        self.backoff_clock = getattr(transport, "suggested_clock", None)
        #: Metrics registry volunteered by the transport (see
        #: :mod:`repro.obs`).  The shared ``rpc.*`` counters aggregate
        #: across peers; the scoped call family backs
        #: :attr:`proc_counts` per peer.
        self.metrics = (getattr(transport, "suggested_metrics", None)
                        or NULL_REGISTRY)
        if self.metrics.enabled:
            self._calls_by_proc = self.metrics.scope(
                f"rpc.peer.{name}"
            ).family("calls")
        else:
            # proc_counts must keep working even with metrics disabled
            # (per-session RPC-mix assertions rely on it), so fall back
            # to an unregistered family.
            self._calls_by_proc = CounterFamily(f"rpc.peer.{name}.calls")
        self._m_calls = self.metrics.counter("rpc.calls")
        self._m_served = self.metrics.counter("rpc.served")
        self._m_retransmissions = self.metrics.counter("rpc.retransmissions")
        self._m_recoveries = self.metrics.counter("rpc.recoveries")
        self._m_timeouts = self.metrics.counter("rpc.timeouts")
        self._m_duplicates = self.metrics.counter("rpc.duplicates_served")
        self._m_evictions = self.metrics.counter("rpc.reply_cache_evictions")
        self._m_call_seconds = self.metrics.histogram("rpc.call_seconds")
        self._m_busy = self.metrics.counter("rpc.busy_replies")
        #: None (default) = classic single-shot calls.  Assign a
        #: :class:`RetryPolicy` to get retransmission + backoff.
        self.retry_policy: RetryPolicy | None = None
        #: Send-window depth for pipelined calls: at most this many
        #: xids in flight per channel.  ``None`` (default) = unlimited,
        #: the pre-window behavior.  When the window is full a new
        #: :meth:`call_task` *yields* on a slot future (backpressure by
        #: parking, never busy-spinning); completions hand their slot
        #: to the oldest waiter FIFO, so out-of-order replies still
        #: admit senders in arrival order.
        self.window_depth: int | None = getattr(
            transport, "suggested_window_depth", None
        )
        #: Round-trip estimate volunteered by the transport (pipelined
        #: links surface their propagation delay).  Floors the first
        #: retransmission timeout at 2x RTT: under synchronous delivery
        #: a reply is present before the timer is even armed, so the
        #: floor changes nothing, but once delivery takes real wire
        #: time a 2ms base delay would expire long before any reply
        #: could arrive and every call would retransmit itself into a
        #: channel rekey storm.
        self.rtt_estimate: float = (getattr(transport, "suggested_rtt", 0.0)
                                    or 0.0)
        self._window_in_flight = 0
        self._window_waiters: deque[Future] = deque()
        self.window_waits = 0
        self._m_window_waits = self.metrics.counter("rpc.window.waits")
        self._m_window_acquired = self.metrics.counter("rpc.window.acquired")
        self._m_window_in_flight = self.metrics.gauge("rpc.window.in_flight")
        #: When set, inbound CALLs are handed to this callable as
        #: ``dispatcher(header, body, request)`` instead of executing
        #: inline — the server's request queue hangs here.  The queue
        #: later runs the call via :meth:`serve_queued` or rejects it
        #: with :meth:`send_busy`.  Duplicate retransmissions are still
        #: answered from the reply cache *before* dispatch.
        self.dispatcher: Callable[[CallHeader, bytes, bytes], None] | None = None
        #: xid -> Future a cooperative task is waiting on (call_task).
        self._call_futures: dict[int, Future] = {}
        self._closed = False
        #: Called before the second and later retransmissions; the
        #: session layer hangs channel resynchronization here.  Returns
        #: truthy when it believes the path is repaired.
        self.recovery_hook: Callable[[], bool] | None = None
        self._xid = 0
        self._programs: dict[tuple[int, int], Program] = {}
        self._pending: dict[int, ReplyHeader | None] = {}
        self._results: dict[int, bytes] = {}
        #: xid -> (request digest, packed reply), for at-most-once
        #: semantics: a retransmitted call is answered from here, not
        #: re-executed.  The digest guards against xid collisions — only
        #: a byte-identical request counts as a retransmission; a new
        #: call that reuses an old xid executes normally.
        self._reply_cache: OrderedDict[int, tuple[bytes, bytes]] = OrderedDict()
        self.reply_cache_size = 128
        self.calls_sent = 0
        self.calls_served = 0
        self.retransmissions = 0
        self.recoveries = 0
        self.duplicates_served = 0
        self.reply_cache_evictions = 0
        pipe.on_receive(self._on_record)
        # Transports that can die under us (the virtual link on server
        # crash) volunteer an on_close hook; waiting tasks are failed
        # immediately instead of hanging until their timeout timers.
        on_close = getattr(pipe, "on_close", None)
        if callable(on_close):
            on_close(self._transport_closed)

    def _transport_closed(self) -> None:
        self._closed = True
        futures, self._call_futures = self._call_futures, {}
        for xid, future in futures.items():
            future.fail(RpcTransportDown(
                f"transport closed with xid {xid} in flight"
            ))

    @property
    def proc_counts(self) -> dict[tuple[int, int], int]:
        """(prog, proc) -> count of calls issued; the per-procedure RPC
        mix behind the paper's caching analysis (section 4.2).  Backed
        by this peer's metrics counter family."""
        return {key: counter.value
                for key, counter in self._calls_by_proc.items()}

    # --- serving ----------------------------------------------------------

    def register(self, program: Program) -> Program:
        self._programs[(program.prog, program.vers)] = program
        return program

    def unregister(self, prog: int, vers: int) -> None:
        self._programs.pop((prog, vers), None)

    def _on_record(self, data: bytes) -> None:
        peeked = rpcmsg.peek_message(data)
        if peeked is not None and peeked[0] == rpcmsg.CALL:
            cached = self._reply_cache.get(peeked[1])
            if cached is not None and cached[0] == _request_digest(data):
                # A retransmitted call we already executed: replay the
                # recorded reply so non-idempotent procedures keep
                # at-most-once semantics.
                self.duplicates_served += 1
                self._m_duplicates.inc()
                self._pipe.send(cached[1])
                return
        try:
            message = parse_message(data)
        except XdrError:
            # Garbage on the wire (e.g. adversarial injection below the
            # secure channel): drop it, exactly as a real stack would drop
            # an unparseable TCP record.
            if self.trace:
                self.trace(f"{self.name}: dropping unparseable record")
            return
        if message.mtype == rpcmsg.CALL:
            assert message.call is not None
            if self.dispatcher is not None:
                self.dispatcher(message.call, message.body, data)
            else:
                self._serve(message.call, message.body, data)
        else:
            assert message.reply is not None
            xid = message.reply.xid
            if xid in self._pending:
                self._pending[xid] = message.reply
                self._results[xid] = message.body
                future = self._call_futures.pop(xid, None)
                if future is not None:
                    future.resolve(message.reply)
            elif self.trace:
                self.trace(f"{self.name}: reply for unknown xid {xid}")

    def _serve(self, header: CallHeader, body: bytes, request: bytes) -> None:
        # The "rpc" layer claims dispatch, unmarshaling, and handler
        # glue; instrumented work the handler triggers (nfs3 dispatch,
        # crypto, network) is charged to its own layer by nesting.
        layers = self.metrics.layers
        layers.push("rpc")
        try:
            self._serve_inner(header, body, request)
        finally:
            layers.pop()

    def serve_queued(self, header: CallHeader, body: bytes,
                     request: bytes) -> None:
        """Execute a previously queued call (the request-queue workers'
        entry point — bypasses :attr:`dispatcher` so the queue cannot
        re-enqueue its own work)."""
        self._serve(header, body, request)

    def send_busy(self, xid: int) -> None:
        """Reject a call with ``SERVER_BUSY`` — admission control's
        backpressure reply.  Deliberately *not* inserted into the reply
        cache: a busy rejection is not an execution, and the client's
        backed-off resend must run for real next time."""
        self._m_busy.inc()
        record = rpcmsg.pack_reply(
            ReplyHeader(xid, accept_stat=rpcmsg.SERVER_BUSY)
        )
        try:
            self._pipe.send(record)
        except ConnectionError:
            pass  # client already gone; its retry logic owns recovery

    def _serve_inner(self, header: CallHeader, body: bytes,
                     request: bytes) -> None:
        program = self._programs.get((header.prog, header.vers))
        if program is None:
            versions = [v for (p, v) in self._programs if p == header.prog]
            if versions:
                reply = ReplyHeader(
                    header.xid,
                    accept_stat=rpcmsg.PROG_MISMATCH,
                    mismatch_low=min(versions),
                    mismatch_high=max(versions),
                )
            else:
                reply = ReplyHeader(header.xid, accept_stat=rpcmsg.PROG_UNAVAIL)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        procedure = program.procedures.get(header.proc)
        if procedure is None:
            reply = ReplyHeader(header.xid, accept_stat=rpcmsg.PROC_UNAVAIL)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        try:
            args = procedure.arg_codec.unpack(body)
        except XdrError:
            reply = ReplyHeader(header.xid, accept_stat=rpcmsg.GARBAGE_ARGS)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        if self.trace:
            self.trace(
                f"{self.name}: serve {program.name}.{procedure.name}({args!r})"
            )
        self.calls_served += 1
        self._m_served.inc()
        try:
            result = procedure.handler(args, CallContext(self, header))
            payload = procedure.res_codec.pack(result)
        except Exception as exc:  # noqa: BLE001 - surfaces as SYSTEM_ERR
            if self.trace:
                self.trace(
                    f"{self.name}: {program.name}.{procedure.name} failed: {exc!r}"
                )
            reply = ReplyHeader(header.xid, accept_stat=rpcmsg.SYSTEM_ERR)
            self._send_reply(header.xid, request, rpcmsg.pack_reply(reply))
            return
        self._send_reply(
            header.xid, request,
            rpcmsg.pack_reply(ReplyHeader(header.xid), payload),
        )

    def _send_reply(self, xid: int, request: bytes, record: bytes) -> None:
        """Send a reply and remember it for the duplicate-call cache."""
        self._reply_cache[xid] = (_request_digest(request), record)
        self._reply_cache.move_to_end(xid)
        while len(self._reply_cache) > self.reply_cache_size:
            # Past this point at-most-once degrades to at-least-once
            # for the evicted xid: a late retransmission re-executes.
            # The counter is the observable signal that the window has
            # been exceeded (see docs/OBSERVABILITY.md).
            self._reply_cache.popitem(last=False)
            self.reply_cache_evictions += 1
            self._m_evictions.inc()
        self._pipe.send(record)

    # --- calling ----------------------------------------------------------

    def _start_call(self, prog: int, vers: int, proc: int,
                    arg_codec: Codec, args: Any, cred: OpaqueAuth,
                    kind: str) -> tuple[int, bytes]:
        """Allocate an xid, marshal the call record, count and trace it."""
        self._xid += 1
        xid = self._xid
        header = CallHeader(xid, prog, vers, proc, cred=cred)
        record = rpcmsg.pack_call(header, arg_codec.pack(args))
        self.calls_sent += 1
        self._m_calls.inc()
        self._calls_by_proc.labels((prog, proc)).inc()
        if self.trace:
            self.trace(f"{self.name}: {kind} prog={prog} proc={proc} "
                       f"args={args!r}")
        return xid, record

    def _send_call(self, xid: int, record: bytes, prog: int,
                   proc: int) -> None:
        try:
            self._pipe.send(record)
        except ConnectionError as exc:
            raise RpcTransportDown(
                f"transport down for xid {xid} "
                f"(prog={prog} proc={proc}): {exc}"
            ) from exc

    def call_oneway(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        cred: OpaqueAuth = NULL_AUTH,
    ) -> None:
        """Send a call without waiting for (or tracking) its reply.

        For genuinely fire-and-forget notifications such as lease
        invalidations: the reply, when it eventually arrives, is
        dropped as an unknown xid.  Never retransmits, never pumps the
        transport — a peer that cannot answer (crashed, mid-resync)
        costs the caller nothing but the send.  Raises
        :class:`RpcTransportDown` if the link is already closed.
        """
        xid, record = self._start_call(prog, vers, proc, arg_codec, args,
                                       cred, "oneway")
        self._send_call(xid, record, prog, proc)

    def call(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        res_codec: Codec,
        cred: OpaqueAuth = NULL_AUTH,
    ) -> Any:
        """Issue a call and return the decoded result: :meth:`call_task`,
        run to completion by :meth:`drive`.

        Raises :class:`RpcTimeout` if no reply arrives (dropped record),
        :class:`RpcNoWaiter` if none could have (asynchronous transport
        with no reply waiter configured), and :class:`RpcRejected` on a
        non-SUCCESS reply.

        With a :attr:`retry_policy` set, an unanswered call is
        retransmitted verbatim — same xid, same bytes — after an
        exponentially backed-off delay; the remote peer's duplicate-reply
        cache guarantees the procedure still executes at most once.
        From the second retry on, :attr:`recovery_hook` runs first so a
        desynchronized secure channel can be re-keyed before the record
        goes out again.
        """
        return self.drive(self.call_task(
            prog, vers, proc, arg_codec, args, res_codec, cred,
        ))

    def drive(self, gen) -> Any:
        """Run a task generator to completion, synchronously.

        The blocking entry point for any generator built on
        :meth:`call_task`.  Mirrors the scheduler's step protocol —
        resolve/fail whatever the generator yields, send the outcome
        back in — so the task path and the blocking path are one
        implementation: a yielded future is waited out by
        :meth:`_wait_sync`, a :class:`~repro.sim.sched.Sleep` (or a
        bare delay) is spent on the backoff clock.  The ``"rpc"`` layer
        is charged for the whole drive.
        """
        layers = self.metrics.layers
        layers.push("rpc")
        try:
            waited = next(gen)
            while True:
                if isinstance(waited, Future):
                    self._wait_sync(waited)
                    if waited.exception is not None:
                        waited = gen.throw(waited.exception)
                    else:
                        waited = gen.send(waited.value)
                elif isinstance(waited, Sleep):
                    self._backoff(waited.seconds)
                    waited = gen.send(None)
                else:
                    self._backoff(float(waited))
                    waited = gen.send(None)
        except StopIteration as stop:
            return stop.value
        except BaseException:
            # A transport error surfaced outside the generator (e.g. a
            # TCP pump raising mid-wait): run its finally blocks so the
            # pending tables and window slot are reclaimed.
            gen.close()
            raise
        finally:
            layers.pop()

    def _wait_sync(self, future: Future) -> None:
        """Block (in simulation terms) until *future* completes.

        Three ways forward, tried in order each iteration: pump the
        transport's reply waiter; advance the backoff clock to the next
        timer (the attempt's retransmission deadline, when a retry
        policy armed one); or fail the future — with
        :class:`RpcTimeout` when delivery is synchronous (the record
        was dropped inside ``send``), with :class:`RpcNoWaiter` when
        the transport is asynchronous and nothing can ever pump it.
        """
        while not future.done:
            if self.reply_waiter is not None:
                try:
                    self.reply_waiter()
                except SchedulerStalled:
                    # Nothing runnable and no timer: the record (or its
                    # reply) was lost.  Same as an elapsed
                    # retransmission timeout — the task path retries.
                    future.fail(RpcTimeout(
                        f"scheduler stalled waiting on {future.name}"
                    ))
                continue
            clock = self.backoff_clock
            if (clock is not None and self.retry_policy is not None):
                deadline = clock.next_deadline()
                if deadline is not None:
                    # No pump to run, but the retry policy armed a
                    # retransmission timer: advance to it (charging the
                    # wait to the virtual clock, exactly like the old
                    # synchronous backoff did).
                    clock.advance(max(0.0, deadline - clock.now))
                    continue
            if self.synchronous_delivery:
                future.fail(RpcTimeout(
                    f"no nested reply for {future.name}"
                ))
            else:
                future.fail(RpcNoWaiter(
                    f"no reply possible for {future.name}: transport "
                    "delivers asynchronously and no reply_waiter is "
                    "configured — wire one up (e.g. TcpPipe.pump) "
                    "before calling"
                ))

    # --- the send window --------------------------------------------------

    def _window_acquire(self):
        """Take (or wait for) an in-flight slot; ``yield from`` it."""
        depth = self.window_depth
        if depth is None:
            return
        if self._window_in_flight < depth and not self._window_waiters:
            self._window_in_flight += 1
        else:
            slot = Future(name=f"{self.name}:window-slot")
            self._window_waiters.append(slot)
            self.window_waits += 1
            self._m_window_waits.inc()
            # Backpressure: park until a completion hands this slot
            # over (the releaser does NOT decrement — ownership moves).
            yield slot
        self._m_window_acquired.inc()
        self._m_window_in_flight.set(self._window_in_flight)

    def _window_release(self) -> None:
        if self._window_waiters:
            # Hand the slot to the oldest waiter instead of freeing it:
            # FIFO admission even when replies complete out of order.
            self._window_waiters.popleft().resolve(None)
        else:
            self._window_in_flight = max(0, self._window_in_flight - 1)
        self._m_window_in_flight.set(self._window_in_flight)

    def _rejection(self, reply: ReplyHeader) -> RpcRejected:
        if (reply.reply_stat == rpcmsg.MSG_ACCEPTED
                and reply.accept_stat == rpcmsg.SERVER_BUSY):
            return RpcBusy(reply)
        return RpcRejected(reply)

    def _backoff(self, delay: float) -> None:
        """Wait before a retransmission, on whichever clock applies."""
        if delay <= 0:
            return
        if self.backoff_clock is not None:
            self.backoff_clock.advance(delay)
        else:
            time.sleep(delay)

    def call_task(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        res_codec: Codec,
        cred: OpaqueAuth = NULL_AUTH,
    ):
        """The one call path (``yield from`` it, or :meth:`drive` it).

        Instead of pumping the transport until the reply lands, the
        generator yields a :class:`~repro.sim.sched.Future` per attempt
        and suspends, so many in-flight calls share one transport.  The
        retry policy's backoff schedule doubles as the per-attempt
        timeout: a timer fails the future after the attempt's delay,
        the task wakes, and the record is retransmitted (same xid, same
        bytes — at-most-once via the remote reply cache).  Raises the
        same exceptions as :meth:`call`, plus :class:`RpcBusy` when the
        server's admission control rejects the call.  Its simulated
        duration is observed into ``rpc.call_seconds``.

        With :attr:`window_depth` set, the call first acquires an
        in-flight slot (yielding on a slot future when the window is
        full — backpressure without busy-spinning) and releases it on
        completion, handing it FIFO to the oldest waiter.
        """
        if self.window_depth is not None:
            yield from self._window_acquire()
            try:
                result = yield from self._call_task_inner(
                    prog, vers, proc, arg_codec, args, res_codec, cred,
                )
            finally:
                self._window_release()
            return result
        return (yield from self._call_task_inner(
            prog, vers, proc, arg_codec, args, res_codec, cred,
        ))

    def _call_task_inner(
        self,
        prog: int,
        vers: int,
        proc: int,
        arg_codec: Codec,
        args: Any,
        res_codec: Codec,
        cred: OpaqueAuth,
    ):
        xid, record = self._start_call(prog, vers, proc, arg_codec, args,
                                       cred, "call")
        self._pending[xid] = None
        clock = self.backoff_clock
        sim0 = clock.now if clock is not None else 0.0
        policy = self.retry_policy
        attempts = policy.max_attempts if policy is not None else 1
        timeout = policy.base_delay if policy is not None else 0.0
        if policy is not None and not self.synchronous_delivery:
            # Asynchronous transports have real wire time between send
            # and reply: propagation (2x RTT margin) plus serialization
            # of large vectored replies, which the sender cannot size in
            # advance.  Floor the first retransmission timeout so only
            # genuine loss — not a reply still on the wire — triggers a
            # resend (and, worse, the second-retry channel rekey).  Under
            # synchronous delivery the reply beats the timer by
            # construction, so legacy timing is untouched.
            timeout = max(timeout, 2.0 * self.rtt_estimate,
                          _ASYNC_RTO_FLOOR)
        try:
            reply = None
            for attempt in range(attempts):
                if attempt:
                    self.retransmissions += 1
                    self._m_retransmissions.inc()
                    if self.trace:
                        self.trace(
                            f"{self.name}: retransmit xid={xid} "
                            f"(attempt {attempt + 1}/{attempts})"
                        )
                    if attempt >= 2 and self.recovery_hook is not None:
                        try:
                            if self.recovery_hook():
                                self.recoveries += 1
                                self._m_recoveries.inc()
                        except Exception:  # noqa: BLE001 - keep retrying
                            pass
                if self._closed:
                    self._m_timeouts.inc()
                    raise RpcTransportDown(
                        f"transport down for xid {xid} "
                        f"(prog={prog} proc={proc})"
                    )
                future = Future(name=f"{self.name}:xid{xid}")
                self._call_futures[xid] = future
                try:
                    self._send_call(xid, record, prog, proc)
                except RpcTransportDown:
                    self._m_timeouts.inc()
                    raise
                reply = self._pending.get(xid)
                if reply is not None:
                    break  # nested synchronous delivery answered already
                if clock is not None and policy is not None:
                    def expire(future=future, xid=xid) -> None:
                        if not future.done:  # reply already landed: no-op
                            future.fail(RpcTimeout(f"no reply for xid {xid}"))
                    clock.call_at(clock.now + timeout, expire)
                    timeout = min(timeout * policy.multiplier,
                                  policy.max_delay)
                try:
                    yield future
                except RpcTransportDown:
                    raise
                except RpcTimeout:
                    continue  # this attempt timed out: retransmit
                reply = self._pending.get(xid)
                if reply is not None:
                    break
            if reply is None:
                self._m_timeouts.inc()
                raise RpcTimeout(
                    f"no reply for xid {xid} (prog={prog} proc={proc})"
                )
            if not reply.successful:
                raise self._rejection(reply)
            return res_codec.unpack(self._results.pop(xid))
        finally:
            self._pending.pop(xid, None)
            self._results.pop(xid, None)
            self._call_futures.pop(xid, None)
            if clock is not None:
                self._m_call_seconds.observe(clock.now - sim0)
