"""The one load driver: N client slots under the scheduler.

A topology builds a world, dials one session per client and fills a
:class:`LoadDriver`'s list of :class:`ClientSlot` (the session, the
handles its operations pick from, the shard tally it also reports
into).  The driver runs the slots **closed loop** (think, call, repeat,
through each :class:`WorkloadPhase` in turn; offered load scales with N
against the server's fixed workers × 1/service_time capacity, so tail
latency degrades super-linearly once the queue is the bottleneck) or
**open loop** (Poisson arrivals, each its own task on a round-robin
slot, so one transport multiplexes many in-flight calls).  It owns the
control plane's shedding hook, crash failover, and failure counting.

:class:`LoadHarness` is the single-server topology; ``fleet.bench`` and
``control.bench`` build the multi-server ones.  The helpers every
topology shares live here too: :class:`Dialer`, :func:`lookup_path`,
:func:`seed_world_readable`, and :func:`poisson_arrivals` (also behind
the auth and scenario login storms).

Latencies are *simulated* seconds, so a report is a pure function of
the configuration and seed.  Each also lands in the topology's
histogram (``load.op_seconds`` or ``fleet.op_seconds``), whose
interpolated percentiles the reports' exact ones cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import proto
from ..core.client import ServerSession
from ..core.keyneg import EphemeralKeyCache
from ..fs import pathops
from ..fs.memfs import Cred
from ..kernel.world import World
from ..nfs3 import const as nfs_const
from ..nfs3 import types as nfs_types
from ..obs import NULL_REGISTRY, nearest_rank
from ..rpc.peer import RetryPolicy, RpcError, RpcTransportDown
from ..sim.sched import Sleep
from .workload import DEFAULT_MIX, FILE_SIZE, OpMix, OpStream

#: Unbounded-enough queue depth standing in for "admission control off".
NO_ADMISSION_LIMIT = 1 << 30

#: Content of every seeded workload file.
FILE_CONTENT = bytes(range(256)) * (FILE_SIZE // 256)


# -- shared set-up helpers --------------------------------------------------


def seed_world_readable(fs, path: str, content: bytes = FILE_CONTENT) -> None:
    """Create *path* as a root-owned, mode 0666 file holding *content*.

    World-accessible, so anonymous (authno 0) clients can GETATTR, READ
    and WRITE it without running the login protocol: load figures
    measure the data path, not authentication.
    """
    directory, _, name = path.rpartition("/")
    owner = Cred(uid=0, gid=0)
    parent = pathops.resolve(fs, directory or "/")
    inode = fs.create(parent.ino, name, owner, mode=0o666)
    fs.write(inode.ino, 0, content, owner)
    fs.commit(inode.ino)


def lookup_path(session: ServerSession, *names: str,
                directory: bytes | None = None) -> bytes:
    """LOOKUP *names* one component at a time, anonymously.

    Starts at *directory*, or else at the export root (the RW dialect's
    mount convention: ``"."`` under the all-zero handle).  The handle
    map is a pure function of the export's durable key, so the handle
    is valid on every session to that export, and across a restart.
    """
    if directory is None:
        directory, names = bytes(24), (".",) + names
    for name in names:
        status, body = session.call_nfs(
            nfs_const.NFSPROC3_LOOKUP,
            nfs_types.LookupArgs.make(
                what=nfs_types.DirOpArgs.make(dir=directory, name=name)
            ),
            authno=0,
        )
        if status != nfs_const.NFS3_OK:
            raise RuntimeError(f"lookup({name}) failed: status {status}")
        directory = body.object
    return directory


class Dialer:
    """Dials file-service sessions for one population of clients.

    One shared ephemeral-key cache plays N identically configured client
    machines without paying N key generations.  Every session gets
    *policy* as its retransmission policy (read-only, so one instance
    serves them all).  Each dial runs the handshake synchronously,
    pumping the scheduler while it waits on a queued server.
    """

    def __init__(self, world: World, policy: RetryPolicy,
                 encrypt: bool = True) -> None:
        self.world = world
        self.policy = policy
        self.encrypt = encrypt
        self.keys = EphemeralKeyCache(world.rng)

    def __call__(self, location: str, path) -> ServerSession:
        link = self.world.connector(location, proto.SERVICE_FILESERVER)
        session = ServerSession.connect(link, path, self.keys,
                                        self.world.rng, encrypt=self.encrypt)
        assert isinstance(session, ServerSession), session
        session.peer.retry_policy = self.policy
        return session


def poisson_arrivals(scheduler, rng: random.Random, rate: float,
                     duration: float, arrival, name: str):
    """Task body: Poisson arrivals at *rate* for *duration* seconds.

    At each arrival, ``arrival(index)`` is called and the generator it
    returns is spawned as task ``f"{name}-{index}"``.  The deadline is
    read when the task first runs.  Returns the number of arrivals.
    """
    clock = scheduler.clock
    deadline = clock.now + duration
    index = 0
    while clock.now < deadline:
        yield Sleep(rng.expovariate(rate))
        scheduler.spawn(arrival(index), name=f"{name}-{index}")
        index += 1
    return index


# -- configuration and reports ----------------------------------------------


@dataclass
class LoadConfig:
    """Everything a load run depends on; hashable into a seed story."""

    clients: int = 4
    ops_per_client: int = 25
    seed: int = 2026
    think_time: float = 0.010
    io_size: int = 4096
    mix: OpMix = DEFAULT_MIX
    file_count: int = 8
    encrypt: bool = True
    #: Admission control: None = unbounded queue (backpressure off).
    max_depth: int | None = 32
    workers: int = 2
    queue_policy: str = "fifo"
    service_time: float = 0.001
    contention: bool = True
    #: Per-attempt RPC retransmission timer.  The single-client default
    #: (2 ms) assumes an idle server; under deliberate queueing delay it
    #: would fire constantly and every retransmit would be re-admitted
    #: as new work — a retransmission storm.  Load runs wait out the
    #: queue instead and let SERVER_BUSY carry the backpressure.
    rpc_timeout: float = 1.0
    #: Arm each session's reconnect engine (crash-failover runs).
    failover: bool = False
    #: Task-native async core (PROTOCOLS.md §17): None = classic
    #: synchronous delivery; N > 1 = pipelined links with a send window
    #: of N in-flight RPCs per session.  Scale runs use this to overlap
    #: wire time across the fleet instead of serializing every record.
    pipeline_depth: int | None = None
    #: Open loop only: mean arrivals per simulated second and how long
    #: to keep them coming.
    arrival_rate: float = 200.0
    duration: float = 1.0


@dataclass
class ShardReport:
    """One shard's share of a multi-server run."""

    location: str
    names: int = 0
    clients: int = 0
    ops_completed: int = 0
    p50: float = 0.0
    p99: float = 0.0
    peak_queue_depth: int = 0
    latencies: list[float] = field(default_factory=list, repr=False)

    def finish(self) -> None:
        ordered = sorted(self.latencies)
        self.ops_completed = len(ordered)
        self.p50 = nearest_rank(ordered, 0.50)
        self.p99 = nearest_rank(ordered, 0.99)


@dataclass
class LoadReport:
    """One run's outcome, all figures in simulated seconds."""

    clients: int
    ops_completed: int = 0
    op_errors: int = 0
    busy_retries: int = 0
    admission_rejects: int = 0
    max_queue_depth: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    unfinished_tasks: int = 0
    #: Per-shard splits, in fleet order (multi-server topologies only).
    shards: list[ShardReport] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list, repr=False)

    def finish(self, duration: float) -> None:
        self.duration = duration
        ordered = sorted(self.latencies)
        self.ops_completed = len(ordered)
        if duration > 0:
            self.throughput = self.ops_completed / duration
        if ordered:
            self.mean = sum(ordered) / len(ordered)
        self.p50 = nearest_rank(ordered, 0.50)
        self.p95 = nearest_rank(ordered, 0.95)
        self.p99 = nearest_rank(ordered, 0.99)
        for shard in self.shards:
            shard.finish()


@dataclass
class WorkloadPhase:
    """One segment of a phased closed-loop run.

    Fields left ``None`` inherit the harness config, so a phase list
    like ``[warm-up, storm]`` only states what changes — e.g. a
    write-heavy mix with zero think time for a lease-invalidation
    storm.  Each phase accumulates into its own :class:`LoadReport`.
    """

    name: str
    ops_per_client: int
    think_time: float | None = None
    io_size: int | None = None
    mix: OpMix | None = None


@dataclass
class ClientSlot:
    """One load client, as the driver sees it."""

    session: ServerSession
    #: The handles its operations pick from.  A live list: replacing
    #: its contents in place retargets the client's op stream.
    handles: list[bytes]
    #: The shard tally its completed operations also land in.
    shard: ShardReport | None = None


# -- the driver --------------------------------------------------------------


class LoadDriver:
    """Drives client slots on one world's scheduler.

    A topology builds its world, calls ``LoadDriver.__init__`` with the
    instruments its figure reports into, and fills :attr:`queues` and
    :attr:`slots` (in spawn order).  It may override :meth:`_new_report` (the report a run
    fills) and :meth:`_collect` (what to read back after a run).
    """

    #: Replay an operation once after its transport died, through the
    #: session's reconnect engine (:attr:`LoadConfig.failover`).
    failover = False

    def __init__(self, config, world: World, scheduler, label: str,
                 op_seconds, shard_ops=None, shed=None) -> None:
        self.config = config
        self.world = world
        self.scheduler = scheduler
        #: Task-name prefix of this driver's clients.
        self.label = label
        self.slots: list[ClientSlot] = []
        #: Each server's request queue, by location.
        self.queues: dict = {}
        #: Load-shedding hook (control plane): clients multiply every
        #: think-time draw by this factor, so raising it lowers the
        #: offered rate without disturbing the rng sequence.
        self.think_scale = 1.0
        self._m_op_seconds = op_seconds
        self._m_shard_ops = shard_ops     # completed ops by shard location
        self._m_shed = (shed if shed is not None
                        else NULL_REGISTRY.gauge("load.think_scale"))
        self._m_shed.set(1.0)

    def dialer(self) -> Dialer:
        """A dialer whose sessions wait out queueing delay: the
        retransmission timer starts at ``config.rpc_timeout`` and
        doubles up to 4x it (see :attr:`LoadConfig.rpc_timeout`)."""
        timeout = self.config.rpc_timeout
        return Dialer(self.world, RetryPolicy(
            base_delay=timeout, multiplier=2.0, max_delay=4.0 * timeout,
        ), encrypt=self.config.encrypt)

    # -- one operation, as task steps --------------------------------------

    def _run_op(self, slot: ClientSlot, stream: OpStream, report):
        """Issue one operation; yields while it is in flight.

        A transport failure (server crash) triggers the session's
        synchronous reconnect engine — which redials, re-verifies the
        HostID, renegotiates keys, all while pumping the scheduler — and
        then replays the operation once on the fresh connection.
        """
        session = slot.session
        proc, args = stream.next_op()
        clock = self.world.clock
        start = clock.now
        try:
            status, _body = yield from session.call_nfs_task(proc, args, 0)
        except RpcTransportDown:
            # The reconnect engine is deliberately synchronous (redial,
            # HostID re-verification, key renegotiation); under
            # strict_pump this is the one sanctioned in-task pump scope.
            with self.scheduler.allow_legacy_pump():
                recovered = self.failover and session.reconnect()
            if not recovered:
                report.op_errors += 1
                return False
            try:
                status, _body = yield from session.call_nfs_task(
                    proc, args, 0)
            except RpcError:
                report.op_errors += 1
                return False
        except RpcError:
            # Backoff exhausted against a persistently full queue, or a
            # rejection: the op failed, the client moves on.
            report.op_errors += 1
            return False
        if status != nfs_const.NFS3_OK:
            report.op_errors += 1
            return False
        latency = clock.now - start
        report.latencies.append(latency)
        self._m_op_seconds.observe(latency)
        shard = slot.shard
        if shard is not None:
            shard.latencies.append(latency)
            if self._m_shard_ops is not None:
                self._m_shard_ops.labels(shard.location).inc()
        return True

    def set_think_scale(self, scale: float) -> float:
        """Shed (scale > 1) or restore (1.0) closed-loop offered load.

        The control plane's load-shedding actuator calls this when a
        fleet SLO breaches; clients pick the new factor up on their next
        think-time draw.  Never drops below 1.0 — shedding can only
        slow clients down, not speed them past the configured load.
        """
        self.think_scale = max(1.0, float(scale))
        self._m_shed.set(self.think_scale)
        return self.think_scale

    def _client(self, index: int, phases: "list[WorkloadPhase]",
                reports: "dict[str, LoadReport]"):
        """One client running every phase in order, no barrier between
        clients: a fast client may be two phases ahead of a slow one,
        like real traffic shifting shape rather than stopping.

        Op streams are seeded ``((seed << 8) ^ index) + 0x51C0 * phase``
        and think times ``(seed << 16) ^ index``, so a one-phase run is
        the plain closed loop.
        """
        config = self.config
        slot = self.slots[index]
        think_rng = random.Random((config.seed << 16) ^ index)
        for number, phase in enumerate(phases):
            stream = OpStream(
                slot.handles,
                phase.mix if phase.mix is not None else config.mix,
                phase.io_size if phase.io_size is not None
                else config.io_size,
                seed=((config.seed << 8) ^ index) + 0x51C0 * number,
            )
            report = reports[phase.name]
            think = (config.think_time if phase.think_time is None
                     else phase.think_time)
            for _op in range(phase.ops_per_client):
                if think > 0:
                    yield Sleep(think_rng.expovariate(1.0 / think)
                                * self.think_scale)
                yield from self._run_op(slot, stream, report)

    def spawn_phased_clients(self, phases: "list[WorkloadPhase]",
                             reports: "dict[str, LoadReport] | None" = None
                             ) -> "dict[str, LoadReport]":
        """Spawn (without running) one phased task per client slot.

        The caller owns the scheduler run — that is the point: a
        scenario engine runs these tasks alongside its own event
        timeline and other harnesses, then reads the per-phase reports
        back.  Pass *reports* to share accumulators across harnesses.
        """
        if reports is None:
            reports = {}
        for phase in phases:
            if phase.name not in reports:
                reports[phase.name] = LoadReport(clients=self.config.clients)
        for index in range(len(self.slots)):
            self.scheduler.spawn(self._client(index, phases, reports),
                                 name=f"{self.label}-client-{index}")
        return reports

    # -- run loops ---------------------------------------------------------

    def run_closed_loop(self) -> LoadReport:
        """Every client issues ``ops_per_client`` operations."""
        report = self._new_report()
        start = self.world.clock.now
        phase = WorkloadPhase("closed-loop", self.config.ops_per_client)
        self.spawn_phased_clients([phase], {phase.name: report})
        return self._finish(report, start)

    def run_open_loop(self) -> LoadReport:
        """Poisson arrivals at ``arrival_rate`` for ``duration`` seconds.

        Each arrival is its own task on a round-robin slot — many
        operations in flight per transport, not one."""
        config = self.config
        report = self._new_report()
        start = self.world.clock.now

        def arrival(index: int):
            slot = self.slots[index % len(self.slots)]
            stream = OpStream(slot.handles, config.mix, config.io_size,
                              seed=(config.seed << 8) ^ (0xA5A5 + index))
            return self._run_op(slot, stream, report)

        self.scheduler.spawn(poisson_arrivals(
            self.scheduler, random.Random(config.seed ^ 0x9E3779B9),
            config.arrival_rate, config.duration, arrival, "op",
        ), name="arrivals")
        return self._finish(report, start)

    def _finish(self, report: LoadReport, start: float) -> LoadReport:
        blocked = self.scheduler.run()
        report.unfinished_tasks = len(blocked)
        report.op_errors += len(self.scheduler.failed)
        report.busy_retries = sum(slot.session.busy_retries
                                  for slot in self.slots)
        report.admission_rejects = self.world.metrics.counter(
            "server.queue.rejected").value
        report.max_queue_depth = max(queue.peak_depth
                                     for queue in self.queues.values())
        self._collect(report)
        report.finish(self.world.clock.now - start)
        return report

    def _new_report(self) -> LoadReport:
        return LoadReport(clients=self.config.clients)

    def _collect(self, report: LoadReport) -> None:
        """Read topology-specific results into *report* after a run."""


class LoadHarness(LoadDriver):
    """The single-server topology: N sessions against one queued server."""

    def __init__(self, config: LoadConfig, location: str = "load.sfs.test",
                 world: World | None = None, server=None) -> None:
        #: Scenario composition: pass an existing *world* (and
        #: optionally a *server* in it) to drive load against machinery
        #: someone else built — shared clock, scheduler, control plane
        #: and all.  Default: a self-contained world, as always.
        world = world if world is not None else World(seed=config.seed)
        if config.pipeline_depth and config.pipeline_depth > 1:
            scheduler = world.enable_pipelining(
                depth=config.pipeline_depth, seed=config.seed)
        else:
            scheduler = world.enable_concurrency(seed=config.seed)
        if config.contention:
            world.enable_contention()
        if server is None:
            server = world.add_server(location)
        self.server = server
        self.location = server.location
        super().__init__(
            config, world, scheduler, self.location,
            op_seconds=world.metrics.histogram("load.op_seconds"),
            shed=world.metrics.gauge("load.think_scale"),
        )
        self.failover = config.failover
        self.path = (server.path if "default" in server.exports
                     else server.export_fs())
        for index in range(config.file_count):
            seed_world_readable(server.fs, f"/load{index}")
        if server.master.request_queue is not None:
            self.queue = server.master.request_queue
        else:
            self.queue = server.enable_queueing(
                max_depth=(config.max_depth if config.max_depth is not None
                           else NO_ADMISSION_LIMIT),
                workers=config.workers, policy=config.queue_policy,
                service_time=config.service_time,
            )
        self.queues = {self.location: self.queue}
        dial = self.dialer()
        self.sessions: list[ServerSession] = []
        for _index in range(config.clients):
            session = dial(self.location, self.path)
            if config.failover:
                session.enable_reconnect(world.connector, world.clock)
            self.sessions.append(session)
        self.handles = self.resolve_handles(self.sessions[0])
        self.slots = [ClientSlot(session, self.handles)
                      for session in self.sessions]

    def resolve_handles(self, session: ServerSession) -> list[bytes]:
        """The seeded files' handles, looked up through *session*."""
        root = lookup_path(session)
        return [lookup_path(session, f"load{index}", directory=root)
                for index in range(self.config.file_count)]
