"""The four benchmark workloads.

Each workload builds one World from its seed and then runs *epochs*: a
fixed, seeded batch of operations that ends with every operation done.
The number of epochs follows from the run length alone (see
:meth:`Workload.epochs`), never from how fast the host is, so every
simulated fact of a run is a pure function of its seed and length, and
two commits are always measured on the same work.

An *op* is one call from the generator into the system: a syscall on the
kernel ``Process`` facade, an NFS call on a ``ServerSession``, or a
login.  Ops carry their simulated latency and an outcome: ``ok``,
``failed`` (error or wrong answer), ``refused`` (shed by admission
control) or ``unfinished``.

The system is driven only through ``World``, ``Process``,
``ServerSession``, ``Agent``, ``AuthFleet`` and ``Scheduler``.
"""

from __future__ import annotations

import errno
import gc
import itertools
import random
import time
from collections import deque
from dataclasses import dataclass, replace
from statistics import median

from repro.core import proto
from repro.core.agent import Agent
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types
from repro.rpc.peer import RetryPolicy, RpcBusy, RpcError
from repro.sim.network import NetworkParameters
from repro.sim.sched import Future, Sleep

from measure import at_reference_speed, calibration_seconds

BENCH_UID = 1000
ROOT_CRED = Cred(0, 0)
#: Calibration rounds run before each timed set-up step.
SETUP_PROBE_ROUNDS = 2
#: World seeds (key material) of the timed set-ups, the same in every run.
SETUP_WORLD_SEEDS = [random.Random(f"setup:{n}").getrandbits(64)
                     for n in range(16)]


@dataclass
class Op:
    kind: str
    latency: float      # simulated seconds
    outcome: str = "ok"


@dataclass
class Epoch:
    ops: list[Op]
    cpu_s: float        # process CPU seconds
    sim_s: float        # simulated seconds
    wall_s: float       # wall seconds
    probe_s: float      # CPU seconds per calibration round before it


class Workload:
    """Base: seeded set-up, epochs, output checks."""

    name = ""
    #: Fewest epochs in a timed phase: enough for 1,000 ops.
    min_epochs = 1
    #: CPU seconds one epoch takes on the reference host (a 2-core x86
    #: container, CPython 3.11): sets how many epochs fill a run.
    epoch_cpu_s = 1.0
    #: Full set-ups made to report the median set-up time.
    setup_repeats = 5
    #: True when each op runs to completion before the next starts, so
    #: spans can carry the op id.
    synchronous = True

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        #: Epochs the timed phase will run; set before the first one.
        self.epoch_count = 0
        #: Seeds the World (key material, scheduler); see :meth:`setup`.
        self.world_seed = seed
        self.tracer = tracer
        self.failures: list[str] = []
        self.world: World | None = None
        self._op_id = 0

    def rng(self, *parts) -> random.Random:
        """A generator seeded from the run seed and *parts* (str seeds
        hash through SHA-512, so they do not depend on PYTHONHASHSEED)."""
        return random.Random(":".join(str(p) for p in (self.seed,) + parts))

    @property
    def clock(self):
        return self.world.clock

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def epochs(self, seconds: float) -> int:
        """Epochs in a timed phase of about *seconds* on the reference
        host.  A faster or slower host or commit runs the same epochs."""
        return max(self.min_epochs, round(seconds / self.epoch_cpu_s))

    def setup(self) -> tuple[float, dict]:
        """Build ``setup_repeats`` times; return the median CPU seconds
        at the reference host's speed, and the individual times.

        Key generation searches for primes, so its cost depends on the
        key material, by up to 2x on ``smallfile-sync``.  The timed
        set-ups therefore draw their key material from a fixed list of
        world seeds, the same in every run, so ``setup_s`` measures the
        same work whatever the run seed.  The world for the timed phase
        is then built from the run seed itself; that build is recorded
        but not in the median."""
        raw, scaled = [], []
        for repeat in range(self.setup_repeats):
            self.world_seed = SETUP_WORLD_SEEDS[repeat]
            self.world = None
            cpu_s, at_reference = calibrated(self.build)
            raw.append(cpu_s)
            scaled.append(at_reference)
        self.world_seed = self.seed
        self.world = None
        run_seed_build, _ = calibrated(self.build)
        gc.collect()  # the discarded worlds' garbage is not the timed phase's
        return median(scaled), {"repeats_at_reference": scaled,
                                "repeats": raw,
                                "run_seed_build": run_seed_build}

    def build(self) -> None:
        raise NotImplementedError

    def epoch(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self) -> None:
        """Final output checks (after the timed phase, untimed)."""

    def facts(self) -> dict:
        """Workload-specific simulated facts for the run record."""
        return {}

    # -- synchronous ops -------------------------------------------------

    def run_op(self, ops: list[Op], kind: str, fn, expect=None):
        """Run one synchronous op; *expect* checks its result."""
        self._op_id += 1
        if self.tracer is not None:
            self.tracer.op_id = self._op_id
        clock = self.world.clock
        start = clock.now
        outcome, result = "ok", None
        try:
            result = fn()
        except KernelError as exc:
            outcome = "failed"
            self.fail(f"{kind}: {exc}")
        else:
            if expect is not None and not expect(result):
                outcome = "failed"
                self.fail(f"{kind}: wrong result")
        ops.append(Op(kind, clock.now - start, outcome))
        return result


def calibrated(step) -> tuple[float, float]:
    """Run *step*; its CPU seconds, raw and scaled to the reference
    host's speed by a calibration probe run just before it.  The host's
    speed drifts by 20-25% over tens of minutes, and the probe drifts
    with it."""
    round_s = calibration_seconds(SETUP_PROBE_ROUNDS)
    start = time.process_time()
    step()
    cpu_s = time.process_time() - start
    return cpu_s, at_reference_speed(cpu_s, round_s)


def _build_user_world(seed: int, wan: NetworkParameters | None,
                      depth: int):
    """One server, one logged-in user, a writable /bench directory."""
    world = World(seed=seed)
    if wan is not None:
        world.lan_params = wan
    if depth > 1:
        world.enable_pipelining(depth=depth, seed=seed)
    server = world.add_server("files.sfs.test")
    path = server.export_fs()
    work = pathops.mkdirs(server.fs, "/bench")
    server.fs.setattr(work.ino, ROOT_CRED, uid=BENCH_UID, gid=100)
    user = server.add_user("bench", uid=BENCH_UID)
    client = world.add_client("client")
    proc = client.login_user("bench", user.key, uid=BENCH_UID)
    workdir = f"{path}/bench"
    proc.stat(workdir)  # mount, key negotiation and login happen here
    return world, proc, workdir


class SmallfileSync(Workload):
    """Sprite-style small files on the synchronous LAN path.

    Per epoch: create 100 files of 512..1536 bytes (mean 1 KB), then in a
    seeded order read each back and stat it, with a quarter of the files
    also opened for Fig. 5's unauthorized ``fchown`` (must fail EPERM),
    then unlink them all in another seeded order.
    """

    name = "smallfile-sync"
    min_epochs = 3
    epoch_cpu_s = 1.4
    setup_repeats = 9
    files = 100

    def build(self) -> None:
        self.world, self.proc, self.workdir = _build_user_world(
            self.world_seed, wan=None, depth=1)

    def epoch(self, index: int) -> list[Op]:
        rng = self.rng("smallfile", index)
        proc, ops = self.proc, []
        names = [f"{self.workdir}/e{index}f{i}" for i in range(self.files)]
        contents = [rng.randbytes(rng.randrange(512, 1537))
                    for _ in names]
        for name, data in zip(names, contents):
            self.run_op(ops, "create", lambda: proc.write_file(name, data))
        order = list(range(self.files))
        rng.shuffle(order)
        for i in order:
            name, data = names[i], contents[i]
            self.run_op(ops, "read", lambda: proc.read_file(name),
                        lambda got: got == data)
            self.run_op(ops, "stat", lambda: proc.stat(name),
                        lambda st: st.size == len(data))
            if rng.random() < 0.25:
                fd = self.run_op(ops, "open", lambda: proc.open(name, "r"))
                if fd is not None:
                    self.run_op(ops, "fchown", lambda: self._fchown(fd),
                                lambda refused: refused)
                    self.run_op(ops, "close", lambda: proc.close(fd))
        rng.shuffle(order)
        for i in order:
            self.run_op(ops, "unlink", lambda: proc.unlink(names[i]))
        return ops

    def _fchown(self, fd: int) -> bool:
        """The unauthorized fchown: True when the server refused it."""
        try:
            self.proc.fchown(fd, 0, 0)
        except KernelError as exc:
            return exc.errno == errno.EPERM
        return False


class StreamWan(Workload):
    """Streaming 8 KB syscalls over the WAN, pipelined at depth 8.

    The file is 1 MiB: 16 readahead windows of 8 x 8 KB.  Per epoch: 64
    random writes, a sequential read of the whole file, 384 random reads
    and a sequential rewrite with new content.  Sequential syscalls move
    8 KB; random ones move a seeded 4..8 KB at a seeded byte offset, so
    each stays one NFS call while simulated latencies differ by seed.
    Random reads are the majority of ops, so the median op is one WAN
    round trip rather than a readahead hit (which costs no simulated
    time).  Every read is checked against a model of the file: the
    sequential read reads back the previous epoch's rewrite and this
    epoch's random writes; the final check reads back the last rewrite.
    A positioned read or write (lseek + read/write) counts as one op.
    """

    name = "stream-wan"
    min_epochs = 2
    epoch_cpu_s = 0.53
    setup_repeats = 7
    block = 8192
    blocks = 128
    random_reads = 384
    random_writes = 64

    def build(self) -> None:
        # The WAN path's one-way latency is a seeded 20 ms +- 2.5%: where
        # the server sits is an input, and without it every seed would
        # give bit-identical simulated latencies.
        wan = NetworkParameters.wan()
        wan = replace(wan, latency=wan.latency
                      * self.rng("stream", "wan").uniform(0.975, 1.025))
        self.world, self.proc, workdir = _build_user_world(
            self.world_seed, wan=wan, depth=8)
        self.path = f"{workdir}/stream"
        self.model = bytearray(self.rng("stream", "seed").randbytes(
            self.block * self.blocks))
        fd = self.proc.open(self.path, "w")
        self.proc.write(fd, bytes(self.model))
        self.proc.close(fd)

    def epoch(self, index: int) -> list[Op]:
        rng = self.rng("stream", index)
        proc, ops, block = self.proc, [], self.block

        def positioned_write(fd: int, offset: int, data: bytes) -> int:
            proc.lseek(fd, offset)
            return proc.write(fd, data)

        def positioned_read(fd: int, offset: int, count: int) -> bytes:
            proc.lseek(fd, offset)
            return proc.read(fd, count)

        def random_extent() -> tuple[int, int]:
            count = rng.randrange(block // 2, block + 1)
            return rng.randrange(len(self.model) - count + 1), count

        # Opened "r": the facade's "rw" flag truncates (its "w" test
        # matches), and it does not enforce access modes on write.
        fd = self.run_op(ops, "open", lambda: proc.open(self.path, "r"))
        for _ in range(self.random_writes):
            offset, count = random_extent()
            data = rng.randbytes(count)
            self.model[offset:offset + count] = data
            self.run_op(ops, "random-write",
                        lambda: positioned_write(fd, offset, data),
                        lambda n: n == count)
        self.run_op(ops, "close", lambda: proc.close(fd))

        sequential_before = len(ops)
        fd = self.run_op(ops, "open", lambda: proc.open(self.path, "r"))
        for number in range(self.blocks):
            want = bytes(self.model[number * block:(number + 1) * block])
            self.run_op(ops, "seq-read", lambda: proc.read(fd, block),
                        lambda got: got == want)
        self.run_op(ops, "close", lambda: proc.close(fd))
        sequential = len(ops) - sequential_before

        fd = self.run_op(ops, "open", lambda: proc.open(self.path, "r"))
        for _ in range(self.random_reads):
            offset, count = random_extent()
            want = bytes(self.model[offset:offset + count])
            self.run_op(ops, "random-read",
                        lambda: positioned_read(fd, offset, count),
                        lambda got: got == want)
        self.run_op(ops, "close", lambda: proc.close(fd))

        sequential_before = len(ops)
        self.model = bytearray(rng.randbytes(block * self.blocks))
        fd = self.run_op(ops, "open", lambda: proc.open(self.path, "w"))
        for number in range(self.blocks):
            data = bytes(self.model[number * block:(number + 1) * block])
            self.run_op(ops, "seq-write", lambda: proc.write(fd, data),
                        lambda n: n == block)
        self.run_op(ops, "close", lambda: proc.close(fd))
        sequential += len(ops) - sequential_before
        self.sequential_share = sequential / len(ops)
        return ops

    def facts(self) -> dict:
        return {"sequential_share": self.sequential_share}

    def check(self) -> None:
        got = self.proc.read_file(self.path)
        if got != bytes(self.model):
            self.fail("final read-back differs from the last rewrite")


def _wait(future: Future):
    """A task that ends when *future* resolves."""
    yield future


def _dial(world: World, location: str, rng: random.Random):
    """Dial a file-service session over a LAN path whose one-way latency
    is a seeded 75..125 us.  Clients sit at different distances from the
    server; without this every seed would give bit-identical simulated
    latencies to every uncontended op."""
    lan = NetworkParameters.lan_100mbit()
    world.set_link_params(location, replace(
        lan, latency=lan.latency * rng.uniform(0.75, 1.25)))
    return world.connector(location, proto.SERVICE_FILESERVER)


class Crowd(Workload):
    """1024 closed-loop clients, one encrypted session each.

    GETATTR/READ/WRITE at 50/30/20 over 8 shared 64 KB files, 4 KB I/O,
    exponential think time with a 1.0 s mean: ~1,000 offered ops/s
    against a server of 2 workers x 1 ms (2,000 ops/s).  Each epoch is
    1.0 simulated second of think-and-call; clients whose next call would
    start after the epoch's end stop, and the epoch drains.
    """

    name = "crowd"
    min_epochs = 2
    epoch_cpu_s = 1.8
    synchronous = False
    clients = 1024
    files = 8
    file_size = 65536
    io_size = 4096
    think_s = 1.0
    epoch_s = 1.0
    session_batches = 16

    def setup(self) -> tuple[float, dict]:
        """One set-up, timed in parts: the base world, then the 1024
        sessions in 16 equal batches.  Reports base + 16 x the median
        batch, at the reference host's speed: a median over repeated
        set-ups without paying for 16 worlds."""
        base_raw, base = calibrated(self._build_base)
        per_batch = self.clients // self.session_batches
        raw, scaled = [], []
        for _ in range(self.session_batches):
            cpu_s, at_reference = calibrated(
                lambda: self._connect(per_batch))
            raw.append(cpu_s)
            scaled.append(at_reference)
        cpu_s, at_reference = calibrated(self._resolve_handles)
        base_raw += cpu_s
        base += at_reference
        estimate = base + self.session_batches * median(scaled)
        return estimate, {"base": base, "session_batches": scaled,
                          "measured_total": base_raw + sum(raw)}

    def build(self) -> None:
        self._build_base()
        self._connect(self.clients)
        self._resolve_handles()

    def _build_base(self) -> None:
        world = self.world = World(seed=self.world_seed)
        self.scheduler = world.enable_pipelining(depth=8,
                                                 seed=self.world_seed)
        world.enable_contention()
        self.server = world.add_server("crowd.sfs.test")
        self.path = self.server.export_fs()
        fs = self.server.fs
        content_rng = self.rng("crowd", "files")
        self.inodes = []
        for index in range(self.files):
            inode = fs.create(fs.root_ino, f"shared{index}", ROOT_CRED,
                              mode=0o666)
            fs.write(inode.ino, 0, content_rng.randbytes(self.file_size),
                     ROOT_CRED)
            fs.commit(inode.ino)
            self.inodes.append(inode.ino)
        self.server.enable_queueing(max_depth=64, workers=2,
                                    service_time=0.001)
        self.keys = EphemeralKeyCache(world.rng)
        self.paths = self.rng("crowd", "paths")
        self.sessions: list[ServerSession] = []
        self.streams = []
        self._starts: list[Future] = []

    def _session(self) -> ServerSession:
        link = _dial(self.world, self.server.location, self.paths)
        session = ServerSession.connect(link, self.path, self.keys,
                                        self.world.rng, encrypt=True)
        if not isinstance(session, ServerSession):
            raise RuntimeError(f"session refused: {session!r}")
        # Retransmit above queue-wait scale; SERVER_BUSY carries the
        # backpressure instead of a retransmission storm.
        session.peer.retry_policy = RetryPolicy(
            base_delay=1.0, multiplier=2.0, max_delay=4.0)
        return session

    def _connect(self, count: int) -> None:
        for _ in range(count):
            index = len(self.sessions)
            self.sessions.append(self._session())
            self.streams.append(self.rng("crowd", "client", index))

    def _lookup(self, session, directory: bytes, name: str) -> bytes:
        status, body = session.call_nfs(
            nfs_const.NFSPROC3_LOOKUP,
            nfs_types.LookupArgs.make(
                what=nfs_types.DirOpArgs.make(dir=directory, name=name)),
            authno=0)
        if status != nfs_const.NFS3_OK:
            raise RuntimeError(f"lookup {name}: status {status}")
        return body.object

    def _resolve_handles(self) -> None:
        session = self.sessions[0]
        root = self._lookup(session, bytes(24), ".")
        self.handles = [self._lookup(session, root, f"shared{index}")
                        for index in range(self.files)]

    def _next_call(self, rng: random.Random):
        handle = self.handles[rng.randrange(self.files)]
        point = rng.random()
        if point < 0.5:
            return "getattr", nfs_const.NFSPROC3_GETATTR, \
                nfs_types.GetAttrArgs.make(object=handle)
        offset = rng.randrange(self.file_size // self.io_size) \
            * self.io_size
        if point < 0.8:
            return "read", nfs_const.NFSPROC3_READ, nfs_types.ReadArgs.make(
                file=handle, offset=offset, count=self.io_size)
        return "write", nfs_const.NFSPROC3_WRITE, nfs_types.WriteArgs.make(
            file=handle, offset=offset, count=self.io_size,
            stable=nfs_const.UNSTABLE, data=rng.randbytes(self.io_size))

    def _client(self, index: int):
        """One client for the whole run.  Clients are daemon tasks
        spawned once, so the scheduler holds 1024 live clients rather
        than 1024 more finished tasks per epoch.  Per epoch: think and
        call until the epoch's end, then report done."""
        session, rng = self.sessions[index], self.streams[index]
        clock = self.world.clock
        for epoch in itertools.count():
            deadline, ops = yield self._epoch_start(epoch)
            while True:
                think = rng.expovariate(1.0 / self.think_s)
                if clock.now + think >= deadline:
                    break
                yield Sleep(think)
                yield from self._call(session, rng, ops)
            self._running -= 1
            if not self._running:
                self._epoch_done.resolve()

    def _call(self, session: ServerSession, rng: random.Random,
              ops: list[Op]):
        kind, proc, args = self._next_call(rng)
        clock = self.world.clock
        start = clock.now
        op = Op(kind, 0.0, "unfinished")
        ops.append(op)
        try:
            status, _body = yield from session.call_nfs_task(proc, args, 0)
        except RpcBusy:
            op.outcome = "refused"
            self.fail(f"{kind}: refused by admission control")
        except RpcError as exc:
            op.outcome = "failed"
            self.fail(f"{kind}: {exc!r}")
        else:
            op.outcome = "ok" if status == nfs_const.NFS3_OK else "failed"
            if op.outcome != "ok":
                self.fail(f"{kind}: NFS status {status}")
        op.latency = clock.now - start

    def _epoch_start(self, index: int) -> Future:
        while len(self._starts) <= index:
            self._starts.append(Future(f"crowd-epoch-{len(self._starts)}"))
        return self._starts[index]

    def epoch(self, index: int) -> list[Op]:
        if index == 0:
            for client in range(self.clients):
                self.scheduler.spawn(self._client(client),
                                     name=f"crowd-{client}", daemon=True)
        ops: list[Op] = []
        self._running = self.clients
        self._epoch_done = Future("crowd-epoch-done")
        self._epoch_start(index).resolve(
            (self.world.clock.now + self.epoch_s, ops))
        self.scheduler.spawn(_wait(self._epoch_done), name="crowd-epoch")
        if self.scheduler.run():
            self.fail(f"epoch {index}: {self._running} clients unfinished")
        return ops

    def check(self) -> None:
        """Every shared file, read through a fresh session, equals the
        server's own MemFs content."""
        session = self._session()
        fs = self.server.fs
        for handle, ino in zip(self.handles, self.inodes):
            want, _eof = fs.read(ino, 0, self.file_size, ROOT_CRED)
            got = bytearray()
            while len(got) < self.file_size:
                status, body = session.call_nfs(
                    nfs_const.NFSPROC3_READ,
                    nfs_types.ReadArgs.make(file=handle, offset=len(got),
                                            count=8192),
                    authno=0)
                if status != nfs_const.NFS3_OK or not body.data:
                    break
                got += body.data
            if bytes(got) != want:
                self.fail(f"inode {ino}: fresh-session read differs")


class LoginStorm(Workload):
    """Poisson logins from 16 real users' agents over live sessions.

    Two authserver shards hold a 10^4-user table (16 real keys, the rest
    synthetic), published as signed read-only images and imported into a
    file server during set-up.  Each shard queues logins through 2
    workers x 1 ms (4,000 logins/s in all); arrivals come at 1,000/s,
    a quarter of capacity, so a few percent of logins queue and the p99
    lies inside that tail rather than on its edge.  Each epoch is 0.4
    simulated seconds of arrivals (400 logins), then a drain.  Midway
    through the middle epoch of the timed phase one seeded user is
    revoked fleet-wide; from then on that user must never log in again,
    while nobody else may be denied.  Latency runs from each arrival's
    due time, so a late generator shows up as latency.
    """

    name = "login-storm"
    min_epochs = 3
    epoch_cpu_s = 1.0
    setup_repeats = 3
    synchronous = False
    shards = 2
    users = 10_000
    real_users = 16
    rate = 1000.0
    #: Concurrent logins the generator can hold; arrivals beyond it wait
    #: (and that wait counts in their latency, timed from the due time).
    slots = 32
    epoch_s = 0.4

    def build(self) -> None:
        world = self.world = World(seed=self.world_seed)
        self.scheduler = world.enable_pipelining(depth=8,
                                                 seed=self.world_seed)
        self.fleet = world.add_auth_fleet(self.shards)
        for index in range(self.users - self.real_users):
            self.fleet.add_user(f"user{index:05d}")
        self.accounts = [
            self.fleet.add_real_user(f"login{index:02d}", uid=3000 + index)
            for index in range(self.real_users)]
        self.fleet.publish()
        self.files = world.add_server("files.sfs.test")
        self.files.export_fs()
        self.imported = self.fleet.import_into(self.files)
        for shard in self.fleet.shards:
            shard.server.enable_queueing(max_depth=64, workers=2,
                                         service_time=0.001)
        keys = EphemeralKeyCache(world.rng)
        paths = self.rng("login", "paths")
        self.sessions = []
        for account in self.accounts:
            shard = self.fleet.shard_for(account.name)
            link = _dial(world, shard.location, paths)
            session = ServerSession.connect(link, shard.path, keys,
                                            world.rng, encrypt=True)
            if not isinstance(session, ServerSession):
                raise RuntimeError(f"session refused: {session!r}")
            session.peer.retry_policy = RetryPolicy(base_delay=0.25)
            agent = Agent(account.name, world.rng)
            agent.add_key(account.key)
            self.sessions.append((session, agent))
        self.victim = self.rng("login", "victim").randrange(self.real_users)
        self.revoked_at: float | None = None
        self.max_lateness = 0.0
        self.victim_denied = 0
        self._backlog: deque = deque()
        self._idle: list[Future] = []
        self._outstanding = 0
        self._drained: Future | None = None

    def _login(self, index: int, due: float, ops: list[Op]):
        session, agent = self.sessions[index]
        clock = self.world.clock
        op = Op("login", 0.0, "unfinished")
        ops.append(op)
        try:
            authno = yield from session.login_task(agent)
        except RpcBusy:
            op.outcome = "refused"
            self.fail("login refused by admission control")
        except RpcError as exc:
            op.outcome = "failed"
            self.fail(f"login: {exc!r}")
        else:
            if index == self.victim and self.revoked_at is not None \
                    and due >= self.revoked_at:
                if authno > 0:
                    op.outcome = "failed"
                    self.fail("revoked user logged in after revocation")
                else:
                    op.outcome = "ok"  # the denial is the right answer
                    self.victim_denied += 1
            elif authno > 0 or (index == self.victim
                                and self.revoked_at is not None):
                # The victim's logins in flight at the revocation may go
                # either way.
                op.outcome = "ok"
            else:
                op.outcome = "failed"
                self.fail(f"valid user {self.accounts[index].name} denied")
        op.latency = clock.now - due

    def _slot(self):
        """A login slot for the whole run (a daemon task, spawned once):
        takes due arrivals and logs them in, so the scheduler holds a
        fixed pool rather than one more finished task per login."""
        while True:
            if self._backlog:
                item = self._backlog.popleft()
            else:
                idle = Future("login-slot")
                self._idle.append(idle)
                item = yield idle
            yield from self._login(*item)
            self._outstanding -= 1
            if not self._outstanding and self._drained is not None:
                self._drained.resolve()

    def _arrivals(self, index: int, ops: list[Op]):
        """A Poisson process conditioned on exactly rate x epoch_s
        arrivals (sorted uniform due times), then a drain."""
        rng = self.rng("login", "arrivals", index)
        clock = self.world.clock
        start = clock.now
        dues = sorted(start + rng.random() * self.epoch_s
                      for _ in range(round(self.rate * self.epoch_s)))
        for due in dues:
            if due > clock.now:
                yield Sleep(due - clock.now)
            self.max_lateness = max(self.max_lateness, clock.now - due)
            self._outstanding += 1
            item = (rng.randrange(self.real_users), due, ops)
            if self._idle:
                self._idle.pop().resolve(item)
            else:
                self._backlog.append(item)
        if self._outstanding:
            self._drained = Future("login-drained")
            yield self._drained
            self._drained = None

    def _revoke(self, at: float):
        clock = self.world.clock
        if at > clock.now:
            yield Sleep(at - clock.now)
        self.fleet.revoke_user(self.accounts[self.victim].name)
        self.revoked_at = clock.now

    def epoch(self, index: int) -> list[Op]:
        clock = self.world.clock
        if index == 0:
            for slot in range(self.slots):
                self.scheduler.spawn(self._slot(), name=f"login-slot-{slot}",
                                     daemon=True)
        ops: list[Op] = []
        if index == self.epoch_count // 2:
            self.scheduler.spawn(
                self._revoke(clock.now + self.epoch_s / 2), name="revoke")
        self.scheduler.spawn(self._arrivals(index, ops), name="arrivals")
        blocked = self.scheduler.run()
        if blocked:
            self.fail(f"epoch {index}: {len(blocked)} tasks unfinished")
        return ops

    def check(self) -> None:
        victim = self.accounts[self.victim].name
        if self.revoked_at is None:
            self.fail("the revocation never ran")
        elif self.victim_denied == 0:
            self.fail("no login by the revoked user was attempted")
        if any(db.lookup_user(victim) is not None
               for db in self.files.authserver.databases):
            self.fail("file server's imported table still lists the "
                      "revoked user")

    def facts(self) -> dict:
        return {"max_generator_lateness_s": self.max_lateness,
                "revoked_at_s": self.revoked_at,
                "victim_denied": self.victim_denied,
                "users_imported": self.imported}


WORKLOADS = {cls.name: cls for cls in
             (SmallfileSync, StreamWan, Crowd, LoginStorm)}
