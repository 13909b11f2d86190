"""The ``bench auth`` figure: the auth plane under login storms.

Three questions, three phases, all in simulated time (deterministic per
seed):

* **Storm sweep** — Poisson login arrivals (the load driver's
  :func:`~repro.load.harness.poisson_arrivals`) against the sharded auth
  fleet at a 10^5-user table: does adding authserver shards raise
  aggregate login throughput when the arrival rate exceeds one shard's
  admission capacity?  The shards sit behind the standard
  :class:`RequestQueue` bounded admission control, so overload becomes
  SERVER_BUSY + client backoff (and eventually shed logins), not
  unbounded queueing.
* **Decision cache** — steady-state logins on live sessions must hit
  the fileserver decision cache (>90%), and revoking a user must yield
  *zero* successful authentications afterwards, cached decision or not.
* **eksblowfish cost sweep** — the paper's section 2.5.2 trade: the
  cost parameter doubles the password-hardening work per unit, which
  pacing guessing attacks *also* charges every honest login.  Each SRP
  login (the real ``sfskey add`` flow) is attributed per layer: modeled
  client hardening (``HARDEN_UNIT`` seconds per eksblowfish expansion,
  2^cost expansions), server service time, and network/protocol time.

The user-table sweep pads the database with synthetic users (unique,
unsignable key bytes — :func:`repro.auth.fleet.synthetic_key_bytes`),
so table *size* is swept without paying a real key generation per user;
the users actually logging in carry real keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import sfskey
from ..core.agent import Agent
from ..core.authserv import PrivateRecord
from ..core.client import ServerSession
from ..kernel.world import World
from ..load.harness import Dialer, poisson_arrivals
from ..obs import nearest_rank
from ..rpc.peer import RetryPolicy, RpcBusy, RpcError

#: Modeled client CPU per eksblowfish expansion (seconds of virtual
#: time); a login at cost c is charged ``HARDEN_UNIT * 2**c``.  The
#: protocol legs of the cost sweep run for real — only the hardening
#: charge is modeled, so the sweep stays deterministic across hosts.
HARDEN_UNIT = 0.0008


@dataclass
class AuthLoadConfig:
    """One storm: a user table, an arrival process, an admission queue."""

    shards: int = 4
    users: int = 100_000
    login_users: int = 16
    arrival_rate: float = 1600.0   # Poisson logins per simulated second
    duration: float = 0.5          # arrival window, simulated seconds
    seed: int = 2026
    workers: int = 2
    service_time: float = 0.004    # per-login authserver service charge
    max_depth: int = 16            # admission queue bound per shard
    encrypt: bool = True
    vnodes: int = 16
    queueing: bool = True          # admission control on the shards


@dataclass
class AuthStormReport:
    shards: int
    users: int
    arrival_rate: float
    offered: int = 0
    logins_ok: int = 0
    denied: int = 0
    shed: int = 0
    errors: int = 0
    unfinished_tasks: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    queue_rejected: int = 0
    srp_evicted: int = 0
    latencies: list[float] = field(default_factory=list)

    def finish(self, duration: float, metrics) -> None:
        self.duration = duration
        self.throughput = self.logins_ok / duration if duration > 0 else 0.0
        ordered = sorted(self.latencies)
        self.p50 = nearest_rank(ordered, 0.50)
        self.p95 = nearest_rank(ordered, 0.95)
        self.p99 = nearest_rank(ordered, 0.99)
        self.cache_hits = metrics.counter("auth.cache.hits").value
        self.cache_misses = metrics.counter("auth.cache.misses").value
        self.queue_rejected = metrics.counter("server.queue.rejected").value
        self.srp_evicted = metrics.counter(
            "auth.srp.sessions_evicted").value

    def row(self) -> dict:
        return {
            "shards": self.shards, "users": self.users,
            "arrival_rate": self.arrival_rate, "offered": self.offered,
            "logins_ok": self.logins_ok, "denied": self.denied,
            "shed": self.shed, "errors": self.errors,
            "duration_s": self.duration, "logins_per_second": self.throughput,
            "p50_ms": self.p50 * 1000, "p95_ms": self.p95 * 1000,
            "p99_ms": self.p99 * 1000,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "queue_rejected": self.queue_rejected,
        }


class AuthHarness:
    """A World with an auth fleet, a padded user table, live sessions."""

    def __init__(self, config: AuthLoadConfig) -> None:
        self.config = config
        self.world = World(seed=config.seed)
        self.scheduler = self.world.enable_concurrency(config.seed)
        self.fleet = self.world.add_auth_fleet(config.shards,
                                               vnodes=config.vnodes)
        for index in range(max(0, config.users - config.login_users)):
            self.fleet.add_user(f"user{index:07d}")
        self.accounts = [
            self.fleet.add_real_user(f"login{index:02d}", uid=3000 + index)
            for index in range(config.login_users)
        ]
        if config.queueing:
            for shard in self.fleet.shards:
                shard.server.enable_queueing(
                    max_depth=config.max_depth, workers=config.workers,
                    service_time=config.service_time,
                )
        # Queue waits under a storm dwarf the default 2 ms retransmit
        # timer; a spurious retransmit escalates to channel recovery
        # (rekey), which would invalidate every in-flight login's
        # AuthID.  Give storm sessions a timer above queue-wait scale.
        dial = Dialer(self.world, RetryPolicy(base_delay=0.25),
                      encrypt=config.encrypt)
        #: (session, agent) per login account, dialed to the account's
        #: owning shard — login storms reuse these (the steady state a
        #: decision cache exists for).
        self.sessions: list[tuple[ServerSession, Agent]] = []
        for account in self.accounts:
            shard = self.fleet.shard_for(account.name)
            session = dial(shard.location, shard.path)
            agent = Agent(account.name, self.world.rng)
            agent.add_key(account.key)
            self.sessions.append((session, agent))

    def run_storm(self) -> AuthStormReport:
        """Open-loop Poisson login arrivals over the session pool."""
        config = self.config
        clock = self.world.clock
        report = AuthStormReport(shards=config.shards, users=config.users,
                                 arrival_rate=config.arrival_rate)
        rng = random.Random(config.seed ^ 0x517A7E)

        def login_once(index: int):
            session, agent = self.sessions[index % len(self.sessions)]
            begin = clock.now
            try:
                authno = yield from session.login_task(agent)
            except RpcBusy:
                report.shed += 1
                return
            except RpcError:
                report.errors += 1
                return
            if authno > 0:
                report.logins_ok += 1
                report.latencies.append(clock.now - begin)
            else:
                report.denied += 1

        def storm():
            report.offered = yield from poisson_arrivals(
                self.scheduler, rng, config.arrival_rate, config.duration,
                login_once, "login")

        start = clock.now
        self.scheduler.spawn(storm(), name="auth-arrivals")
        blocked = self.scheduler.run()
        report.unfinished_tasks = len(blocked)
        report.finish(clock.now - start, self.world.metrics)
        return report


# --- phase 2: decision cache + revocation ---------------------------------


@dataclass
class CacheReport:
    users: int
    shards: int
    sessions: int
    logins_per_session: int
    logins_ok: int = 0
    hits: int = 0
    misses: int = 0
    hit_rate: float = 0.0
    revoked_user: str = ""
    post_revocation_attempts: int = 0
    post_revocation_ok: int = 0
    other_user_ok: bool = False

    def data(self) -> dict:
        return {
            "users": self.users, "shards": self.shards,
            "sessions": self.sessions,
            "logins_per_session": self.logins_per_session,
            "logins_ok": self.logins_ok,
            "cache_hits": self.hits, "cache_misses": self.misses,
            "hit_rate": self.hit_rate,
            "revoked_user": self.revoked_user,
            "post_revocation_attempts": self.post_revocation_attempts,
            "post_revocation_ok": self.post_revocation_ok,
            "other_user_ok": self.other_user_ok,
        }


def run_cache_phase(users: int = 2000, shards: int = 2,
                    login_users: int = 8, logins_per_session: int = 40,
                    seed: int = 2026) -> CacheReport:
    """Steady-state cache hit rate, then a revocation mid-stream.

    Closed-loop synchronous logins (no admission queue — this phase
    measures the cache, not contention).  After the steady state, one
    account is revoked fleet-wide and retried: the cached decision must
    already be gone (the eviction hooks ran inside ``revoke_user``), so
    *every* post-revocation attempt fails, and an unrelated account
    still logs in.
    """
    harness = AuthHarness(AuthLoadConfig(
        shards=shards, users=users, login_users=login_users, seed=seed,
        queueing=False,
    ))
    report = CacheReport(users=users, shards=shards, sessions=login_users,
                         logins_per_session=logins_per_session)
    for session, agent in harness.sessions:
        for _ in range(logins_per_session):
            if session.login(agent) > 0:
                report.logins_ok += 1
    metrics = harness.world.metrics
    report.hits = metrics.counter("auth.cache.hits").value
    report.misses = metrics.counter("auth.cache.misses").value
    total = report.hits + report.misses
    report.hit_rate = report.hits / total if total else 0.0

    victim_index = 0
    victim = harness.accounts[victim_index]
    report.revoked_user = victim.name
    harness.fleet.revoke_user(victim.name)
    session, agent = harness.sessions[victim_index]
    report.post_revocation_attempts = 5
    for _ in range(report.post_revocation_attempts):
        if session.login(agent) > 0:
            report.post_revocation_ok += 1
    other_session, other_agent = harness.sessions[victim_index + 1]
    report.other_user_ok = other_session.login(other_agent) > 0
    return report


# --- phase 3: the eksblowfish cost sweep ----------------------------------


def run_cost_sweep(costs=(2, 4, 6), seed: int = 2026,
                   service_time: float = 0.002) -> list[dict]:
    """Login latency per eksblowfish cost, attributed per layer.

    Each cost gets a fresh World: one server, one enrolled user, one
    real ``sfskey add`` (SRP over the authserv service, through the
    admission queue).  The protocol legs are measured in simulated
    time; the client-side hardening is charged to the virtual clock as
    ``HARDEN_UNIT * 2**cost`` (see :data:`HARDEN_UNIT`).
    """
    rows = []
    for cost in costs:
        world = World(seed=seed)
        server = world.add_server("files.test")
        server.export_fs()
        server.enable_queueing(max_depth=8, workers=1,
                               service_time=service_time)
        authserver = server.authserver
        password = b"correct horse"
        enrolment = sfskey.prepare_enrolment(
            "traveller", password, world.rng, cost=cost)
        record = authserver.add_account(
            "traveller", 4000, 100,
            public_key_bytes=enrolment.key.public_key.to_bytes(),
        )
        authserver.local_db.add_user(record, PrivateRecord(
            srp_salt=enrolment.srp_salt,
            srp_verifier=enrolment.srp_verifier,
            srp_cost=enrolment.srp_cost,
            encrypted_privkey=enrolment.encrypted_privkey,
        ))
        agent = Agent("traveller", world.rng)
        clock = world.clock
        begin = clock.now
        result = sfskey.add(world.connector, agent, "traveller",
                            "files.test", password, world.rng)
        protocol = clock.now - begin
        harden = HARDEN_UNIT * (1 << cost)
        clock.advance(harden)
        assert result.key is not None and agent.key_count == 1
        service = 2 * service_time  # SRP_INIT + SRP_CONFIRM service legs
        rows.append({
            "cost": cost,
            "expansions": 1 << cost,
            "harden_ms": harden * 1000,
            "service_ms": service * 1000,
            "network_ms": max(0.0, protocol - service) * 1000,
            "protocol_ms": protocol * 1000,
            "total_ms": (protocol + harden) * 1000,
        })
    return rows
