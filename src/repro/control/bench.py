"""The ``bench control`` figure: a hot shard, with and without the loop.

Topology: 16 closed-loop clients against a 4-shard fleet where one
shard is deliberately **hot** — its per-request service time is several
times its siblings' and most of the client population is pinned to
names it owns.  Unmanaged, the hot shard's bounded queue saturates:
admission control sheds arrivals as SERVER_BUSY, clients burn backoff
retries, and the fleet p99 is the hot shard's misery.

The managed run builds the identical world (same seed, same topology,
same client scripts) and closes the loop: the control plane's
collector pulls every shard's per-source registry each period, the SLO
engine watches windowed wait-time p99 and busy-reject rate per shard,
and two actuators respond —

* :class:`~repro.control.policy.LoadShedder` raises the clients'
  think-time multiplier while the fleet latency SLO breaches (and
  eases it back when it recovers);
* :class:`~repro.control.policy.AimdAdmission` retunes each shard's
  queue depth, shrinking it while that shard's latency breaches and
  re-growing it while the shard rejects with healthy latency.

Acceptance is comparative and deterministic per seed: the managed run
must beat the unmanaged one on *both* fleet p99 and busy-rejects.  The
figure also emits the fleet-level artifact — per-source and merged
snapshots, SLO breach events, and the policy action log — which CI
uploads from the control-smoke job.

This module builds only what is particular to the figure: the hot
shard, the client-to-name pinning, the SLOs and the actuators.  The
fleet topology comes from :mod:`repro.fleet.bench`, and the clients run
on the shared load driver (:class:`~repro.load.harness.LoadDriver`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fleet.bench import dial_shard_clients, provision_data_names
from ..kernel.world import World
from ..load.harness import LoadDriver, LoadReport, ShardReport
from ..load.workload import DEFAULT_MIX, OpMix
from .policy import AimdAdmission, LoadShedder
from .slo import SloSpec


@dataclass
class ControlBenchConfig:
    """One hot-shard run; the managed/unmanaged pair shares one config."""

    servers: int = 4
    clients: int = 16
    ops_per_client: int = 30
    seed: int = 2026
    think_time: float = 0.002
    io_size: int = 4096
    mix: OpMix = DEFAULT_MIX
    names: int = 24
    workers: int = 2
    service_time: float = 0.004
    #: The hot shard serves this many times slower than its siblings.
    hot_factor: float = 4.0
    #: Clients pinned to hot-shard names (the rest spread elsewhere).
    hot_clients: int = 10
    max_depth: int = 6
    rpc_timeout: float = 1.0
    encrypt: bool = True
    # -- the control loop --
    period: float = 0.020
    #: Per-shard windowed wait-seconds p99 objective.
    wait_p99_slo: float = 0.025
    #: Per-shard busy-reject rate objective (rejects per second).
    reject_rate_slo: float = 0.5
    slo_window: int = 5
    shed_step: float = 2.0
    shed_max: float = 64.0
    aimd_increase: int = 2
    aimd_decrease: float = 0.5
    aimd_floor: int = 2


@dataclass
class ShardOutcome(ShardReport):
    """One shard's slice of a run, from its per-source registry."""

    hot: bool = False
    busy_rejects: int = 0
    final_max_depth: int = 0


@dataclass
class ControlReport(LoadReport):
    """One run's outcome, all figures in simulated seconds."""

    controlled: bool = False
    servers: int = 0
    hot_shard: str = ""
    final_think_scale: float = 1.0
    policy_actions: int = 0
    slo_events: int = 0

    @property
    def busy_rejects(self) -> int:
        """Fleet-wide SERVER_BUSY rejections."""
        return self.admission_rejects


class ControlHarness(LoadDriver):
    """One hot-shard world; ``controlled`` decides if the loop closes."""

    def __init__(self, config: ControlBenchConfig,
                 controlled: bool) -> None:
        world = World(seed=config.seed)
        metrics = world.metrics
        super().__init__(
            config, world, world.enable_concurrency(seed=config.seed),
            "control", op_seconds=metrics.histogram("load.op_seconds"),
            shed=metrics.gauge("load.think_scale"),
        )
        self.controlled = controlled
        world.enable_contention()
        # Control first: machines built afterwards get per-source tee
        # registries, which is what makes scope="sources" SLOs real.
        self.plane = world.enable_control(
            period=config.period,
            ring_size=max(64, 4 * config.slo_window),
        )
        self.fleet = world.add_fleet(config.servers)
        self.names = list(provision_data_names(self.fleet, config.names))
        self.hot_shard = self._pick_hot_shard()
        self.queues = {
            shard.location: shard.server.enable_queueing(
                max_depth=config.max_depth, workers=config.workers,
                service_time=(config.service_time * config.hot_factor
                              if shard.location == self.hot_shard
                              else config.service_time),
            )
            for shard in self.fleet.shards
        }
        self._declare_slos()
        if controlled:
            self._attach_actuators()
        self._outcomes = dial_shard_clients(
            self, self.fleet, self._client_names(),
            lambda location: ShardOutcome(
                location, hot=(location == self.hot_shard)),
        )

    # -- setup -------------------------------------------------------------

    def _pick_hot_shard(self) -> str:
        """The shard owning the most names heats up (ties: first by
        location sort) — determinism needs no coin flips here."""
        counts: dict[str, int] = {
            shard.location: 0 for shard in self.fleet.shards}
        for location in self.fleet.assignments.values():
            counts[location] += 1
        return max(sorted(counts), key=lambda loc: counts[loc])

    def _declare_slos(self) -> None:
        config = self.config
        self.plane.add_slo(SloSpec(
            "shard-wait-p99", metric="server.queue.wait_seconds",
            reduce="p99", threshold=config.wait_p99_slo, scope="sources",
            window=config.slo_window,
            description="windowed queue-wait p99, per shard",
        ))
        self.plane.add_slo(SloSpec(
            "shard-busy-rate", metric="server.queue.rejected",
            reduce="rate", threshold=config.reject_rate_slo,
            scope="sources", window=config.slo_window,
            description="busy-reject rate, per shard",
        ))
        self.plane.add_slo(SloSpec(
            "fleet-wait-p99", metric="server.queue.wait_seconds",
            reduce="p99", threshold=config.wait_p99_slo, scope="merged",
            window=config.slo_window,
            description="windowed queue-wait p99, fleet-merged",
        ))

    def _attach_actuators(self) -> None:
        config = self.config
        self.plane.add_actuator(LoadShedder(
            [self], slo="fleet-wait-p99", step=config.shed_step,
            max_scale=config.shed_max,
        ))
        self.plane.add_actuator(AimdAdmission(
            self.queues, latency_slo="shard-wait-p99",
            reject_slo="shard-busy-rate", increase=config.aimd_increase,
            decrease=config.aimd_decrease, floor=config.aimd_floor,
        ))

    def _client_names(self) -> list[str]:
        """Per-client name assignment: ``hot_clients`` of them pinned
        to hot-shard names, the rest round-robin over the cold ones."""
        hot_names = [name for name in self.names
                     if self.fleet.assignments[name] == self.hot_shard]
        cold_names = [name for name in self.names
                      if self.fleet.assignments[name] != self.hot_shard]
        if not cold_names:          # degenerate placement: all hot
            cold_names = hot_names
        assigned = []
        for index in range(self.config.clients):
            if index < min(self.config.hot_clients, self.config.clients):
                assigned.append(hot_names[index % len(hot_names)])
            else:
                assigned.append(cold_names[index % len(cold_names)])
        return assigned

    # -- the run -----------------------------------------------------------

    def _new_report(self) -> ControlReport:
        config = self.config
        return ControlReport(
            controlled=self.controlled, clients=config.clients,
            servers=config.servers, hot_shard=self.hot_shard,
            shards=list(self._outcomes.values()),
        )

    def _collect(self, report: ControlReport) -> None:
        for shard in self.fleet.shards:
            outcome = self._outcomes[shard.location]
            queue = self.queues[shard.location]
            outcome.peak_queue_depth = queue.peak_depth
            outcome.final_max_depth = queue.max_depth
            # Per-shard rejects come from the shard's own registry —
            # the tee makes this split possible at all.
            outcome.busy_rejects = shard.server.registry.counter(
                "server.queue.rejected").value
        report.final_think_scale = self.think_scale
        report.policy_actions = len(self.plane.policy.actions)
        report.slo_events = len(self.plane.slos.events)

    run = LoadDriver.run_closed_loop


def run_control_comparison(config: ControlBenchConfig
                           ) -> tuple[ControlReport, ControlReport, dict]:
    """(unmanaged, managed, artifact): the same world twice, the second
    time with the actuators attached.  Both runs carry the collector
    and SLO engine so the artifact can show the baseline breaching."""
    baseline = ControlHarness(config, controlled=False).run()
    managed_harness = ControlHarness(config, controlled=True)
    managed = managed_harness.run()
    artifact = managed_harness.plane.artifact()
    artifact["summary"] = {
        "config": {
            "servers": config.servers, "clients": config.clients,
            "ops_per_client": config.ops_per_client, "seed": config.seed,
            "hot_factor": config.hot_factor,
            "hot_clients": config.hot_clients,
            "max_depth": config.max_depth, "period": config.period,
        },
        "baseline": _summary(baseline),
        "managed": _summary(managed),
    }
    return baseline, managed, artifact


def _summary(report: ControlReport) -> dict:
    return {
        "controlled": report.controlled,
        "hot_shard": report.hot_shard,
        "ops_completed": report.ops_completed,
        "op_errors": report.op_errors,
        "busy_rejects": report.busy_rejects,
        "busy_retries": report.busy_retries,
        "p50_ms": report.p50 * 1000,
        "p95_ms": report.p95 * 1000,
        "p99_ms": report.p99 * 1000,
        "throughput": report.throughput,
        "final_think_scale": report.final_think_scale,
        "policy_actions": report.policy_actions,
        "slo_events": report.slo_events,
        "shards": [{
            "location": shard.location, "hot": shard.hot,
            "names": shard.names, "clients": shard.clients,
            "ops": shard.ops_completed, "p99_ms": shard.p99 * 1000,
            "busy_rejects": shard.busy_rejects,
            "peak_queue_depth": shard.peak_queue_depth,
            "final_max_depth": shard.final_max_depth,
        } for shard in report.shards],
    }
