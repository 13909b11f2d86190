"""Fleet federation: sharded namespace + untrusted replica tier.

See :mod:`repro.fleet.fleet` for the big picture.  The pieces:

* :mod:`~repro.fleet.sharding` — consistent hashing over HostIDs.
* :mod:`~repro.fleet.fleet` — N shard servers behind one CA namespace.
* :mod:`~repro.fleet.replicas` — verified fetching over untrusted
  mirrors with latency-ranked selection and tamper demotion.
* :mod:`~repro.fleet.bench` — the ``bench fleet`` scaling figure: the
  fleet topology (namespace, per-shard queues, clients dialed at their
  names' shards) on the shared load driver,
  :class:`~repro.load.harness.LoadDriver`.
"""

from .fleet import Fleet, Shard
from .replicas import (
    Replica,
    ReplicaMisconductError,
    ReplicaSet,
    dial_readonly,
)
from .sharding import HashRing

__all__ = [
    "Fleet",
    "HashRing",
    "Replica",
    "ReplicaMisconductError",
    "ReplicaSet",
    "Shard",
    "dial_readonly",
]
