"""Lease fan-out visits lease holders only, in registration order.

A write invalidates the connections that hold a lease on the written
handle.  These tests count work, never time: how many connections a
write looks at, which ones it invalidates and in what order, and what
a crash or a closed link leaves in the export's lease-holder index.
"""

import pytest

from repro.core import proto
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.core.server import ServerConnection
from repro.fs.memfs import Cred
from repro.kernel.world import World
from repro.nfs3 import const as nfs_const
from repro.nfs3 import types as nfs_types

ROOT = Cred(0, 0)


class Crowd:
    """One server export and many raw encrypted sessions against it."""

    def __init__(self, sessions: int, seed: int = 11) -> None:
        self.world = World(seed=seed)
        self.server = self.world.add_server("leases.sfs.test")
        self.path = self.server.export_fs()
        fs = self.server.fs
        inode = fs.create(fs.root_ino, "shared", ROOT, mode=0o666)
        fs.write(inode.ino, 0, b"v0" * 512, ROOT)
        self.export = self.server.master.rw_export(self.path.hostid)
        keys = EphemeralKeyCache(self.world.rng)
        self.sessions = [
            ServerSession.connect(
                self.world.connector(self.server.location,
                                     proto.SERVICE_FILESERVER),
                self.path, keys, self.world.rng, encrypt=True)
            for _ in range(sessions)
        ]
        # Sessions register in dial order on this synchronous world.
        self.connection_of = dict(zip(self.sessions, self.export.connections))
        root = self.lookup(self.sessions[0], bytes(24), ".")
        self.handle = self.lookup(self.sessions[0], root, "shared")
        self.plain = self.connection_of[self.sessions[0]]._decrypt_handle(
            self.handle)

    @staticmethod
    def lookup(session, directory: bytes, name: str) -> bytes:
        status, body = session.call_nfs(
            nfs_const.NFSPROC3_LOOKUP,
            nfs_types.LookupArgs.make(
                what=nfs_types.DirOpArgs.make(dir=directory, name=name)),
            authno=0)
        assert status == nfs_const.NFS3_OK
        return body.object

    def getattr(self, index: int) -> None:
        status, _ = self.sessions[index].call_nfs(
            nfs_const.NFSPROC3_GETATTR,
            nfs_types.GetAttrArgs.make(object=self.handle), authno=0)
        assert status == nfs_const.NFS3_OK

    def write(self, index: int, data: bytes = b"new!") -> None:
        status, _ = self.sessions[index].call_nfs(
            nfs_const.NFSPROC3_WRITE,
            nfs_types.WriteArgs.make(file=self.handle, offset=0,
                                     count=len(data),
                                     stable=nfs_const.FILE_SYNC,
                                     data=data),
            authno=0)
        assert status == nfs_const.NFS3_OK

    def holders(self) -> set[int]:
        by_connection = {c: i for i, c in enumerate(self.connection_of.values())}
        return {by_connection[c]
                for c in self.export.lease_holders.get(self.plain, ())}


@pytest.fixture
def invalidated(monkeypatch):
    """Record, in send order, which connections a fan-out invalidated."""
    sent = []
    original = ServerConnection.send_invalidate

    def recording(self, encrypted_handle, plain_handle):
        sent.append(self)
        return original(self, encrypted_handle, plain_handle)

    monkeypatch.setattr(ServerConnection, "send_invalidate", recording)
    return sent


@pytest.fixture
def alive_calls(monkeypatch):
    """Count every ``ServerConnection.alive`` read."""
    calls = [0]
    original = ServerConnection.alive

    def counting(self):
        calls[0] += 1
        return original.fget(self)

    monkeypatch.setattr(ServerConnection, "alive", property(counting))
    return calls


def test_write_with_256_connections_looks_only_at_its_2_holders(alive_calls):
    crowd = Crowd(256)
    crowd.getattr(100)  # session 0 holds a lease from its LOOKUP
    assert crowd.holders() == {0, 100}
    alive_calls[0] = 0
    crowd.write(200)
    assert alive_calls[0] <= 2
    assert crowd.holders() == {200}  # invalidation ends the leases


def test_session_set_up_never_checks_other_connections(alive_calls):
    crowd = Crowd(64)
    assert alive_calls[0] == 0
    assert len(crowd.server.master.connections) == 64
    # A closed link leaves the master's live set at teardown.
    crowd.sessions[5].pipe.raw.close()
    assert len(crowd.server.master.connections) == 63
    assert crowd.connection_of[crowd.sessions[5]] \
        not in crowd.server.master.connections


def test_invalidations_reach_exactly_the_holders_in_registration_order(
        invalidated):
    crowd = Crowd(8)
    for index in (6, 2, 4):  # lease order is not registration order
        crowd.getattr(index)
    crowd.write(7)
    connections = list(crowd.connection_of.values())
    assert invalidated == [connections[i] for i in (0, 2, 4, 6)]


def test_holder_reregistered_after_resync_goes_to_the_end(invalidated):
    crowd = Crowd(6)
    for index in (1, 2, 3):
        crowd.getattr(index)
    assert crowd.sessions[2].resync()
    connection = crowd.connection_of[crowd.sessions[2]]
    assert list(crowd.export.connections)[-1] is connection
    crowd.write(5)
    order = [crowd.connection_of[crowd.sessions[i]] for i in (0, 1, 3, 2)]
    assert invalidated == order


def test_closed_holder_is_pruned_by_fanout_and_non_holder_at_teardown():
    crowd = Crowd(5)
    crowd.getattr(1)
    holder = crowd.connection_of[crowd.sessions[1]]
    idle = crowd.connection_of[crowd.sessions[3]]
    crowd.sessions[3].pipe.raw.close()
    crowd.sessions[1].pipe.raw.close()
    # Holding no lease, the idle connection left at teardown; the
    # holder stays until a fan-out to its handle finds it dead.
    assert idle not in crowd.export.connections
    assert holder in crowd.export.connections
    pruned = crowd.server.master.dead_connections_pruned
    crowd.write(4)
    assert crowd.server.master.dead_connections_pruned == pruned + 1
    assert holder not in crowd.export.connections
    assert all(holder not in holders
               for holders in crowd.export.lease_holders.values())


def test_crash_empties_the_lease_holder_index():
    crowd = Crowd(4)
    for index in range(4):
        crowd.getattr(index)
    assert crowd.export.lease_holders
    crowd.server.master.crash()
    assert crowd.export.lease_holders == {}
    assert crowd.export.connections == {}
    assert crowd.server.master.connections == {}
