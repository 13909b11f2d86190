"""SHA-1 callers that hash in pieces take the fast lane too.

HostIDs, session keys, SessionIDs and the entropy pool hash several
fields in turn through :func:`repro.crypto.backend.new_sha1`.  With the
fast lane on, a full mount, handshake, login and file round trip must
leave the reference implementation untouched
(``fastlane.sha1.reference_bytes`` stays 0); with it off, the same seed
must derive bit-identical HostIDs and session keys.
"""

import pytest

from repro.crypto import backend
from repro.crypto.prg import EntropyPool
from repro.crypto.sha1 import STATS
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.world import World


@pytest.fixture(autouse=True)
def _fast_flags_restored():
    yield
    backend.set_fast(True)


def mount_and_round_trip(seed: int = 3):
    """Mount an export, log in, write and read back; return what the
    handshake derived."""
    world = World(seed=seed)
    server = world.add_server("fastlane.sfs.test")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.write_file(f"{path}/home/alice/f", b"data")
    assert proc.read_file(f"{path}/home/alice/f") == b"data"
    session = client.sfscd._mounts[path.hostid].session
    keys = session.session_keys
    return path.hostid, (keys.kcs, keys.ksc, keys.session_id)


def test_mount_with_fast_lane_never_reaches_the_reference():
    backend.set_fast(True)
    before = STATS.reference_bytes
    mount_and_round_trip()
    pool = EntropyPool()
    pool.add("label", b"entropy")
    pool.seed()
    assert STATS.reference_bytes == before


def test_reference_lane_derives_identical_hostids_and_session_keys():
    backend.set_fast(True)
    fast = mount_and_round_trip()
    backend.set_fast(False)
    before = STATS.reference_bytes
    slow = mount_and_round_trip()
    assert STATS.reference_bytes > before  # the reference really ran
    assert slow == fast


def test_entropy_pool_seed_identical_across_lanes():
    seeds = []
    for fast in (True, False):
        backend.set_fast(fast)
        pool = EntropyPool()
        pool.add("label", b"entropy")
        seeds.append(pool.seed())
    assert seeds[0] == seeds[1]
