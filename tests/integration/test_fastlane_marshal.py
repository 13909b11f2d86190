"""Every marshal of a real session takes the compiled XDR lane.

A fast lane that silently stops serving is a bug, not a slowdown: with
``use_fast_marshal`` on, a mount, a public-key login and a round of
create/write/read/stat/fchown/unlink through the kernel must leave the
reference codec's counters (``xdr.STATS.slow_packs``/``slow_unpacks``)
untouched.  With the lane off, the same session runs every marshal
through the reference codec and behaves the same.
"""

import pytest

from repro.core import proto
from repro.core.agent import Agent
from repro.core.authplugins import HmacPasswordAgent, HmacPasswordProtocol
from repro.core.client import ServerSession
from repro.core.keyneg import EphemeralKeyCache
from repro.crypto import backend
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.vfs import KernelError
from repro.kernel.world import World
from repro.rpc import xdr


@pytest.fixture(autouse=True)
def _fast_flags_restored():
    yield
    backend.set_fast(True)


def _delta(before):
    after = xdr.STATS.snapshot()
    return {name: after[name] - before[name] for name in before}


def kernel_session(seed=5):
    """Mount, log in, and run the file round trip; return what it saw."""
    world = World(seed=seed)
    server = world.add_server("marshal.sfs.test")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    proc = client.login_user("alice", alice.key, uid=1000)
    name = f"{path}/home/alice/f"
    fd = proc.open(name, "w")
    proc.write(fd, b"x" * 3000)
    proc.fsync(fd)
    with pytest.raises(KernelError):
        proc.fchown(fd, 0)  # not the owner's to give away
    proc.close(fd)
    data = proc.read_file(name)
    size = proc.stat(name).size
    proc.unlink(name)
    with pytest.raises(KernelError):
        proc.stat(name)
    return data, size


def test_kernel_session_never_reaches_the_reference_codec():
    backend.set_fast(True)
    before = xdr.STATS.snapshot()
    assert kernel_session() == (b"x" * 3000, 3000)
    delta = _delta(before)
    assert delta["slow_packs"] == 0
    assert delta["slow_unpacks"] == 0
    assert delta["fast_packs"] > 50 and delta["fast_unpacks"] > 50


def test_reference_lane_runs_the_same_session():
    backend.set_fast(False)
    before = xdr.STATS.snapshot()
    assert kernel_session() == (b"x" * 3000, 3000)
    delta = _delta(before)
    assert delta["fast_packs"] == 0 and delta["fast_unpacks"] == 0
    assert delta["slow_packs"] > 50 and delta["slow_unpacks"] > 50


def _session(world, path):
    link = world.connector(path.location, proto.SERVICE_FILESERVER)
    return ServerSession.connect(link, path, EphemeralKeyCache(world.rng),
                                 world.rng)


def test_public_key_login_is_not_probed_as_an_envelope():
    world = World(seed=91)
    server = world.add_server("plug.example.com")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    agent = Agent("alice", world.rng)
    agent.add_key(alice.key)
    session = _session(world, path)
    before = xdr.STATS.snapshot()
    assert session.login(agent) != 0
    assert _delta(before)["slow_unpacks"] == 0


def test_enveloped_password_login_still_unwraps():
    world = World(seed=91)
    server = world.add_server("plug.example.com")
    path = server.export_fs()
    server.authserver.add_account("dana", 1400, 100)
    plugin = HmacPasswordProtocol(server.authserver, world.rng)
    plugin.enroll("dana", b"danas password")
    server.authserver.register_protocol(plugin)
    agent = HmacPasswordAgent("dana", b"danas password")
    assert _session(world, path).login(agent) != 0
    assert agent.rounds == 2
