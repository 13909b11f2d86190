"""Rabin private-key operations take the libcrypto modexp lane.

Key generation (Miller-Rabin witnesses), key negotiation (both ends
decrypt key halves) and a signed login (the agent signs) all
exponentiate modulo odd numbers through :func:`numtheory.powmod`.  When
the libcrypto kernel loaded, none of them may fall back to builtin
``pow``: ``fastlane.modexp.builtin_calls`` stays 0, and anything else is
a fast lane that silently stopped being used.
"""

import pytest

from repro.bench.__main__ import perf_stats
from repro.crypto import numtheory
from repro.fs import pathops
from repro.fs.memfs import Cred
from repro.kernel.world import World

pytestmark = pytest.mark.skipif(
    numtheory.MODEXP_KERNEL != "libcrypto",
    reason="libcrypto modexp kernel unavailable")


def test_keyneg_and_signed_login_never_use_builtin_pow():
    before = perf_stats()["modexp"]
    world = World(seed=5)
    server = world.add_server("modexp.sfs.test")
    path = server.export_fs()
    alice = server.add_user("alice", uid=1000)
    home = pathops.mkdirs(server.fs, "/home/alice")
    server.fs.setattr(home.ino, Cred(0, 0), uid=1000, gid=100)
    client = world.add_client("laptop")
    before_session = perf_stats()["modexp"]
    proc = client.login_user("alice", alice.key, uid=1000)
    proc.write_file(f"{path}/home/alice/f", b"data")
    assert proc.read_file(f"{path}/home/alice/f") == b"data"
    after = perf_stats()["modexp"]
    assert after["builtin_calls"] == before["builtin_calls"]
    # Two decryptions (one per end) and one signature, two half-size
    # exponentiations each.
    assert (after["libcrypto_calls"]
            - before_session["libcrypto_calls"]) >= 6
