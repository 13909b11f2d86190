"""Tests for the simulated kernel VFS and POSIX facade (repro.kernel.vfs)."""

import errno

import pytest

from repro.fs.memfs import MemFs
from repro.kernel.mounter import NfsMounter
from repro.kernel.vfs import Kernel, KernelError, Process
from repro.nfs3.server import Nfs3Server
from repro.sim.clock import Clock


@pytest.fixture
def kernel():
    kernel = Kernel(Clock(), "testhost")
    fs = MemFs(fsid=1)
    server = Nfs3Server(fs)
    kernel.mount_root(server.program, server.root_handle())
    return kernel


@pytest.fixture
def root(kernel):
    return Process(kernel, uid=0, gid=0)


@pytest.fixture
def alice(kernel):
    return Process(kernel, uid=1000, gid=100)


def test_basic_file_io(root):
    root.write_file("/hello.txt", b"hello world")
    assert root.read_file("/hello.txt") == b"hello world"
    st = root.stat("/hello.txt")
    assert st.is_file and st.size == 11


def test_open_flags(root):
    fd = root.open("/f", "w")
    root.write(fd, b"version 1")
    root.close(fd)
    # "w" truncates
    fd = root.open("/f", "w")
    root.close(fd)
    assert root.read_file("/f") == b""
    # "a" appends
    root.write_file("/f", b"start")
    fd = root.open("/f", "a")
    root.write(fd, b"-end")
    root.close(fd)
    assert root.read_file("/f") == b"start-end"
    # "x" exclusive
    with pytest.raises(KernelError) as excinfo:
        root.open("/f", "x")
    assert excinfo.value.errno == errno.EEXIST


def test_open_missing_file(root):
    with pytest.raises(KernelError) as excinfo:
        root.open("/missing", "r")
    assert excinfo.value.errno == errno.ENOENT


def test_open_rw_keeps_existing_bytes(root):
    root.write_file("/f", b"0123456789")
    fd = root.open("/f", "rw")
    assert root.read(fd, 4) == b"0123"
    root.lseek(fd, 6)
    assert root.write(fd, b"XY") == 2
    root.lseek(fd, 0)
    assert root.read(fd, 10) == b"012345XY89"
    root.close(fd)
    assert root.read_file("/f") == b"012345XY89"


def test_open_rw_neither_creates_nor_skips_access(root, alice):
    with pytest.raises(KernelError) as excinfo:
        root.open("/missing", "rw")
    assert excinfo.value.errno == errno.ENOENT
    root.write_file("/readonly", b"keep", mode=0o644)
    with pytest.raises(KernelError) as excinfo:
        alice.open("/readonly", "rw")
    assert excinfo.value.errno == errno.EACCES
    fd = alice.open("/readonly", "r")
    alice.close(fd)
    assert root.read_file("/readonly") == b"keep"


def test_open_directory_for_read_rejected(root):
    root.mkdir("/d")
    with pytest.raises(KernelError) as excinfo:
        root.open("/d", "r")
    assert excinfo.value.errno == errno.EISDIR


def test_bad_fd(root):
    with pytest.raises(KernelError) as excinfo:
        root.read(999, 1)
    assert excinfo.value.errno == errno.EBADF


def test_lseek_and_partial_reads(root):
    root.write_file("/f", b"0123456789")
    fd = root.open("/f", "r")
    root.lseek(fd, 4)
    assert root.read(fd, 3) == b"456"
    assert root.read(fd, 100) == b"789"
    root.close(fd)


def test_large_io_chunks(root):
    blob = bytes(range(256)) * 200  # > 8 KB, forces chunked read/write
    root.write_file("/big", blob)
    assert root.read_file("/big") == blob


def test_directories_and_readdir(root):
    root.makedirs("/a/b/c")
    root.write_file("/a/b/x", b"1")
    assert root.readdir("/a/b") == ["c", "x"]
    root.rmdir("/a/b/c")
    assert root.readdir("/a/b") == ["x"]


def test_rename_unlink(root):
    root.write_file("/old", b"data")
    root.rename("/old", "/new")
    assert root.read_file("/new") == b"data"
    with pytest.raises(KernelError):
        root.stat("/old")
    root.unlink("/new")
    with pytest.raises(KernelError):
        root.stat("/new")


def test_symlink_following(root):
    root.makedirs("/target/dir")
    root.write_file("/target/dir/file", b"content")
    root.symlink("/target/dir", "/abs-link")
    root.symlink("target/dir", "/rel-link")
    assert root.read_file("/abs-link/file") == b"content"
    assert root.read_file("/rel-link/file") == b"content"
    assert root.readlink("/abs-link") == "/target/dir"
    st = root.lstat("/abs-link")
    assert st.is_symlink
    assert root.stat("/abs-link").is_dir


def test_symlink_loop_detected(root):
    root.symlink("/loop-b", "/loop-a")
    root.symlink("/loop-a", "/loop-b")
    with pytest.raises(KernelError) as excinfo:
        root.read_file("/loop-a")
    assert excinfo.value.errno == errno.ELOOP


def test_dotdot_resolution(root):
    root.makedirs("/x/y")
    root.write_file("/top", b"up here")
    assert root.read_file("/x/y/../../top") == b"up here"
    assert root.read_file("/x/../x/y/../y/../../top") == b"up here"


def test_chdir_getcwd_relative_paths(root):
    root.makedirs("/home/user")
    root.write_file("/home/user/f", b"x")
    root.chdir("/home/user")
    assert root.getcwd() == "/home/user"
    assert root.read_file("f") == b"x"
    root.chdir("..")
    assert root.getcwd() == "/home"
    with pytest.raises(KernelError):
        root.chdir("/home/user/f")  # not a directory


def test_realpath_resolves_links(root):
    root.makedirs("/real/dir")
    root.symlink("/real/dir", "/shortcut")
    assert root.realpath("/shortcut") == "/real/dir"
    root.chdir("/shortcut")
    assert root.getcwd() == "/real/dir"


def test_permissions_enforced(root, alice):
    root.write_file("/rootfile", b"secret", mode=0o600)
    with pytest.raises(KernelError) as excinfo:
        alice.read_file("/rootfile")
    assert excinfo.value.errno == errno.EACCES
    root.makedirs("/home/alice")
    root.chown("/home/alice", 1000, 100)
    alice.write_file("/home/alice/mine", b"ok")
    assert alice.stat("/home/alice/mine").uid == 1000


def test_chmod_chown_truncate_utimes(root):
    root.write_file("/f", b"0123456789")
    root.chmod("/f", 0o640)
    assert root.stat("/f").mode == 0o640
    root.chown("/f", 5, 6)
    st = root.stat("/f")
    assert (st.uid, st.gid) == (5, 6)
    root.truncate("/f", 3)
    assert root.read_file("/f") == b"012"
    root.utimes("/f", 111, 222)
    st = root.stat("/f")
    assert (st.atime, st.mtime) == (111, 222)


def test_link_and_fstat(root):
    root.write_file("/a", b"linked")
    root.link("/a", "/b")
    assert root.stat("/b").nlink == 2
    fd = root.open("/a", "r")
    assert root.fstat_fd(fd).size == 6
    root.close(fd)


def test_walk(root):
    root.makedirs("/tree/sub")
    root.write_file("/tree/f1", b"")
    root.write_file("/tree/sub/f2", b"")
    walked = list(root.walk("/tree"))
    assert walked[0] == ("/tree", ["sub"], ["f1"])
    assert walked[1] == ("/tree/sub", [], ["f2"])


def test_fsync_and_fchown(root, alice):
    root.write_file("/f", b"x", sync=False)
    fd = root.open("/f", "r")
    root.fsync(fd)
    with pytest.raises(KernelError) as excinfo:
        # alice does not own /f: changing its owner must fail with EPERM
        afd = alice.open("/f", "r")
        alice.fchown(afd, 1000)
    assert excinfo.value.errno in (errno.EPERM, errno.EACCES)


def test_mounts_get_own_device_numbers(kernel, root):
    other_fs = MemFs(fsid=77)
    other_server = Nfs3Server(other_fs)
    root.makedirs("/mnt")
    kernel.add_mount("/mnt", other_server.program, other_server.root_handle())
    root.write_file("/mnt/file", b"on the other fs")
    assert root.stat("/mnt/file").fsid == 77
    assert root.stat("/").fsid == 1
    # ".." out of a mount returns to the parent fs
    assert root.stat("/mnt/..").fsid == 1


def test_mounter_mount_unmount(kernel, root):
    mounter = NfsMounter(kernel)
    other = Nfs3Server(MemFs(fsid=5))
    root.makedirs("/m")
    mounter.mount("/m", other.program, other.root_handle())
    assert "/m" in mounter.mounted_paths()
    root.write_file("/m/f", b"1")
    assert root.stat("/m/f").fsid == 5
    assert mounter.unmount("/m")
    # after unmount the underlying (empty) directory is visible again
    assert root.readdir("/m") == []


def test_mounter_takeover_serves_stale(kernel, root):
    mounter = NfsMounter(kernel)
    other = Nfs3Server(MemFs(fsid=5))
    root.makedirs("/crashy")
    mount = mounter.mount("/crashy", other.program, other.root_handle())
    root.write_file("/crashy/f", b"1")
    # The daemon "crashes"; nfsmounter takes over and unmounts.
    assert mounter.takeover("/crashy")
    assert "/crashy" not in mounter.mounted_paths()
    assert root.readdir("/crashy") == []
    assert not mounter.takeover("/never-mounted")
