"""NFS version 3 (RFC 1813): types, server over MemFs, typed client."""

from . import const, types
from .client import Nfs3Client, Nfs3Error
from .handles import BadHandle, EncryptedHandles, PlainHandles
from .server import Nfs3Server, authsys_cred_mapper

__all__ = [
    "BadHandle",
    "EncryptedHandles",
    "Nfs3Client",
    "Nfs3Error",
    "Nfs3Server",
    "PlainHandles",
    "authsys_cred_mapper",
    "const",
    "types",
]
