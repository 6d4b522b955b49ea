"""Directory content serialization.

A directory is a regular log file whose payload is the serialized
entry table below.  Directories are small, so the file system reads
and rewrites them whole on every namespace change.
"""

from __future__ import annotations

import struct

from repro.errors import CorruptFileSystemError, FileSystemError
from repro.lfs.ondisk import FileType

_HEADER_FMT = "<IQ"
_DIR_MAGIC = 0x44495245  # "DIRE"
MAX_NAME_BYTES = 255


def validate_name(name: str) -> bytes:
    """Check a single path component and return its UTF-8 bytes."""
    if not name or name in (".", ".."):
        raise FileSystemError(f"invalid file name {name!r}")
    if "/" in name or "\x00" in name:
        raise FileSystemError(f"invalid character in file name {name!r}")
    encoded = name.encode("utf-8")
    if len(encoded) > MAX_NAME_BYTES:
        raise FileSystemError(f"file name too long ({len(encoded)} bytes)")
    return encoded


def encode_directory(entries: dict[str, tuple[int, FileType]]) -> bytes:
    """Serialize ``{name: (ino, ftype)}``."""
    out = [struct.pack(_HEADER_FMT, _DIR_MAGIC, len(entries))]
    for name in sorted(entries):
        ino, ftype = entries[name]
        encoded = validate_name(name)
        out.append(struct.pack("<IBH", ino, int(ftype), len(encoded)))
        out.append(encoded)
    return b"".join(out)


def decode_directory(data: bytes) -> dict[str, tuple[int, FileType]]:
    """Parse a directory payload back into its entry table."""
    header_size = struct.calcsize(_HEADER_FMT)
    if len(data) < header_size:
        raise CorruptFileSystemError("directory payload too small")
    magic, count = struct.unpack(_HEADER_FMT, data[:header_size])
    if magic != _DIR_MAGIC:
        raise CorruptFileSystemError("bad directory magic")
    entries: dict[str, tuple[int, FileType]] = {}
    at = header_size
    entry_size = struct.calcsize("<IBH")
    for _ in range(count):
        if at + entry_size > len(data):
            raise CorruptFileSystemError("truncated directory entry")
        ino, ftype, name_len = struct.unpack("<IBH",
                                             data[at:at + entry_size])
        at += entry_size
        if at + name_len > len(data):
            raise CorruptFileSystemError("truncated directory name")
        name = data[at:at + name_len].decode("utf-8")
        at += name_len
        entries[name] = (ino, FileType(ftype))
    return entries


def split_path(path: str) -> list[str]:
    """Split an absolute path into components, validating each."""
    if not path.startswith("/"):
        raise FileSystemError(f"path must be absolute: {path!r}")
    components = list(filter(None, path.split("/")))
    for part in components:
        validate_name(part)
    return components
