"""Every durable write and lock: replace, framed append, torn-tail read and cut."""

from __future__ import annotations

import contextlib
import fcntl
import os
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

from .encoding import LENGTH_PREFIX, encode_bytes
from .errors import ChainFormatError, StackStartupError, TruncatedDataError


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Replace the file at ``path`` with ``data``: write a temporary file,
    fsync it, rename it over, fsync the directory. A crash leaves the old
    file or the new one, never a mix; a write that fails before the rename
    leaves the old one. The rename is durable only once the directory entry
    is (fsync(2)), so a returned call is not undone by a power loss."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def append_frame(path: str, body: bytes) -> None:
    """Append ``body`` as one length-prefixed frame and fsync; on failure
    cut the file back."""
    frame = encode_bytes(body)
    with open(path, "ab", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        try:
            if f.write(frame) != len(frame):
                raise OSError(f"short write to {path}")
            os.fsync(f.fileno())
        except BaseException:
            os.ftruncate(f.fileno(), size)
            raise


def read_frames(f: BinaryIO, parse: Callable[[bytes], Any]) -> Iterator[Any]:
    """``parse`` of each frame's body in the file open as ``f``, read from
    its start one frame at a time, so the file's bytes are never held whole.

    A final frame that an interrupted append left shorter than its length
    prefix (or a partial prefix) is the start of a body, so its ``parse``
    runs out of data (``TruncatedDataError``): it is left out, and ``f`` is
    left at its start. A final frame whose body parses whole, or fails in
    any other way, is a corrupted length instead, and it refuses the file,
    as does a file with no whole frame.
    """
    size, end = f.seek(0, os.SEEK_END), f.seek(0)  # end: of the last whole frame
    while head := f.read(4):
        # a partial prefix is a frame longer than the file; ``read(n)`` sets
        # n bytes aside first, so a corrupted length reads at most the file
        length = LENGTH_PREFIX.unpack(head)[0] if len(head) == 4 else size
        frame = f.read(min(length, size))
        if len(frame) < length:
            try:
                parse(frame)
            except TruncatedDataError:
                f.seek(end)
                break
            raise ChainFormatError(f"corrupted frame length at offset {end}")
        end += 4 + length
        yield parse(frame)
    if not end:
        raise ChainFormatError("no whole frame in the data")


def cut_torn_tail(f: BinaryIO) -> None:
    """Cut and fsync the file open as ``f`` at a torn frame ``read_frames`` left it at."""
    if f.tell() < os.fstat(f.fileno()).st_size:
        f.truncate()
        os.fsync(f.fileno())


def make_state_dir(path: str | Path) -> None:
    """Create the state directory, or a directory under it; a path that
    cannot be one, such as a regular file, is refused."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise StackStartupError(f"cannot use {path} as a state directory: {e}") from e


def lock_state_dir(state_dir: str) -> int:
    """A descriptor of the directory ``state_dir`` holding its exclusive
    lock; a directory another server holds is refused."""
    fd = os.open(state_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError as e:
        os.close(fd)
        raise StackStartupError(
            f"state directory {state_dir} is held by another running server") from e
    return fd


@contextlib.contextmanager
def lock_file(path: Path) -> Iterator[None]:
    """Hold the exclusive lock of the file at ``path`` (waiting for it) until the block ends."""
    make_state_dir(path.parent)
    with open(path, "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        yield
