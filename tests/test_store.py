"""The torn-tail rule of ``store.read_frames`` on frames that are not blocks:
the rule rests on the caller's parse alone."""

import pytest

from chainchat.encoding import LENGTH_PREFIX, Reader, encode_bytes, encode_str
from chainchat.errors import ChainFormatError
from chainchat.store import append_frame, read_frames

PAIRS = [("alice", "hello"), ("", "b"), ("carol", "x" * 300), ("dave", "é")]


def parse_pair(body):
    """A body of two canonical string fields, and nothing after them."""
    r = Reader(body, what="pair")
    pair = (r.read_str(), r.read_str())
    r.require_exhausted()
    return pair


def pair_body(pair):
    return encode_str(pair[0]) + encode_str(pair[1])


@pytest.fixture
def pair_file(tmp_path):
    """A file of one frame per pair, and the offset of its last frame."""
    path = tmp_path / "pairs.dat"
    with open(path, "ab", buffering=0) as f:
        for pair in PAIRS[:-1]:
            append_frame(f, pair_body(pair))
        last = path.stat().st_size
        append_frame(f, pair_body(PAIRS[-1]))
    return path, last


def test_whole_file_reads_every_frame(pair_file):
    path, _ = pair_file
    with open(path, "rb") as f:
        assert list(read_frames(f, parse_pair)) == PAIRS
        assert f.tell() == path.stat().st_size


def test_a_cut_at_every_offset_of_the_last_frame_leaves_it_out(pair_file):
    path, last = pair_file
    full = path.read_bytes()
    assert full[last:] == encode_bytes(pair_body(PAIRS[-1]))
    for cut in range(last, len(full)):
        path.write_bytes(full[:cut])
        with open(path, "rb") as f:
            assert list(read_frames(f, parse_pair)) == PAIRS[:-1], f"cut at {cut}"
            assert f.tell() == last, f"cut at {cut}"


def test_a_length_one_longer_than_a_whole_last_body_is_refused(pair_file):
    path, last = pair_file
    data = bytearray(path.read_bytes())
    (length,) = LENGTH_PREFIX.unpack_from(data, last)
    LENGTH_PREFIX.pack_into(data, last, length + 1)
    path.write_bytes(bytes(data))
    with open(path, "rb") as f, pytest.raises(ChainFormatError):
        list(read_frames(f, parse_pair))
