import builtins
import dataclasses
import gc
import hashlib
import os
import random
import threading
import time
import tracemalloc

import pytest

import count_costs
import oracles
from chainchat import chain as chain_mod
from chainchat.chain import (
    EXPIRED,
    KIND_CERTIFICATE,
    KIND_REVOCATION,
    NOT_FOUND,
    REVOKED,
    VALID,
    ZERO_SIGNATURE,
    Block,
    CertificateRecord,
    ChainNode,
    ChainState,
    WriterCredential,
    append_block,
    chain_from_bytes,
    chain_to_bytes,
    fetch_latest,
    genesis,
    load_chain,
    revoke,
    save_chain,
    status_of,
    verify_chain,
    verify_record,
)
from chainchat.encoding import encode_bytes
from chainchat.errors import (
    ChainError,
    ChainFormatError,
    RecordValidationError,
    RevocationError,
    WriterNotAuthorizedError,
)

T0 = 1_700_000_000


@pytest.fixture
def mno():
    return WriterCredential.generate("mno-1")


@pytest.fixture
def im_server():
    return WriterCredential.generate("im-1")


@pytest.fixture
def chain(mno, im_server):
    return genesis([(mno.writer_id, mno.verification_key),
                    (im_server.writer_id, im_server.verification_key)],
                   timestamp=T0)


def all_records(state):
    """Every record of ``state`` in append order (oldest first)."""
    return [rec for block in state.blocks for rec in block.records]


def cert_for(credential, user, issued=T0, expires=T0 + 3600, key=b"\x11" * 32):
    return credential.make_record(user, key, issued, expires, KIND_CERTIFICATE)


# ---------------------------------------------------------------------------
# genesis
# ---------------------------------------------------------------------------

class TestGenesis:
    def test_two_writer_genesis_verifies(self, chain):
        assert chain.height == 0
        assert verify_chain(chain)

    def test_empty_writer_set(self):
        with pytest.raises(ValueError):
            genesis([])

    def test_duplicate_writer_ids(self, mno):
        with pytest.raises(ValueError):
            genesis([("w", mno.verification_key), ("w", mno.verification_key)])

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            genesis([("w", b"\x00" * 31)])

    @pytest.mark.parametrize("declaration", [("", b"\x42" * 32), ("w", b"\x42" * 31)],
                             ids=["empty-id", "31-byte-key"])
    def test_saved_genesis_with_a_bad_declaration_is_refused(self, chain, tmp_path,
                                                              declaration):
        """``genesis``, ``verify_chain`` and ``ChainNode.open`` keep one rule."""
        declarations = chain.blocks[0].writer_declarations + (declaration,)
        with pytest.raises(ValueError):
            genesis(declarations)
        path = str(tmp_path / "chain.bin")
        bad = dataclasses.replace(chain.blocks[0], writer_declarations=declarations)
        save_chain(ChainState(blocks=(bad,)), path)
        result = verify_chain(load_chain(path))
        assert not result and result.height == 0
        with pytest.raises(ChainError, match="height 0"):
            ChainNode.open(path)


# ---------------------------------------------------------------------------
# append
# ---------------------------------------------------------------------------

class TestAppend:
    def test_append_then_fetch_valid(self, chain, mno):
        state = append_block(chain, mno, [cert_for(mno, "alice")], timestamp=T0 + 1)
        assert state.height == 1
        status = fetch_latest(state, "alice", now=T0 + 2)
        assert status.state == VALID
        assert status.record.user_id == "alice"

    def test_unknown_writer_rejected(self, chain):
        stranger = WriterCredential.generate("stranger")
        with pytest.raises(WriterNotAuthorizedError):
            append_block(chain, stranger, [])

    def test_wrong_key_for_known_id_rejected(self, chain):
        imposter = WriterCredential.generate("mno-1")
        with pytest.raises(WriterNotAuthorizedError):
            append_block(chain, imposter, [])

    def test_corrupted_record_signature_rejected(self, chain, mno):
        rec = cert_for(mno, "alice")
        bad_sig = bytearray(rec.issuer_signature)
        bad_sig[0] ^= 0xFF
        bad = dataclasses.replace(rec, issuer_signature=bytes(bad_sig))
        with pytest.raises(RecordValidationError):
            append_block(chain, mno, [bad])
        assert chain.height == 0  # original state untouched

    def test_record_from_undeclared_issuer_rejected(self, chain, mno):
        outsider = WriterCredential.generate("other-mno")
        rec = cert_for(outsider, "alice")
        with pytest.raises(RecordValidationError):
            append_block(chain, mno, [rec])

    def test_append_only(self, chain, mno):
        s1 = append_block(chain, mno, [cert_for(mno, "a")], timestamp=T0 + 1)
        s2 = append_block(s1, mno, [cert_for(mno, "b")], timestamp=T0 + 2)
        for old, new in zip(s1.blocks, s2.blocks):
            assert old.canonical_bytes() == new.canonical_bytes()


# ---------------------------------------------------------------------------
# fetch_latest
# ---------------------------------------------------------------------------

class TestFetchLatest:
    def test_not_found(self, chain):
        assert fetch_latest(chain, "ghost", now=T0).state == NOT_FOUND

    def test_revocation_wins(self, chain, mno):
        state = append_block(chain, mno, [cert_for(mno, "alice")], timestamp=T0 + 1)
        state = revoke(state, mno, "alice", timestamp=T0 + 2)
        assert fetch_latest(state, "alice", now=T0 + 3).state == REVOKED

    def test_expiry(self, chain, mno):
        state = append_block(chain, mno,
                             [cert_for(mno, "alice", issued=T0, expires=T0 + 100)],
                             timestamp=T0)
        assert fetch_latest(state, "alice", now=T0 + 99).state == VALID
        assert fetch_latest(state, "alice", now=T0 + 100).state == EXPIRED

    def test_reissue_supersedes_expired(self, chain, mno):
        state = append_block(chain, mno,
                             [cert_for(mno, "alice", issued=T0, expires=T0 + 100)],
                             timestamp=T0)
        state = append_block(state, mno, [cert_for(mno, "other")], timestamp=T0 + 1)
        state = append_block(state, mno,
                             [cert_for(mno, "alice", issued=T0 + 120,
                                       expires=T0 + 200, key=b"\x22" * 32)],
                             timestamp=T0 + 120)
        status = fetch_latest(state, "alice", now=T0 + 150)
        assert status.state == VALID
        assert status.record.subject_public_key == b"\x22" * 32

    def test_reissue_after_revocation(self, chain, mno):
        state = append_block(chain, mno, [cert_for(mno, "alice")], timestamp=T0)
        state = revoke(state, mno, "alice", timestamp=T0 + 1)
        state = append_block(state, mno,
                             [cert_for(mno, "alice", issued=T0 + 2,
                                       expires=T0 + 5000, key=b"\x33" * 32)],
                             timestamp=T0 + 2)
        status = fetch_latest(state, "alice", now=T0 + 3)
        assert status.state == VALID
        assert status.record.subject_public_key == b"\x33" * 32


class TestStatusOf:
    def test_fetch_latest_wraps_status_of(self, chain, mno):
        """One latest-wins rule: for a valid, a revoked, an expired and a
        missing user, at, before and after the expiry instant, fetch_latest
        states what status_of says of the newest record, and carries that
        record unless it is a revocation."""
        state = append_block(chain, mno, [cert_for(mno, "ann", expires=T0 + 100),
                                          cert_for(mno, "rev")], timestamp=T0)
        state = revoke(state, mno, "rev", timestamp=T0 + 1)
        for user in ("ann", "rev", "ghost"):
            for now in (T0 + 99, T0 + 100, T0 + 101):
                status, rec = fetch_latest(state, user, now=now), state.latest.get(user)
                assert status.state == status_of(rec, now)
                assert status.record is (None if status.state == REVOKED else rec)
        ann = state.latest["ann"]
        assert [status_of(ann, now) for now in (T0 + 99, T0 + 100, T0 + 101)] == \
            [VALID, EXPIRED, EXPIRED]
        assert (status_of(state.latest["rev"], T0), status_of(None, T0)) == (REVOKED, NOT_FOUND)


# ---------------------------------------------------------------------------
# latest-wins oracle equivalence (randomized issue/revoke/re-issue schedule)
# ---------------------------------------------------------------------------

def oracle_status(records, user, now):
    """Brute force: walk every record in append order, last match decides."""
    decision = NOT_FOUND
    chosen = None
    for rec in records:
        if rec.user_id != user:
            continue
        if rec.kind == KIND_REVOCATION:
            decision, chosen = REVOKED, None
        elif rec.expires_at <= now:
            decision, chosen = EXPIRED, rec
        else:
            decision, chosen = VALID, rec
    return decision, chosen


class TestLatestWinsOracle:
    def test_thousand_event_schedule(self, chain, mno):
        rng = random.Random(20_240_817)
        users = [f"user{i:02d}" for i in range(50)]
        state = chain
        flat = []  # append-order record log, maintained independently
        now = T0
        for event in range(1_000):
            now += rng.randint(1, 5)
            user = rng.choice(users)
            if rng.random() < 0.3 and oracle_status(flat, user, now)[0] != NOT_FOUND:
                state = revoke(state, mno, user, timestamp=now)
                flat.append(state.blocks[-1].records[0])
            else:
                lifetime = rng.choice([50, 500, 50_000])
                rec = cert_for(mno, user, issued=now, expires=now + lifetime,
                               key=bytes([event % 256]) * 32)
                state = append_block(state, mno, [rec], timestamp=now)
                flat.append(rec)
            # spot-check the touched user plus a sample each event
            for probe in [user, rng.choice(users)]:
                expected_state, expected_rec = oracle_status(flat, probe, now)
                got = fetch_latest(state, probe, now=now)
                assert got.state == expected_state
                if expected_state == VALID:
                    assert got.record == expected_rec
            # full sweep now and then
            if event % 100 == 99:
                for probe in users:
                    expected_state, _ = oracle_status(flat, probe, now)
                    assert fetch_latest(state, probe, now=now).state == expected_state
        assert verify_chain(state)

    def test_revocation_is_immediate(self, chain, mno):
        state = append_block(chain, mno, [cert_for(mno, "alice")], timestamp=T0)
        assert fetch_latest(state, "alice", now=T0 + 1).state == VALID
        state = revoke(state, mno, "alice", timestamp=T0 + 1)
        assert fetch_latest(state, "alice", now=T0 + 1).state == REVOKED


# ---------------------------------------------------------------------------
# verify / tamper evidence
# ---------------------------------------------------------------------------

def build_ten_block_chain(chain, mno):
    state = chain
    for i in range(10):
        records = [cert_for(mno, f"user{i}", issued=T0 + i, expires=T0 + i + 1000,
                            key=bytes([i + 1]) * 32)]
        state = append_block(state, mno, records, timestamp=T0 + i)
    return state


class TestVerifyChain:
    def test_fresh_chain_verifies(self, chain, mno):
        assert verify_chain(build_ten_block_chain(chain, mno))

    def test_genesis_only_verifies(self, chain):
        assert verify_chain(chain)

    def test_record_mutation_detected_with_height(self, chain, mno):
        state = build_ten_block_chain(chain, mno)
        target = state.blocks[5]
        bad_rec = dataclasses.replace(target.records[0], user_id="mallory")
        bad_block = dataclasses.replace(target, records=(bad_rec,))
        mutated = ChainState(blocks=state.blocks[:5] + (bad_block,) + state.blocks[6:])
        result = verify_chain(mutated)
        assert not result
        assert result.height == 5

    def test_revocation_of_unknown_user(self, chain, mno):
        with pytest.raises(RevocationError):
            revoke(chain, mno, "ghost", timestamp=T0)

    def test_revoke_unauthorized(self, chain, mno):
        state = append_block(chain, mno, [cert_for(mno, "alice")], timestamp=T0)
        stranger = WriterCredential.generate("stranger")
        with pytest.raises(WriterNotAuthorizedError):
            revoke(state, stranger, "alice", timestamp=T0 + 1)

    def test_im_server_may_revoke(self, chain, mno, im_server):
        # writer permissions are uniform: the IM server writer can revoke too
        state = append_block(chain, mno, [cert_for(mno, "alice")], timestamp=T0)
        state = revoke(state, im_server, "alice", timestamp=T0 + 1)
        assert fetch_latest(state, "alice", now=T0 + 2).state == REVOKED
        assert verify_chain(state)


class TestPersistence:
    def test_roundtrip_byte_identical(self, chain, mno, tmp_path):
        state = build_ten_block_chain(chain, mno)
        path = tmp_path / "chain.dat"
        save_chain(state, str(path))
        reloaded = load_chain(str(path))
        assert chain_to_bytes(reloaded) == chain_to_bytes(state)
        assert verify_chain(reloaded)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_bytes(b"")
        with pytest.raises(ChainFormatError):
            load_chain(str(path))

    def test_every_byte_mutation_detected(self, chain, mno, tmp_path):
        """Exhaustive single-byte tamper scan over a persisted 10-block chain."""
        state = build_ten_block_chain(chain, mno)
        path = tmp_path / "chain.dat"
        save_chain(state, str(path))
        original = path.read_bytes()
        for offset in range(len(original)):
            mutated = bytearray(original)
            mutated[offset] ^= 0x01
            try:
                candidate = chain_from_bytes(bytes(mutated))
            except ChainFormatError:
                continue  # parse failure counts as detection
            assert not verify_chain(candidate), f"undetected mutation at byte {offset}"

    def test_node_persists_appends(self, mno, im_server, tmp_path):
        path = tmp_path / "chain.dat"
        node = ChainNode.create(
            [(mno.writer_id, mno.verification_key),
             (im_server.writer_id, im_server.verification_key)],
            path=str(path),
        )
        node.append(mno, [cert_for(mno, "alice")], timestamp=T0)
        node.close()
        reopened = ChainNode.open(str(path))
        reopened.close()
        assert reopened.height == 1
        assert verify_chain(load_chain(str(path)))


def _node_with_blocks(mno, im_server, path, n):
    node = ChainNode.create(
        [(mno.writer_id, mno.verification_key),
         (im_server.writer_id, im_server.verification_key)],
        path=str(path),
    )
    for i in range(n):
        node.append(mno, [cert_for(mno, f"user{i}", key=bytes([i + 1]) * 32)],
                    timestamp=T0 + i)
    return node


def _mutations(original):
    """Each offset and the chain file ``original`` with one flip there: in a
    frame's length prefix (three masks each) or in a byte of the last frame."""
    frames, pos = [], 0
    while pos < len(original):
        frames.append(pos)
        pos += 4 + int.from_bytes(original[pos:pos + 4], "big")
    flips = [(offset, mask) for start in frames for offset in range(start, start + 4)
             for mask in (0x01, 0x80, 0xFF)]
    flips += [(offset, 0x01) for offset in range(frames[-1] + 4, len(original))]
    for offset, mask in flips:
        mutated = bytearray(original)
        mutated[offset] ^= mask
        yield offset, bytes(mutated)


class TestAppendOnlyFile:
    def test_a_chain_of_fixed_inputs_has_pinned_bytes(self, tmp_path):
        """Two writers from fixed seeds (Ed25519 signs deterministically)
        append two-record blocks and revocations at fixed times: the file's
        SHA-256 is pinned, so no change to the append path changes a byte."""
        mno = WriterCredential.from_seed("mno-1", bytes(range(32)))
        other = WriterCredential.from_seed("relay-1", bytes(range(1, 33)))
        path = tmp_path / "chain.dat"
        save_chain(genesis([(w.writer_id, w.verification_key) for w in (mno, other)],
                           timestamp=1), str(path))
        node = ChainNode.open(str(path), [mno])
        for i in range(50):
            records = [mno.make_record(f"u{i}", bytes([i + 1]) * 32, 100 + i, 200 + i,
                                       KIND_CERTIFICATE),
                       other.make_record(f"v{i}", bytes([i + 2]) * 32, 100 + i, 300 + i,
                                         KIND_CERTIFICATE)]
            node.append(mno if i % 3 else other, records, timestamp=1000 + i)
            if i % 7 == 0:
                node.revoke(mno, f"u{i}", timestamp=1000 + i)
        node.close()
        data = path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            27530, "c11257469941ba5080dbbcfbd2fe3498294afda0ca975ad87c1ffcf76673c03e")

    def test_append_adds_exactly_one_frame(self, mno, im_server, tmp_path):
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 3)
        before = path.read_bytes()
        node.revoke(mno, "user1", timestamp=T0 + 10)
        node.close()
        after = path.read_bytes()
        assert after[:len(before)] == before
        assert after == before + encode_bytes(node.head.canonical_bytes())
        assert verify_chain(load_chain(str(path)))

    def test_torn_final_frame_cut_at_every_offset(self, mno, im_server, tmp_path):
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 4)
        intact = path.read_bytes()
        node.append(mno, [cert_for(mno, "last")], timestamp=T0 + 10)
        node.close()
        full = path.read_bytes()
        torn = tmp_path / "torn.dat"
        for cut in range(len(intact) + 1, len(full)):
            torn.write_bytes(full[:cut])
            reopened = ChainNode.open(str(torn))
            assert reopened.height == 4, f"cut at {cut}"
            assert verify_chain(load_chain(str(torn)))
            assert torn.read_bytes() == intact
            reopened.append(mno, [cert_for(mno, "next")], timestamp=T0 + 11)
            reopened.close()
            again = ChainNode.open(str(torn))
            again.close()
            assert again.height == 5
            assert verify_chain(load_chain(str(torn)))

    def test_load_leaves_out_a_torn_tail_and_keeps_the_file(self, mno, im_server,
                                                           tmp_path):
        """``load_chain`` reads a torn file as ``ChainNode.open`` does, but
        only reads it; a flip that the cut could hide is still refused."""
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 4)
        intact = path.read_bytes()
        node.append(mno, [cert_for(mno, "last")], timestamp=T0 + 10)
        node.close()
        full = path.read_bytes()
        for cut in range(len(intact), len(full)):
            path.write_bytes(full[:cut])
            assert chain_to_bytes(load_chain(str(path))) == intact, f"cut at {cut}"
            assert path.read_bytes() == full[:cut]
        for offset, mutated in _mutations(full):
            path.write_bytes(mutated)
            try:
                assert not verify_chain(load_chain(str(path))), f"flip at {offset}"
            except ChainFormatError:
                pass

    def test_open_never_repairs_a_mutation_into_a_valid_chain(self, mno, im_server,
                                                              tmp_path):
        """Flips in every frame's length prefix and in every byte of the last
        frame, through ChainNode.open: each one is refused, leaving the file
        as it was."""
        path = tmp_path / "chain.dat"
        _node_with_blocks(mno, im_server, path, 10).close()
        for offset, mutated in _mutations(path.read_bytes()):
            path.write_bytes(mutated)
            with pytest.raises(ChainError):
                ChainNode.open(str(path))
            assert path.read_bytes() == mutated, f"refused file changed at {offset}"

    def test_failed_fsync_leaves_file_and_snapshot(self, mno, im_server, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 3)
        intact, head = path.read_bytes(), node.head

        def failing_fsync(fd):
            raise OSError("disk gone")

        with monkeypatch.context() as patched:
            patched.setattr("os.fsync", failing_fsync)
            with pytest.raises(OSError):
                node.append(mno, [cert_for(mno, "doomed")], timestamp=T0 + 10)
        assert path.read_bytes() == intact
        assert node.head is head and node.newest("doomed") is None
        node.append(mno, [cert_for(mno, "after")], timestamp=T0 + 11)
        node.close()
        reopened = ChainNode.open(str(path))
        reopened.close()
        assert (reopened.height, reopened.head) == (node.height, node.head)
        assert path.read_bytes() == intact + encode_bytes(node.head.canonical_bytes())


OPEN_HEIGHT = 1_000
FRAME_SLACK = 64 * 1024  # a few frames, the file buffer and the block list


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    """A chain file of ``OPEN_HEIGHT`` one-certificate blocks, and its writer."""
    writer = WriterCredential.generate("mno-1")
    state = genesis([(writer.writer_id, writer.verification_key)], timestamp=T0)
    for i in range(OPEN_HEIGHT):
        state = append_block(state, writer, [cert_for(writer, f"user{i:04d}")],
                             timestamp=T0 + i)
    path = tmp_path_factory.mktemp("long") / "chain.dat"
    save_chain(state, str(path))
    return str(path), writer


class TestOneFrameAtATime:
    @pytest.mark.parametrize("read", [
        lambda path, writer: ChainNode.open(path, [writer]),
        lambda path, writer: load_chain(path),
    ], ids=["open", "load_chain"])
    def test_a_read_peaks_at_what_it_returns_plus_a_few_frames(self, long_chain, read):
        """The file's bytes are never held beside the blocks parsed from
        them: a read's traced peak is what it returns, plus a bound far
        below the file's size."""
        path, writer = long_chain
        assert os.path.getsize(path) > 4 * FRAME_SLACK
        tracemalloc.start()
        try:
            state = read(path, writer)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if isinstance(state, ChainNode):
            state.close()
        assert state.height == OPEN_HEIGHT
        assert peak - held <= FRAME_SLACK

    def test_parsed_names_are_held_once(self, long_chain):
        """Each issuer id, kind and writer id a chain repeats is one string."""
        blocks = load_chain(long_chain[0]).blocks
        first, second = blocks[1].records[0], blocks[-1].records[0]
        assert first.issuer_id is second.issuer_id
        assert first.kind is second.kind
        assert blocks[1].writer_id is first.issuer_id
        assert blocks[-1].writer_id is first.issuer_id


class _PausedMap(dict):
    """A node's map whose ``get`` of ``user``, from ``reader`` alone, waits
    for ``resume`` once it has set ``reading``."""

    def __init__(self, latest, user):
        super().__init__(latest)
        self.user, self.reader = user, None
        self.reading, self.resume = threading.Event(), threading.Event()

    def get(self, user_id, default=None):
        if user_id == self.user and threading.current_thread() is self.reader:
            self.reading.set()
            self.resume.wait(timeout=10)
        return super().get(user_id, default)


class _WatchedLock:
    """A lock that counts each time a thread asks for it."""

    def __init__(self):
        self._lock, self.asked = threading.Lock(), threading.Semaphore(0)

    def __enter__(self):
        self.asked.release()
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()


class TestNodeReads:
    @pytest.mark.parametrize("opened", [False, True], ids=["appended", "opened"])
    def test_a_failed_commit_leaves_the_node_as_it_was(self, mno, im_server, tmp_path,
                                                       monkeypatch, opened):
        """A commit moves the head and the map; a failed one, of an append
        or a revoke, moves neither. Users whose records the node read at
        open are covered too."""
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 3)
        if opened:
            node.close()
            node = ChainNode.open(str(path))
        now = T0 + 20
        assert fetch_latest(node, "user1", now=now).record.subject_public_key == \
            bytes([2]) * 32
        node.revoke(mno, "user1", timestamp=T0 + 10)
        node.append(mno, [cert_for(mno, "newcomer")], timestamp=T0 + 11)
        assert node.height == 5
        assert [fetch_latest(node, user, now=now).state for user in ("user1", "newcomer")] \
            == [REVOKED, VALID]
        head, latest = node.head, dict(node._latest)

        def lost_disk(f, frame):
            raise OSError("disk gone")

        with monkeypatch.context() as patched:
            patched.setattr("chainchat.chain.append_frame", lost_disk)
            with pytest.raises(OSError):
                node.append(mno, [cert_for(mno, "doomed")], timestamp=T0 + 12)
            with pytest.raises(OSError):
                node.revoke(mno, "user2", timestamp=T0 + 12)
        assert (node.head, node.height, node._latest) == (head, 5, latest)
        node.append(mno, [cert_for(mno, "later")], timestamp=T0 + 13)
        node.close()
        assert node.height == 6
        assert [fetch_latest(node, user, now=now).state
                for user in ("doomed", "user2", "later")] == [NOT_FOUND, VALID, VALID]

    def test_a_commit_waits_for_a_read_in_progress(self, mno, im_server, tmp_path):
        """A revoke that lands while a two-user read is half done writes its
        frame, then waits to publish until the read has ended; the read
        returns both records as they stood before the revoke."""
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 3)
        before = node.newest_of("user1", "user2")
        intact, head = path.read_bytes(), node.head
        node._latest = paused = _PausedMap(node._latest, "user2")
        node._publish_lock = watched = _WatchedLock()
        read = []
        paused.reader = threading.Thread(
            target=lambda: read.append(node.newest_of("user1", "user2")))
        committer = threading.Thread(
            target=lambda: node.revoke(mno, "user1", timestamp=T0 + 10))
        paused.reader.start()
        try:
            assert paused.reading.wait(timeout=10)  # user1 read, user2 not yet
            assert watched.asked.acquire(timeout=10)  # the reader's ask
            committer.start()
            assert watched.asked.acquire(timeout=10)  # the commit asks to publish
            assert len(path.read_bytes()) > len(intact)  # its frame is written
            assert node.head is head and node.newest("user1") is before[0]
        finally:
            paused.resume.set()
            paused.reader.join(timeout=10)
            committer.join(timeout=10)
        node.close()
        assert read == [before]
        assert node.height == head.height + 1
        assert fetch_latest(node, "user1", now=T0 + 20).state == REVOKED


class TestRevokeOnce:
    def test_a_second_revoke_is_refused_and_appends_nothing(self, mno, im_server, tmp_path):
        """A marker after a marker would change no state, only grow the chain."""
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 3)
        node.revoke(mno, "user1", timestamp=T0 + 10)
        height, size = node.height, path.stat().st_size
        with pytest.raises(RevocationError, match="already revoked") as err:
            node.revoke(mno, "user1", timestamp=T0 + 11)
        node.close()
        assert err.value.category == "revocation-error"
        assert (node.height, path.stat().st_size) == (height, size)
        assert fetch_latest(node, "user1", now=T0 + 20).state == REVOKED

    def test_two_revokes_of_one_user_at_once_append_one_marker(self, mno, im_server, tmp_path,
                                                              monkeypatch):
        """The second revoke asks for the append lock while the first is
        writing its frame; once it has the lock it sees the first's marker."""
        path = tmp_path / "chain.dat"
        node = _node_with_blocks(mno, im_server, path, 3)
        height = node.height
        node._lock = watched = _WatchedLock()
        writing, resume = threading.Event(), threading.Event()
        append_frame = chain_mod.append_frame

        def paused_append(f, frame):
            writing.set()
            resume.wait(timeout=10)
            append_frame(f, frame)

        monkeypatch.setattr(chain_mod, "append_frame", paused_append)
        outcomes = []

        def revoke_user1():
            try:
                node.revoke(mno, "user1", timestamp=T0 + 10)
                outcomes.append("revoked")
            except RevocationError:
                outcomes.append("refused")

        first, second = (threading.Thread(target=revoke_user1) for _ in range(2))
        first.start()
        try:
            assert writing.wait(timeout=10)  # the first holds the lock
            assert watched.asked.acquire(timeout=10)  # the first's ask
            second.start()
            assert watched.asked.acquire(timeout=10)  # the second waits for the lock
        finally:
            resume.set()
            first.join(timeout=10)
            second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert sorted(outcomes) == ["refused", "revoked"]
        assert node.height == height + 1
        assert [rec.kind for blk in load_chain(str(path)).blocks for rec in blk.records
                if rec.user_id == "user1"] == [KIND_CERTIFICATE, KIND_REVOCATION]
        node.close()


def _wide_chain(writer, users, per_block=100):
    """A chain of ``users`` unsigned certificates, ``per_block`` to a block;
    ``ChainNode(state)`` takes it unchecked."""
    blocks = [genesis([(writer.writer_id, writer.verification_key)], timestamp=T0).blocks[0]]
    for h in range(1, users // per_block + 1):
        records = tuple(
            CertificateRecord(f"user{h}-{i}", b"\x11" * 32, writer.writer_id, T0,
                              T0 + 3600, KIND_CERTIFICATE, b"\x00" * 64)
            for i in range(per_block))
        blocks.append(Block(h, b"\x00" * 32, records, T0, writer.writer_id, b"\x00" * 64))
    return ChainState(blocks=tuple(blocks))


class TestNodeCosts:
    def test_an_append_encodes_its_record_once(self, mno):
        """``make_record`` encodes the signed payload to sign it, and the
        append encodes it once for the issuer check, the records hash and
        the frame."""
        node = ChainNode.create([(mno.writer_id, mno.verification_key)])
        counts = dict.fromkeys(count_costs.COUNTERS, 0)
        with count_costs.counting(counts):
            node.append(mno, [cert_for(mno, "alice")], timestamp=T0)
        assert counts["record_encodes"] == 2

    def test_appends_build_the_writer_checks_once(self, mno, im_server, monkeypatch):
        """The node builds its table of writer checks when it starts, and
        derives an appending credential's key on its first append only."""
        declarations = [(mno.writer_id, mno.verification_key),
                        (im_server.writer_id, im_server.verification_key)]
        builds, derived = [], []
        writer_checks, key = chain_mod._writer_checks, WriterCredential.verification_key

        def counted_writer_checks(*args):
            builds.append(args)
            return writer_checks(*args)

        monkeypatch.setattr(chain_mod, "_writer_checks", counted_writer_checks)
        monkeypatch.setattr(WriterCredential, "verification_key",
                            property(lambda c: derived.append(c) or key.fget(c)))
        node = ChainNode.create(declarations)
        for i in range(5):
            node.append(mno, [cert_for(mno, f"user{i}")], timestamp=T0 + i)
        assert (len(builds), len(derived), node.height) == (1, 1, 5)

    def test_appends_open_the_chain_file_once(self, mno, tmp_path, monkeypatch):
        path = str(tmp_path / "chain.dat")
        opened = []
        real_open = builtins.open

        def counted_open(file, *args, **kwargs):
            if os.fspath(file) == path:
                opened.append(args)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted_open)
        node = ChainNode.create([(mno.writer_id, mno.verification_key)], path=path)
        for i in range(5):
            node.append(mno, [cert_for(mno, f"user{i}")], timestamp=T0 + i)
        assert len(opened) == 1
        node.close()
        monkeypatch.undo()
        assert load_chain(path).height == 5

    def test_an_opened_node_holds_far_less_than_its_blocks(self, long_chain):
        """The node keeps each user's newest record and the head, not the
        blocks that ``load_chain`` returns. A full collection first empties
        the interpreter's free lists, which a parse fills with the argument
        tuples of its calls."""
        path, writer = long_chain

        def held_by(read):
            tracemalloc.start()
            try:
                kept = read()
                gc.collect()
                return tracemalloc.get_traced_memory()[0], kept
            finally:
                tracemalloc.stop()

        node_held, node = held_by(lambda: ChainNode.open(path, [writer]))
        node.close()
        chain_held, chain = held_by(lambda: load_chain(path))
        assert node.height == chain.height == OPEN_HEIGHT
        assert node_held <= 0.6 * chain_held

    def test_an_append_allocates_as_much_at_5000_users_as_at_500(self, mno):
        def peak_of_one_append(users):
            node = ChainNode(_wide_chain(mno, users))
            record = cert_for(mno, "newcomer")
            tracemalloc.start()
            try:
                node.append(mno, [record], timestamp=T0 + 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_of_one_append(5_000) <= peak_of_one_append(500) + 2048

    def test_a_user_re_enrolled_1000_times_holds_one_record(self, mno):
        """The node keeps each user's newest record and nothing older."""
        def held_after(enrolments):
            gc.collect()
            tracemalloc.start()
            try:
                node = ChainNode.create([(mno.writer_id, mno.verification_key)])
                for i in range(enrolments):
                    node.append(mno, [cert_for(mno, "alice", key=i.to_bytes(32, "big"))],
                                timestamp=T0 + i)
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        assert held_after(1_000) <= held_after(1) + 4096


class TestLatestMap:
    def test_older_snapshots_and_branches_match_oracle(self, chain, mno):
        rng = random.Random(7)
        users = [f"user{i}" for i in range(12)]
        history = [(chain, [])]  # (snapshot, append-order records up to it)
        now = T0
        for event in range(120):
            now += rng.randint(1, 40)
            state, flat = history[-1] if rng.random() < 0.8 else rng.choice(history)
            user = rng.choice(users)
            if rng.random() < 0.3 and oracle_status(flat, user, now)[0] != NOT_FOUND:
                state = revoke(state, mno, user, timestamp=now)
            else:
                rec = cert_for(mno, user, issued=now, expires=now + rng.choice([30, 3000]),
                               key=bytes([event % 256]) * 32)
                state = append_block(state, mno, [rec], timestamp=now)
            history.append((state, flat + list(state.blocks[-1].records)))
        for state, flat in history:
            assert all_records(state) == flat
            for probe in users + ["ghost"]:
                for at in (T0, now // 2 + T0 // 2, now + 5000):
                    expected_state, expected_rec = oracle_status(flat, probe, at)
                    got = fetch_latest(state, probe, now=at)
                    assert got.state == expected_state
                    if expected_state in (VALID, EXPIRED):
                        assert got.record == expected_rec

    def test_map_rebuilt_from_blocks(self, chain, mno):
        state = build_ten_block_chain(chain, mno)
        state = revoke(state, mno, "user3", timestamp=T0 + 20)
        rebuilt = ChainState(blocks=state.blocks)
        assert dict(rebuilt.latest) == dict(state.latest)
        assert rebuilt == state

    def test_absent_user_lookup_is_flat_in_height(self, mno):
        """Cost of a miss must not grow with the chain (a scan is ~40x here)."""
        def best_per_call(state):
            best = float("inf")
            for _ in range(30):
                start = time.perf_counter()
                for _ in range(100):
                    fetch_latest(state, "ghost", now=T0)
                best = min(best, (time.perf_counter() - start) / 100)
            return best

        small, large = _wide_chain(mno, 100, per_block=1), _wide_chain(mno, 4_000, per_block=1)
        assert best_per_call(large) / best_per_call(small) < 5


class TestRecords:
    def test_record_roundtrip(self, mno):
        rec = cert_for(mno, "alice")
        assert CertificateRecord.from_bytes(rec.canonical_bytes()) == rec

    def test_record_fingerprint_changes_with_content(self, mno):
        a = cert_for(mno, "alice")
        b = cert_for(mno, "alice", key=b"\x77" * 32)
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint == hashlib.sha256(a.canonical_bytes()).digest()

    def test_verify_record_binds_fields(self, mno):
        rec = cert_for(mno, "alice")
        assert verify_record(rec, mno.verification_key)
        altered = dataclasses.replace(rec, user_id="bob")
        assert not verify_record(altered, mno.verification_key)

    def test_revocation_shape(self, mno):
        marker = mno.make_record("alice", b"\x00" * 32, T0, T0, KIND_REVOCATION)
        assert marker.shape_ok()
        assert verify_record(marker, mno.verification_key)
        bad = mno.make_record("alice", b"\x01" * 32, T0, T0, KIND_REVOCATION)
        assert not bad.shape_ok()


# ---------------------------------------------------------------------------
# signatures under a held key, checked by re-signing
# ---------------------------------------------------------------------------

def random_nonce_signature(credential, payload, rng):
    """A valid signature of ``payload`` under ``credential`` made with a
    random nonce r instead of RFC 8032's deterministic one:
    R = r*B, S = r + H(R || A || M)*a mod L, by the test-side oracle."""
    a = oracles._decode_scalar(hashlib.sha512(credential.seed).digest()[:32])
    public = oracles.ed25519_base_mul(a)
    assert public == credential.verification_key
    r = rng.randrange(1, oracles.L)
    big_r = oracles.ed25519_base_mul(r)
    k = int.from_bytes(hashlib.sha512(big_r + public + payload).digest(), "little")
    return big_r + ((r + k * a) % oracles.L).to_bytes(32, "little")


def flip(data, offset):
    mutated = bytearray(data)
    mutated[offset] ^= 0x01
    return bytes(mutated)


RECORD_CASES = {
    "valid": lambda mno, rec: rec,
    "flipped-signature-byte": lambda mno, rec: dataclasses.replace(
        rec, issuer_signature=flip(rec.issuer_signature, 40)),
    "flipped-payload-byte": lambda mno, rec: dataclasses.replace(
        rec, subject_public_key=flip(rec.subject_public_key, 3)),
    "other-key-same-issuer-id": lambda mno, rec: cert_for(
        WriterCredential.generate(mno.writer_id), rec.user_id),
    "random-nonce": lambda mno, rec: dataclasses.replace(
        rec, issuer_signature=random_nonce_signature(
            mno, rec.signed_payload(), random.Random(20))),
    "expires-at-issue": lambda mno, rec: mno.make_record(
        rec.user_id, rec.subject_public_key, rec.issued_at, rec.issued_at, KIND_CERTIFICATE),
    "revocation-with-a-key": lambda mno, rec: mno.make_record(
        rec.user_id, rec.subject_public_key, rec.issued_at, rec.issued_at, KIND_REVOCATION),
}
VALID_CASES = {"valid", "random-nonce"}
BAD_SHAPE_CASES = {"expires-at-issue", "revocation-with-a-key"}


def signed_block(state, writer, records, timestamp=T0 + 1, sign=None):
    """The block ``append_block`` would make, without its record checks."""
    prev = state.blocks[-1]
    blk = Block(height=prev.height + 1, prev_hash=prev.block_hash(),
                records=tuple(records), timestamp=timestamp,
                writer_id=writer.writer_id, writer_signature=ZERO_SIGNATURE)
    signature = (sign or writer.sign)(blk.signature_payload())
    return dataclasses.replace(blk, writer_signature=signature)


class TestHeldKeyChecks:
    """A signature under a key this process holds is accepted when it equals
    the key's fresh signature and is verified otherwise, so every decision is
    the one plain verification makes."""

    @pytest.mark.parametrize("case", RECORD_CASES)
    def test_append_decides_as_verify_record(self, chain, mno, case):
        rec = RECORD_CASES[case](mno, cert_for(mno, "alice"))
        expected = verify_record(rec, mno.verification_key)
        assert expected == (case in VALID_CASES)
        if case == "random-nonce":  # the case that reaches the verify fallback
            assert rec.issuer_signature != mno.sign(rec.signed_payload())
        if case in BAD_SHAPE_CASES:  # refused by shape_ok alone
            assert rec.issuer_signature == mno.sign(rec.signed_payload())
            assert not rec.shape_ok()
        try:
            append_block(chain, mno, [rec], timestamp=T0 + 1)
            accepted = True
        except RecordValidationError:
            accepted = False
        assert accepted == expected

    @pytest.mark.parametrize("case", RECORD_CASES)
    def test_open_decides_as_verify_chain(self, chain, mno, im_server, tmp_path, case):
        rec = RECORD_CASES[case](mno, cert_for(mno, "alice"))
        path = str(tmp_path / "chain.dat")
        save_chain(ChainState(blocks=chain.blocks + (signed_block(chain, mno, [rec]),)),
                   path)
        expected = bool(verify_chain(load_chain(path)))
        assert expected == (case in VALID_CASES)
        try:
            ChainNode.open(path, [mno, im_server]).close()
            accepted = True
        except ChainError as e:
            assert "bad record signature" in str(e)
            accepted = False
        assert accepted == expected

    @pytest.mark.parametrize("case", ["random-nonce", "flipped-byte"])
    def test_open_decides_the_head_writer_signature_as_verify_chain(
            self, chain, mno, im_server, tmp_path, case):
        def sign(payload):
            if case == "random-nonce":
                return random_nonce_signature(mno, payload, random.Random(21))
            return flip(mno.sign(payload), 2)

        path = str(tmp_path / "chain.dat")
        head = signed_block(chain, mno, [cert_for(mno, "alice")], sign=sign)
        save_chain(ChainState(blocks=chain.blocks + (head,)), path)
        expected = bool(verify_chain(load_chain(path)))
        assert expected == (case == "random-nonce")
        try:
            ChainNode.open(path, [mno, im_server]).close()
            accepted = True
        except ChainError as e:
            assert "bad writer signature" in str(e)
            accepted = False
        assert accepted == expected

    def test_a_held_key_the_genesis_does_not_declare_never_re_signs(
            self, chain, mno, im_server, tmp_path):
        """An impostor's record, under the issuer id of a writer whose seed
        was swapped: holding the impostor refuses the file before any record
        is checked; holding only the other writer verifies and refuses."""
        impostor = WriterCredential.generate(mno.writer_id)
        path = str(tmp_path / "chain.dat")
        forged = cert_for(impostor, "alice")
        save_chain(ChainState(
            blocks=chain.blocks + (signed_block(chain, im_server, [forged]),)), path)
        with pytest.raises(ChainError, match="height 0: writer 'mno-1' does not match "
                                             "the chain's genesis declaration"):
            ChainNode.open(path, [impostor])
        with pytest.raises(ChainError, match="height 1: bad record signature"):
            ChainNode.open(path, [im_server])
        with pytest.raises(WriterNotAuthorizedError):
            append_block(chain, impostor, [forged])
