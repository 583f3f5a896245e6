"""The three closed-loop workloads: chat, group and churn.

Each workload builds its seeded inputs, sets up its users against a running
stack (``setup``, timed as part of ``setup_s``), runs one operation at a time
(``op``, returns False when the program reports a failure without raising),
finishes untimed (``after``) and checks the program's outputs with the
computations in ``oracle`` (``check``, returns a list of problems).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import inputs
import oracle
from chainchat.client import Client
from chainchat.crypto import IdentityKeyPair
from chainchat.errors import SessionRefusedError
from chainchat.relay import ACK_QUEUED
from chainchat.stack import MNO_WRITER_ID


def _client(user: inputs.User, rc, **kwargs) -> Client:
    return Client(user.user_id, IdentityKeyPair(user.private_key, user.public_key),
                  user.record, directory=rc, transport=rc, **kwargs)


def _received(log: Dict[str, List[Tuple[str, str]]], user_id: str, deliveries) -> bool:
    """Log what a pull delivered; True when nothing in it failed."""
    log[user_id].extend((d.envelope.sender_id, d.text) for d in deliveries)
    return all(d.error is None for d in deliveries)


class Chat:
    """One text from a seeded sender to a seeded recipient per operation:
    send (with its certificate fetch), submit, then the recipient's pull."""

    round_ops = 1

    def __init__(self, seed: int, ops: int, height: int, users: int):
        self.inputs = inputs.chat_inputs(seed, height, users, ops)
        self.chain = self.inputs.chain
        self.ops = ops
        self.plaintext_bytes = sum(len(t.encode("utf-8")) for _, _, t in self.inputs.schedule)
        self.users = {u.user_id: u for u in self.chain.users}

    def setup(self, rc) -> None:
        self.rc = rc
        self.clients = {uid: _client(u, rc) for uid, u in self.users.items()}
        for c in self.clients.values():
            rc.register_user(c.user_id, c.cert_fingerprint)
        for a, b in self.inputs.pairs:
            self.clients[a].start_session(b)
            self.clients[b].start_session(a)
        self.sent: Dict[Tuple[str, str], List[Tuple[object, str]]] = defaultdict(list)
        self.expected: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
        self.received: Dict[str, List[Tuple[str, str]]] = defaultdict(list)

    def op(self, k: int) -> bool:
        sender, recipient, text = self.inputs.schedule[k]
        envelope = self.clients[sender].send_text(recipient, text)
        self.sent[sender, recipient].append((envelope, text))
        self.expected[recipient].append((sender, text))
        ack = self.rc.submit_envelope(envelope)
        deliveries = self.clients[recipient].pull_messages()
        return (_received(self.received, recipient, deliveries)
                and ack == ACK_QUEUED and len(deliveries) == 1)

    def after(self) -> None:
        pass

    def check(self, chain_path) -> List[str]:
        problems = oracle.check_texts(self.expected, self.received)
        used: set = set()
        for (sender, recipient), sent in sorted(self.sent.items()):
            root = oracle.pair_root(self.users[sender].private_key,
                                    self.users[recipient].public_key, sender, recipient)
            problems += oracle.check_stream(f"{sender}->{recipient}", root, sent, used)
        return problems


class Group:
    """One group message per operation: a seeded member drains its mailbox
    and sends; the relay fans the message out; then the next member in a
    rolling sweep drains, so every member drains once per group-size messages."""

    def __init__(self, seed: int, ops: int, height: int, members: int):
        self.inputs = inputs.group_inputs(seed, height, members, ops)
        self.chain = self.inputs.chain
        self.ops = ops
        self.plaintext_bytes = sum(len(t.encode("utf-8")) for _, t in self.inputs.schedule)
        self.members = [u.user_id for u in self.chain.users]

    def setup(self, rc) -> None:
        self.rc = rc
        group_key = self.inputs.group_key
        admin, *others = self.chain.users
        self.clients = {admin.user_id: _client(admin, rc, rng=lambda n: group_key[:n])}
        self.clients.update((u.user_id, _client(u, rc)) for u in others)
        for c in self.clients.values():
            rc.register_user(c.user_id, c.cert_fingerprint)
        creation = self.clients[admin.user_id].create_group(self.inputs.group_id,
                                                            self.members)
        if creation.excluded:
            raise RuntimeError(f"group members refused: {creation.excluded}")
        for envelope in creation.envelopes:
            rc.submit_envelope(envelope)
        rc.create_group(self.inputs.group_id, admin.user_id, creation.member_ids)
        for u in others:
            deliveries = self.clients[u.user_id].pull_messages()
            if len(deliveries) != 1 or deliveries[0].error is not None:
                raise RuntimeError(f"{u.user_id} did not get the group key")
        self.sent: List[Tuple[object, str]] = []
        self.received: Dict[str, List[Tuple[str, str]]] = defaultdict(list)

    def _drain(self, user_id: str) -> bool:
        return _received(self.received, user_id, self.clients[user_id].pull_messages())

    def op(self, k: int) -> bool:
        sender, text = self.inputs.schedule[k]
        ok = self._drain(sender)
        envelope = self.clients[sender].send_group_message(self.inputs.group_id, text)
        self.sent.append((envelope, text))
        acks = self.rc.broadcast_group(self.inputs.group_id, envelope)
        ok = self._drain(self.members[k % len(self.members)]) and ok
        return (ok and len(acks) == len(self.members) - 1
                and all(result == ACK_QUEUED for _, result in acks))

    def after(self) -> None:
        for member in self.members:
            self._drain(member)

    def check(self, chain_path) -> List[str]:
        expected = {m: [(env.sender_id, text) for env, text in self.sent
                        if env.sender_id != m] for m in self.members}
        problems = oracle.check_texts(expected, self.received)
        root = oracle.group_root(self.inputs.group_key, self.inputs.group_id)
        return problems + oracle.check_stream("group", root, self.sent, set())


class Churn:
    """Seeded installs of new users over the wire, revocations of valid
    users and re-enrolments of revoked ones, on a growing chain."""

    round_ops = len(inputs.CHURN_ROUND)

    def __init__(self, seed: int, ops: int, height: int):
        self.inputs = inputs.churn_inputs(seed, height, ops)
        self.chain = self.inputs.chain
        self.ops = ops
        self.plaintext_bytes = 0

    def setup(self, rc) -> None:
        self.rc = rc
        self.installed: Dict[int, Client] = {}
        self.done = 0

    def op(self, k: int) -> bool:
        step = self.inputs.schedule[k]
        if step.kind == "revoke":
            self.rc.revoke_user(step.user_id)
        else:
            self.installed[k] = Client.install(step.user_id, self.rc, self.rc,
                                               rng=lambda n: step.key_seed[:n])
        self.done = k + 1
        return True

    def after(self) -> None:
        pass

    def check(self, chain_path) -> List[str]:
        mno_key = self.chain.writer_keys[MNO_WRITER_ID]
        blocks, problems = oracle.read_chain(chain_path.read_bytes(), self.chain.writer_keys)
        start = self.chain.height
        if len(blocks) - 1 != start + self.done:
            problems.append(f"chain height {len(blocks) - 1}, expected {start} + {self.done}")
            return problems
        key_of = {rec.user_id: rec.subject_public_key
                  for records in blocks[1:start + 1] for rec in records}
        revoked_key: Dict[str, bytes] = {}
        for k, step in enumerate(self.inputs.schedule[:self.done]):
            records = blocks[start + 1 + k]
            if len(records) != 1:
                problems.append(f"op {k}: block holds {len(records)} records")
                continue
            rec = records[0]
            if rec.user_id != step.user_id or rec.issuer_id != MNO_WRITER_ID:
                problems.append(f"op {k}: record for {rec.user_id} by {rec.issuer_id}")
            if not oracle.verify_record(rec, mno_key):
                problems.append(f"op {k}: record does not verify under the MNO key")
            if step.kind == "revoke":
                if rec.kind != "revocation":
                    problems.append(f"op {k}: revocation stored as {rec.kind}")
                revoked_key[step.user_id] = key_of[step.user_id]
                key_of[step.user_id] = None
            else:
                want = inputs.public_key(step.key_seed)
                issued = self.installed[k].certificate
                if rec.kind != "certificate" or rec.subject_public_key != want:
                    problems.append(f"op {k}: certificate does not carry the client's key")
                if (issued.subject_public_key, issued.issuer_signature) != (
                        rec.subject_public_key, rec.signature):
                    problems.append(f"op {k}: the client holds another record than the chain")
                if step.kind == "reenrol" and revoked_key.get(step.user_id, want) == want:
                    problems.append(f"op {k}: re-enrolment kept the old key")
                key_of[step.user_id] = want
        probe = next(iter(self.installed.values()), None)
        for user_id in sorted({step.user_id for step in self.inputs.schedule[:self.done]}):
            status = self.rc.fetch_certificate(user_id)
            if key_of[user_id] is None:
                if status.state != "revoked":
                    problems.append(f"{user_id}: {status.state} after revocation")
                elif probe is not None:
                    try:
                        probe.start_session(user_id)
                        problems.append(f"{user_id}: session opened after revocation")
                    except SessionRefusedError:
                        pass
            elif not status.is_valid or status.record.subject_public_key != key_of[user_id]:
                problems.append(f"{user_id}: fetch_cert does not return the installed key")
        return problems


def make(name: str, seed: int, seconds: int, smoke: bool):
    """The workload at its full size, or its smoke size, for ``seconds``.

    The timed phase is a fixed number of whole rounds, scaled from
    ``seconds`` by the rate each workload nearly reaches here, so that
    ``churn`` always ends at the same chain height.
    """
    size = dict(SMOKE[name] if smoke else FULL[name])
    cls = {"chat": Chat, "group": Group, "churn": Churn}[name]
    rate = size.pop("rate")
    round_ops = size.get("members") or cls.round_ops
    rounds = max(1, round(seconds * rate / round_ops))
    workload = cls(seed, rounds * round_ops, **size)
    # the reference kernel runs after every slice of about a quarter second
    slice_rounds = max(1, round(rate / 4 / round_ops))
    while rounds % slice_rounds:
        slice_rounds -= 1
    workload.slice_ops = slice_rounds * round_ops
    return workload


# operations per second of --seconds, chain heights, users and group size
FULL = {
    "chat": {"rate": 600, "height": 2000, "users": 32},
    "group": {"rate": 128, "height": 2000, "members": 32},
    "churn": {"rate": 45, "height": 1000},
}
SMOKE = {
    "chat": {"rate": 10, "height": 100, "users": 6},
    "group": {"rate": 8, "height": 100, "members": 4},
    "churn": {"rate": 10, "height": 50},
}
