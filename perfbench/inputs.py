"""Seeded inputs: a pre-built certificate chain, writer keys, user key pairs,
texts and operation schedules.

Nothing here is timed. The same workload, seed and size give the same inputs,
byte for byte: every random choice comes from one ``random.Random`` seeded
with the workload name and the seed, and every timestamp is fixed.
"""

from __future__ import annotations

import base64
import json
import random
import string
from dataclasses import dataclass
from typing import Dict, List, Tuple

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from chainchat.chain import (
    KIND_CERTIFICATE,
    CertificateRecord,
    WriterCredential,
    append_block,
    chain_to_bytes,
    genesis,
)
from chainchat.stack import MNO_WRITER_ID, RELAY_WRITER_ID

EPOCH = 1_700_000_000                    # issued_at of the pre-built chain
VALIDITY_S = 100 * 365 * 24 * 3600       # far beyond any run
TEXT_ALPHABET = string.ascii_letters + string.digits + " .,!?"
TEXT_MIN, TEXT_MAX = 8, 160              # characters per text, uniform

# churn: each round of ten operations is eight installs of new users, one
# revocation of a valid user, then one re-enrolment of a revoked user
CHURN_ROUND = ("install",) * 8 + ("revoke", "reenrol")


@dataclass(frozen=True)
class User:
    user_id: str
    private_key: bytes
    public_key: bytes
    record: CertificateRecord


@dataclass(frozen=True)
class ChainInputs:
    chain_bytes: bytes        # the chain file, as the stack stores it
    stack_json: str           # writer seeds, as the stack stores them
    writer_keys: Dict[str, bytes]
    height: int
    user_ids: List[str]       # every certified user, oldest first
    users: List[User]         # the users whose private keys the workload holds


def public_key(private_key: bytes) -> bytes:
    return X25519PrivateKey.from_private_bytes(private_key).public_key().public_bytes_raw()


def make_text(rng: random.Random) -> str:
    return "".join(rng.choices(TEXT_ALPHABET, k=rng.randint(TEXT_MIN, TEXT_MAX)))


def build_chain(rng: random.Random, height: int, keyed: int) -> ChainInputs:
    """A chain of ``height`` one-certificate blocks issued by the MNO writer.

    ``keyed`` users, one drawn uniformly from each of ``keyed`` equal slices
    of the chain, get real key pairs; the rest get random public keys. The
    slicing keeps the mean depth of the drawn users, and so the cost of the
    backward latest-wins scan, the same from seed to seed.
    """
    creds = {w: WriterCredential.from_seed(w, rng.randbytes(32))
             for w in (MNO_WRITER_ID, RELAY_WRITER_ID)}
    mno = creds[MNO_WRITER_ID]
    chosen = {rng.randrange(j * height // keyed, (j + 1) * height // keyed)
              for j in range(keyed)}
    state = genesis([(w, c.verification_key) for w, c in creds.items()], timestamp=EPOCH)
    user_ids, users = [], []
    for i in range(height):
        user_id = f"user{i:05d}"
        private = rng.randbytes(32) if i in chosen else b""
        pub = public_key(private) if private else rng.randbytes(32)
        record = mno.make_record(user_id, pub, EPOCH + i, EPOCH + i + VALIDITY_S,
                                 KIND_CERTIFICATE)
        state = append_block(state, mno, [record], timestamp=EPOCH + i)
        user_ids.append(user_id)
        if private:
            users.append(User(user_id, private, pub, record))
    stack_json = json.dumps({"writers": [
        {"id": w, "seed": base64.b64encode(c.seed).decode()} for w, c in creds.items()
    ]}, indent=2)
    return ChainInputs(
        chain_bytes=chain_to_bytes(state),
        stack_json=stack_json,
        writer_keys={w: c.verification_key for w, c in creds.items()},
        height=height,
        user_ids=user_ids,
        users=users,
    )


@dataclass(frozen=True)
class ChatInputs:
    chain: ChainInputs
    schedule: List[Tuple[str, str, str]]   # (sender, recipient, text) per operation
    pairs: List[Tuple[str, str]]           # unordered pairs that exchange texts


def chat_inputs(seed: int, height: int, users: int, ops: int) -> ChatInputs:
    rng = random.Random(f"chat:{seed}")
    chain = build_chain(rng, height, users)
    ids = [u.user_id for u in chain.users]
    schedule = []
    for _ in range(ops):
        sender, recipient = rng.sample(ids, 2)
        schedule.append((sender, recipient, make_text(rng)))
    pairs = sorted({tuple(sorted((s, r))) for s, r, _ in schedule})
    return ChatInputs(chain, schedule, pairs)


@dataclass(frozen=True)
class GroupInputs:
    chain: ChainInputs
    group_id: str
    group_key: bytes                       # what the admin's rng hands out
    schedule: List[Tuple[str, str]]        # (sender, text) per operation


def group_inputs(seed: int, height: int, members: int, ops: int) -> GroupInputs:
    rng = random.Random(f"group:{seed}")
    chain = build_chain(rng, height, members)
    ids = [u.user_id for u in chain.users]
    schedule = [(rng.choice(ids), make_text(rng)) for _ in range(ops)]
    return GroupInputs(chain, "bench-group", rng.randbytes(32), schedule)


@dataclass(frozen=True)
class ChurnOp:
    kind: str          # "install", "revoke" or "reenrol"
    user_id: str
    key_seed: bytes    # entropy for the new key pair; empty for "revoke"


@dataclass(frozen=True)
class ChurnInputs:
    chain: ChainInputs
    schedule: List[ChurnOp]


def churn_inputs(seed: int, height: int, ops: int) -> ChurnInputs:
    """``ops`` is a whole number of rounds; revocation picks a valid user
    uniformly, re-enrolment a revoked one, tracked as the schedule is made."""
    rng = random.Random(f"churn:{seed}")
    chain = build_chain(rng, height, 1)
    valid = list(chain.user_ids)
    revoked: List[str] = []
    schedule: List[ChurnOp] = []
    for _ in range(ops // len(CHURN_ROUND)):
        kinds = list(CHURN_ROUND)
        rng.shuffle(kinds)
        if kinds.index("revoke") > kinds.index("reenrol"):
            i, j = kinds.index("revoke"), kinds.index("reenrol")
            kinds[i], kinds[j] = kinds[j], kinds[i]
        for kind in kinds:
            if kind == "install":
                user_id = f"new{len(schedule):05d}"
                valid.append(user_id)
            elif kind == "revoke":
                user_id = valid.pop(rng.randrange(len(valid)))
                revoked.append(user_id)
            else:
                user_id = revoked.pop(rng.randrange(len(revoked)))
                valid.append(user_id)
            key_seed = b"" if kind == "revoke" else rng.randbytes(32)
            schedule.append(ChurnOp(kind, user_id, key_seed))
    return ChurnInputs(chain, schedule)
