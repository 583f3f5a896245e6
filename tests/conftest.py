import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from chainchat.chain import ChainNode, WriterCredential
from chainchat.client import Client
from chainchat.mno import MnoCertificateAuthority
from chainchat.relay import Relay


@pytest.fixture(autouse=True)
def no_wire_thread_outlives_its_test():
    """A test closes every wire server it starts: ``WireServer.close``
    joins the accept thread and each connection's thread before it returns,
    so none is left once the test's fixtures are torn down."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith("chainchat-wire")]
    assert not left, f"wire server threads still running after the test: {left}"


@pytest.fixture
def mno_credential():
    return WriterCredential.generate("mno-1")


@pytest.fixture
def relay_credential():
    return WriterCredential.generate("relay-1")


@pytest.fixture
def chain_node(mno_credential, relay_credential):
    return ChainNode.create([
        (mno_credential.writer_id, mno_credential.verification_key),
        (relay_credential.writer_id, relay_credential.verification_key),
    ])


@pytest.fixture
def mno(mno_credential, chain_node):
    return MnoCertificateAuthority(mno_credential, chain_node)


@pytest.fixture
def relay(chain_node):
    return Relay(chain_node)


@pytest.fixture
def alice(mno, relay):
    return Client.install("alice", mno, relay)


@pytest.fixture
def bob(mno, relay):
    return Client.install("bob", mno, relay)


@pytest.fixture
def connected_pair(alice, bob):
    alice.start_session("bob")
    bob.start_session("alice")
    return alice, bob
