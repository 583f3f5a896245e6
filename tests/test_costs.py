"""Exact library-call and Python call counts per operation, against
BENCH_counts.json.

``count_costs.py`` beside this file runs the scenario and rewrites the file;
a change that moves a count regenerates it and names each old -> new count.
"""

import json

import pytest

from chainchat import client as client_mod

import count_costs


@pytest.fixture(scope="module")
def ops():
    return count_costs.run_scenario()


@pytest.fixture(scope="module")
def wire_ops():
    return count_costs.run_wire_scenario()


def _library_counts(text):
    """The counts file without its Python version and call counts."""
    counts = json.loads(text)
    del counts["python"]
    for section in ("operations", "wire"):
        for op in counts[section].values():
            for counter in count_costs.CALL_COUNTERS:
                del op[counter]
    return counts


def test_counts_match_the_committed_file(ops, wire_ops):
    """Every count, on the Python the file records; the library counts on
    any other, since a call count is CPython's."""
    run = count_costs.render(ops, wire_ops)
    committed = count_costs.COUNTS_PATH.read_text(encoding="utf-8")
    if json.loads(committed)["python"] == count_costs.PYTHON:
        assert run == committed
    else:
        assert _library_counts(run) == _library_counts(committed)


def test_a_message_is_one_round_trip_each_side(wire_ops):
    """A send is one ``submit``, since the pinned fingerprint spares a
    certificate fetch, and a member with an open session takes the group
    message in one ``fetch``."""
    assert wire_ops["submit_envelope"]["round_trips"] == 1
    assert wire_ops["broadcast_group"]["round_trips"] == 1
    assert wire_ops["group_pulls"]["round_trips"] == count_costs.GROUP_SIZE - 1


def test_the_costliest_steps_run_once_per_value(ops):
    """Each X25519 key is loaded once, by whoever generated it, and each
    Ed25519 payload is signed once: an install loads the identity key and the
    MNO's challenge, and signs the record and its block."""
    assert (ops["install"]["x25519_loads"], ops["install"]["ed25519_signs"]) == (2, 2)
    assert ops["revoke"]["ed25519_signs"] == 2
    assert ops["start_session"]["x25519_loads"] == 0
    for height in count_costs.OPEN_HEIGHTS:
        assert (ops[f"open_{height}_held"]["ed25519_signs"],
                ops[f"open_{height}_held"]["ed25519_verifies"]) == (height + 1, 0)
        assert (ops[f"open_{height}"]["ed25519_signs"],
                ops[f"open_{height}"]["ed25519_verifies"]) == (0, height + 1)
    # the gap ahead of the first forged envelope is derived once
    assert ops["pull_forged"]["ratchet_forward"] <= \
        client_mod.MAX_SKIPPED + count_costs.FORGED


def test_a_fan_out_builds_no_status_object_and_no_fetch_encodes(wire_ops):
    """The relay asks the latest-wins rule directly, and serves each envelope
    as the bytes it received; a client encodes an envelope's header once, as
    it seals, before any of these steps, so no step encodes one."""
    assert (wire_ops["broadcast_group"]["status_objects"],
            wire_ops["broadcast_group"]["fetch_latest"]) == (0, 0)
    for op in ("submit_envelope", "pull_messages", "create_group", "group_key_pulls",
               "broadcast_group", "group_pulls"):
        assert wire_ops[op]["envelope_encodes"] == 0
