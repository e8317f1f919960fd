"""Unit tests of the daemon wire protocol (framing + payloads)."""

import io
import json

import pytest

from repro.errors import ServerError
from repro.process.parser import parse_definitions
from repro.runtime.governor import Budget
from repro.server import protocol

COPIER = """
copier = input?x:NAT -> wire!x -> copier;
recopier = wire?y:NAT -> output!y -> recopier;
network = chan wire; (copier || recopier)
"""


class _Stream(io.BytesIO):
    def flush(self):  # BytesIO.flush is a no-op already; keep explicit
        pass


def _round_trip(payload):
    stream = _Stream()
    protocol.send_frame(stream, payload)
    stream.seek(0)
    return protocol.recv_frame(stream)


class TestFraming:
    def test_round_trip(self):
        payload = {"op": "ping", "id": "abc", "nested": {"depth": 5}}
        assert _round_trip(payload) == payload

    def test_unicode_survives(self):
        payload = {"stdout": "169 traces (depth ≤ 6):\n  ⟨input.0⟩"}
        assert _round_trip(payload) == payload

    def test_eof_returns_none(self):
        assert protocol.recv_frame(_Stream()) is None

    def test_torn_frame_returns_none(self):
        # A peer that died mid-write leaves bytes without the newline:
        # that is a lost connection (retryable), not a short message.
        stream = _Stream(b'{"op": "ping"')
        assert protocol.recv_frame(stream) is None

    def test_garbage_raises(self):
        stream = _Stream(b"not json at all\n")
        with pytest.raises(ServerError, match="malformed"):
            protocol.recv_frame(stream)

    def test_non_object_raises(self):
        stream = _Stream(b"[1,2,3]\n")
        with pytest.raises(ServerError, match="not an object"):
            protocol.recv_frame(stream)

    @pytest.mark.slow
    def test_oversized_send_raises(self):
        huge = {"blob": "x" * (protocol.MAX_FRAME + 1)}
        with pytest.raises(ServerError, match="exceeds"):
            protocol.send_frame(_Stream(), huge)

    def test_multiple_frames_in_sequence(self):
        stream = _Stream()
        protocol.send_frame(stream, {"n": 1})
        protocol.send_frame(stream, {"n": 2})
        stream.seek(0)
        assert protocol.recv_frame(stream) == {"n": 1}
        assert protocol.recv_frame(stream) == {"n": 2}
        assert protocol.recv_frame(stream) is None


class TestQueryPayload:
    def test_definitions_travel_decodably(self):
        from repro import serialize
        from repro.process.definitions import DefinitionList

        defs = parse_definitions(COPIER)
        payload = _round_trip(
            protocol.query("check", defs, spec="wire <= input")
        )
        decoded = serialize.decode(payload["definitions"])
        assert isinstance(decoded, DefinitionList)
        assert sorted(decoded.names()) == sorted(defs.names())

    def test_sets_are_sorted_like_the_cli(self):
        defs = parse_definitions(COPIER)
        payload = protocol.query(
            "check", defs, spec="x <= y", sets=["Z=1", "A=0"]
        )
        assert payload["sets"] == ["A=0", "Z=1"]

    def test_budget_travels_as_spec(self):
        defs = parse_definitions(COPIER)
        payload = protocol.query(
            "traces", defs, budget=Budget(deadline=3.5, max_nodes=100)
        )
        budget = Budget.from_spec(payload["budget"])
        assert budget.deadline == 3.5
        assert budget.max_nodes == 100
        assert budget.max_states is None

    def test_no_budget_means_no_key(self):
        defs = parse_definitions(COPIER)
        assert "budget" not in protocol.query("traces", defs)

    def test_jobs_is_neither_sent_nor_keyed(self):
        defs = parse_definitions(COPIER)
        payload = protocol.query("check", defs, spec="wire <= input")
        assert "jobs" not in payload
        assert protocol.situation(dict(payload, jobs=8)) == protocol.situation(
            payload
        )

    def test_payload_is_json_clean(self):
        defs = parse_definitions(COPIER)
        payload = protocol.query("check", defs, spec="wire <= input")
        assert json.loads(json.dumps(payload)) == payload


class TestErrorResponse:
    def test_shape_matches_cli_stderr(self):
        response = protocol.error_response("rid", 3, "unbound set name: 'M'")
        assert response["status"] == "ERROR"
        assert response["exit_code"] == 3
        assert response["stderr"] == "error: unbound set name: 'M'"
        assert response["stdout"] == ""

    def test_extra_fields_pass_through(self):
        response = protocol.error_response(None, 9, "boom", attempts=3)
        assert response["attempts"] == 3
