"""Unit and integration tests for the flight recorder."""

import itertools
import json

import pytest

from repro import ClamClient, ClamServer
from repro.obs import FlightRecorder
from tests.support import async_test

_ids = itertools.count(1)


class TestRing:
    def test_starts_empty(self):
        flight = FlightRecorder(8)
        assert len(flight) == 0
        assert flight.events() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_records_in_order(self):
        flight = FlightRecorder(8)
        flight.note("call", "a")
        flight.note("fault", "b", "detail-b")
        assert len(flight) == 2
        events = flight.events()
        assert [(e["kind"], e["name"]) for e in events] == [
            ("call", "a"), ("fault", "b"),
        ]
        assert events[1]["detail"] == "detail-b"
        assert "detail" not in events[0]

    def test_wraps_keeping_newest(self):
        flight = FlightRecorder(4)
        for i in range(10):
            flight.note("call", str(i))
        assert len(flight) == 4
        assert [e["name"] for e in flight.events()] == ["6", "7", "8", "9"]

    def test_timestamps_monotonic(self):
        flight = FlightRecorder(8)
        for i in range(5):
            flight.note("call", str(i))
        stamps = [e["ts"] for e in flight.events()]
        assert stamps == sorted(stamps)

    def test_caller_supplied_timestamp_used_verbatim(self):
        flight = FlightRecorder(4)
        flight.note("call", "a", ts=123.456)
        assert flight.events()[0]["ts"] == 123.456

    def test_disabled_records_nothing(self):
        flight = FlightRecorder(4, enabled=False)
        flight.note("call", "a")
        assert len(flight) == 0
        flight.enabled = True
        flight.note("call", "b")
        assert [e["name"] for e in flight.events()] == ["b"]

    def test_clear(self):
        flight = FlightRecorder(4)
        for i in range(6):  # wrapped
            flight.note("call", str(i))
        flight.clear()
        assert len(flight) == 0 and flight.events() == []
        flight.note("call", "fresh")
        assert [e["name"] for e in flight.events()] == ["fresh"]


class TestDump:
    def test_jsonl_header_then_events(self):
        flight = FlightRecorder(8)
        flight.note("call", "x", "y")
        lines = flight.dump_jsonl("unit-test").splitlines()
        header = json.loads(lines[0])
        assert header["flight"] == 1
        assert header["reason"] == "unit-test"
        assert header["events"] == 1
        assert header["capacity"] == 8
        # the wall/monotonic anchor pair that places event ts in time
        assert header["dumped_at"] > 0 and header["clock"] > 0
        event = json.loads(lines[1])
        assert event == {"ts": event["ts"], "kind": "call",
                         "name": "x", "detail": "y"}
        assert flight.dumps == 1

    def test_anchor_places_events_in_wall_time(self):
        flight = FlightRecorder(8)
        flight.note("call", "x")
        lines = flight.dump_jsonl().splitlines()
        header, event = json.loads(lines[0]), json.loads(lines[1])
        wall = header["dumped_at"] - (header["clock"] - event["ts"])
        assert abs(wall - header["dumped_at"]) < 5.0

    def test_dump_to_writes_file(self, tmp_path):
        flight = FlightRecorder(8)
        flight.note("call", "x")
        path = flight.dump_to(str(tmp_path / "flight.jsonl"), "disk")
        lines = (tmp_path / "flight.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["reason"] == "disk"
        assert len(lines) == 2
        assert path.endswith("flight.jsonl")

    def test_dumping_does_not_drain_the_ring(self):
        flight = FlightRecorder(8)
        flight.note("call", "x")
        flight.dump_jsonl()
        assert len(flight) == 1


class TestServerIntegration:
    @async_test
    async def test_calls_are_noted_and_dump_rpc_cuts_artifact(self):
        server = ClamServer()
        address = await server.start(f"memory://flight-{next(_ids)}")
        client = await ClamClient.connect(address)
        try:
            await client.server_stats()  # any dispatched call is noted
            text = await client.flight_dump("rpc-test")
            lines = text.splitlines()
            assert json.loads(lines[0])["reason"] == "rpc-test"
            noted = [json.loads(line) for line in lines[1:]]
            assert any(e["kind"] == "call" for e in noted)
            # call notes carry class name + method as separate slots
            call = next(e for e in noted if e["kind"] == "call")
            assert call["detail"]  # the method name
        finally:
            await client.close()
            await server.shutdown()

    @async_test
    async def test_note_incident_writes_into_flight_dir(self):
        import os
        import tempfile

        with tempfile.TemporaryDirectory(prefix="clam-flight-") as flight_dir:
            server = ClamServer(flight_dir=flight_dir)
            await server.start(f"memory://flight-{next(_ids)}")
            try:
                server.flight.note("call", "warmup")
                path = server.note_incident("unit-reason", "some detail")
                assert path and os.path.exists(path)
                assert "unit-reason" in os.path.basename(path)
                with open(path, encoding="utf-8") as dump:
                    header = json.loads(dump.readline())
                assert header["reason"] == "unit-reason"
                assert "unit-reason" in server.last_flight_dump
                assert path in server.flight_dumps
            finally:
                await server.shutdown()

    @async_test
    async def test_incident_dumps_throttled_per_reason(self):
        server = ClamServer()
        await server.start(f"memory://flight-{next(_ids)}")
        try:
            server.note_incident("storm")
            dumps_after_first = server.flight.dumps
            for _ in range(20):  # a chaos storm of the same reason
                server.note_incident("storm")
            assert server.flight.dumps == dumps_after_first
            # but a different reason dumps immediately
            server.note_incident("other")
            assert server.flight.dumps == dumps_after_first + 1
        finally:
            await server.shutdown()
