"""Tests for the JSON-lines TCP transport (server + SocketClient)."""

import json
import socket

import pytest

from repro.api import SolveRequest
from repro.core import FormulationConfig, Objective
from repro.service import (
    ServiceError,
    ServiceUnavailable,
    SocketClient,
    SolveService,
    serve,
)

pytestmark = pytest.mark.runtime


@pytest.fixture
def running_server():
    """A live service + socket front end on an OS-assigned port."""
    with SolveService(shards=1) as service:
        server = serve(service, port=0)
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()


def raw_exchange(address, lines):
    """Send raw protocol lines; return one decoded reply per line."""
    with socket.create_connection(address, timeout=5) as sock:
        file = sock.makefile("rwb")
        replies = []
        for line in lines:
            file.write(line.encode("utf-8") + b"\n")
            file.flush()
            replies.append(json.loads(file.readline().decode("utf-8")))
        return replies


class TestProtocol:
    def test_ping(self, running_server):
        with SocketClient(*running_server.address) as client:
            assert client.ping()

    def test_submit_result_roundtrip(self, running_server, simple_app):
        with SocketClient(*running_server.address) as client:
            ticket = client.submit(
                simple_app,
                FormulationConfig(time_limit_seconds=30),
                backend="greedy",
            )
            assert len(ticket) == 24
            outcome = client.result(ticket, timeout=60)
            assert outcome.instance == ticket
            assert outcome.result.backend == "greedy"
            assert client.status(ticket)["state"] == "done"

    def test_wire_result_equals_in_process_result(
        self, running_server, simple_app
    ):
        """The socket round-trip must not perturb the outcome."""
        config = FormulationConfig(time_limit_seconds=30)
        with SocketClient(*running_server.address) as client:
            wire = client.solve(
                simple_app, config, backend="greedy", timeout=60
            )
        direct = running_server.service.result(wire.instance, timeout=1)
        assert wire.instance == direct.instance
        assert wire.status == direct.status
        assert wire.result.objective_value == direct.result.objective_value
        assert wire.result.layouts == direct.result.layouts

    def test_unknown_ticket_maps_to_service_error(self, running_server):
        with SocketClient(*running_server.address) as client:
            with pytest.raises(ServiceError, match="unknown"):
                client.result("a" * 24, timeout=1)
            assert client.status("a" * 24)["state"] == "unknown"
            assert client.cancel("a" * 24) == "unknown"

    def test_metrics_op(self, running_server):
        with SocketClient(*running_server.address) as client:
            metrics = client.metrics()
        assert "submitted" in metrics
        assert "queue_depth" in metrics


class TestProtocolRobustness:
    def test_bad_json_gets_error_and_connection_survives(self, running_server):
        replies = raw_exchange(
            running_server.address, ["{not json", '{"op": "ping"}']
        )
        assert replies[0]["ok"] is False
        assert "bad json" in replies[0]["error"]
        assert replies[1] == {"ok": True, "pong": True}

    def test_unknown_op_is_reported(self, running_server):
        (reply,) = raw_exchange(running_server.address, ['{"op": "explode"}'])
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]

    def test_malformed_submit_is_contained(self, running_server):
        (reply,) = raw_exchange(
            running_server.address, ['{"op": "submit", "request": {}}']
        )
        assert reply["ok"] is False  # missing application payload

    def test_connect_to_dead_port_raises_unavailable(self):
        # Grab a free port and close it again: nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceUnavailable, match="no solve service"):
            SocketClient("127.0.0.1", port, connect_timeout=0.5)


class TestShutdown:
    def test_shutdown_op_stops_the_server(self):
        with SolveService(shards=1) as service:
            server = serve(service, port=0)
            client = SocketClient(*server.address)
            assert client.shutdown_server()
            assert server.stopped.wait(timeout=10)
            client.close()
            server.server_close()


class TestFamilyWarmRouting:
    def test_family_member_submitted_after_its_base_starts_warm(
        self, running_server
    ):
        """The socket front end offers the last proven solve of a
        request's structural family as its prior."""
        from tests.incremental.conftest import make_app, with_wcet

        config = FormulationConfig(
            objective=Objective.MIN_TRANSFERS, time_limit_seconds=30
        )
        base = make_app()
        with SocketClient(*running_server.address) as client:
            first = client.solve(base, config, timeout=60)
            assert first.result.warm_start == "none"
            member = client.solve(with_wcet(base, "A", 650.0), config, timeout=60)
        assert member.instance != first.instance
        assert member.result.warm_start in ("reused", "repaired")

    def test_only_a_socket_front_end_turns_the_family_memory_on(self):
        """A service used in-process retains no family priors; one
        behind a socket front end does."""
        from tests.incremental.conftest import make_app, with_wcet

        config = FormulationConfig(
            objective=Objective.MIN_TRANSFERS, time_limit_seconds=30
        )
        base = SolveRequest(app=make_app(), config=config)
        member = SolveRequest(app=with_wcet(make_app(), "A", 650.0), config=config)
        with SolveService(shards=1) as service:
            service.result(service.submit_request(base), timeout=60)
            assert service.warm_prior(member) is None
            server = serve(service, port=0)
            try:
                service.result(service.submit_request(member), timeout=60)
                assert service.warm_prior(base) is not None
            finally:
                server.shutdown()
                server.server_close()
