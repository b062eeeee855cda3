"""Crash recovery and typed backpressure (ISSUE 9 satellites).

The headline scenario: a service dies with in-flight and queued jobs;
a new service built on the same ``state_dir`` restores every journaled
job and resolves every original ticket.
"""

import socket
import threading

import pytest

from repro.core import FormulationConfig
from repro.service import (
    ServiceRejected,
    ServiceUnavailable,
    SocketClient,
    SolveService,
)
from repro.service.queue import QueueFull
from repro.workloads import WorkloadSpec, generate_application

pytestmark = pytest.mark.runtime


def apps(count, seed=40):
    return [
        generate_application(
            WorkloadSpec(
                num_tasks=3, num_cores=2, communication_density=0.8, seed=seed + i
            )
        )
        for i in range(count)
    ]


def fast_config():
    return FormulationConfig(time_limit_seconds=30.0)


def test_restart_recovers_in_flight_and_queued_jobs(tmp_path):
    state_dir = str(tmp_path / "state")
    first = SolveService(shards=1, state_dir=state_dir)
    tickets = [first.submit(app, fast_config()) for app in apps(4)]
    # Simulate a crash mid-solve: one job is claimed (RUNNING in its
    # journal), the rest are still PENDING, and the service dies
    # without finishing anything — no close(), no cleanup.
    assert first.queue.claim(timeout=1.0) is not None
    del first
    second = SolveService(shards=1, state_dir=state_dir)
    assert second.restored_jobs == 4  # RUNNING revives as PENDING too
    with second:
        for ticket in tickets:
            outcome = second.result(ticket, timeout=120.0)
            assert outcome.result.status.value in ("optimal", "feasible")
    # Everything resolved: the journals are gone.
    assert not list((tmp_path / "state").glob("*.job.json"))


def test_queue_full_carries_depth_and_capacity():
    service = SolveService(shards=1, queue_capacity=2)
    for app in apps(2, seed=60):
        service.submit(app, fast_config())
    with pytest.raises(QueueFull) as excinfo:
        service.submit(apps(1, seed=70)[0], fast_config())
    exc = excinfo.value
    assert exc.capacity == 2
    assert exc.depth == 2
    assert exc.retry_after_seconds > 0
    assert "2/2" in str(exc)


def test_in_process_client_translates_queue_full():
    from repro.service import InProcessClient

    service = SolveService(shards=1, queue_capacity=1)
    client = InProcessClient(service)
    client.submit(apps(1, seed=80)[0], fast_config())
    with pytest.raises(ServiceRejected) as excinfo:
        client.submit(apps(1, seed=90)[0], fast_config())
    exc = excinfo.value
    assert (exc.depth, exc.capacity) == (1, 1)
    assert exc.retry_after_seconds > 0


class _StallingServer:
    """Accepts connections and reads requests but never answers."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.accepted = 0
        self._stop = threading.Event()
        self._conns = []
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            self._conns.append(conn)

    def close(self):
        self._stop.set()
        self.sock.close()
        for conn in self._conns:
            conn.close()


def test_socket_client_bounded_read_and_retry():
    server = _StallingServer()
    try:
        client = SocketClient(
            "127.0.0.1",
            server.port,
            read_timeout=0.2,
            max_attempts=3,
            retry_backoff_seconds=0.01,
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.ping()
        assert "stalled" in str(excinfo.value)
        assert excinfo.value.retry_after_seconds is not None
        # One initial connection plus one reconnect per retry attempt.
        assert server.accepted == 3
        client.close()
    finally:
        server.close()


def test_socket_client_refuses_dead_address():
    with socket.create_server(("127.0.0.1", 0)) as probe:
        dead_port = probe.getsockname()[1]
    with pytest.raises(ServiceUnavailable):
        SocketClient("127.0.0.1", dead_port, connect_timeout=0.5)
