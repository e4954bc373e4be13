"""Wire-protocol conformance for the network serving tier.

Every malformed input -- broken JSON, non-object frames, wrong schema,
unknown ops, oversized lines, truncated frames, seeded random fuzz --
must get a structured error response on a live connection, never a hang
or a dead server; the same discipline is asserted against the cache
tier's :class:`~repro.cache.remote.CacheServer`.  The shared
:class:`~repro.serve.protocol.Backoff` policy is pinned with injected
RNG and sleepers so the retry behavior of :class:`NetClient` and
:class:`RemoteTier` is deterministic.
"""

from __future__ import annotations

import json
import random
import socket

import pytest

from repro import (
    Backoff,
    ConfigError,
    IterationPlan,
    NetClient,
    NetServer,
    ProtocolError,
    QueueFullError,
    ServiceError,
    Workspace,
)
from repro.cache.remote import CacheServer, RemoteTier
from repro.serve.protocol import (
    E_BAD_FRAME,
    E_BAD_JSON,
    E_BAD_REQUEST,
    E_BAD_SCHEMA,
    E_OVERSIZED,
    E_PLAN_FAILED,
    E_UNKNOWN_OP,
    PROTOCOL_SCHEMA_VERSION,
    retry_priorities,
)

TINY_PAYLOAD = {
    "cluster": "B",
    "system": "tutel",
    "solver": "slsqp",
    "stack": {
        "layers": [
            {
                "batch_size": 1,
                "seq_len": 256,
                "embed_dim": 512,
                "num_experts": 8,
                "num_heads": 8,
            }
        ],
        "num_layers": 2,
    },
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One NetServer shared by the module (tests only read counters
    relatively or poke the protocol, so sharing is safe and fast)."""
    workspace = Workspace(tmp_path_factory.mktemp("netserve") / "ws")
    with NetServer(workspace, flush_ms=1.0, max_line_bytes=64 * 1024) as srv:
        yield srv


@pytest.fixture()
def raw(server):
    """A raw socket + buffered reader on the server."""
    host, port = server.address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    reader = sock.makefile("rb")
    yield sock, reader
    reader.close()
    sock.close()


def send_line(sock, payload: bytes) -> None:
    sock.sendall(payload if payload.endswith(b"\n") else payload + b"\n")


def read_response(reader) -> dict:
    line = reader.readline()
    assert line, "server closed the connection instead of answering"
    response = json.loads(line)
    assert isinstance(response, dict)
    return response


def error_code(response: dict) -> str:
    assert response["ok"] is False
    return response["error"]["code"]


class TestProtocolConformance:
    def test_malformed_json_gets_structured_error(self, raw):
        sock, reader = raw
        send_line(sock, b"this is not json")
        assert error_code(read_response(reader)) == E_BAD_JSON

    def test_non_object_frame_is_refused(self, raw):
        sock, reader = raw
        for frame in (b"[1, 2, 3]", b'"hello"', b"17", b"null", b"true"):
            send_line(sock, frame)
            assert error_code(read_response(reader)) == E_BAD_FRAME

    def test_missing_and_wrong_schema_are_refused(self, raw):
        sock, reader = raw
        send_line(sock, json.dumps({"op": "ping"}).encode())
        assert error_code(read_response(reader)) == E_BAD_SCHEMA
        send_line(sock, json.dumps({"op": "ping", "schema": 99}).encode())
        response = read_response(reader)
        assert error_code(response) == E_BAD_SCHEMA
        assert str(PROTOCOL_SCHEMA_VERSION) in response["error"]["message"]

    def test_unknown_op_is_refused_and_echoes_id(self, raw):
        sock, reader = raw
        send_line(
            sock,
            json.dumps(
                {"op": "mystery", "schema": PROTOCOL_SCHEMA_VERSION,
                 "id": "req-7"}
            ).encode(),
        )
        response = read_response(reader)
        assert error_code(response) == E_UNKNOWN_OP
        assert response["id"] == "req-7"

    def test_oversized_line_is_refused_and_connection_resyncs(self, raw):
        sock, reader = raw
        sock.sendall(b"x" * (128 * 1024) + b"\n")
        assert error_code(read_response(reader)) == E_OVERSIZED
        # the connection is still usable afterwards
        send_line(
            sock,
            json.dumps(
                {"op": "ping", "schema": PROTOCOL_SCHEMA_VERSION}
            ).encode(),
        )
        assert read_response(reader)["pong"] is True

    def test_truncated_frame_then_close_leaves_server_alive(self, server):
        host, port = server.address.rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        # half a JSON object, no newline, then a hard close
        sock.sendall(b'{"op": "plan", "schema": 1, "request": {"clu')
        sock.close()
        client = NetClient(server.address)
        assert client.ping() is True
        client.close()

    def test_blank_lines_are_ignored(self, raw):
        sock, reader = raw
        sock.sendall(b"\n\n   \n")
        send_line(
            sock,
            json.dumps(
                {"op": "ping", "schema": PROTOCOL_SCHEMA_VERSION}
            ).encode(),
        )
        assert read_response(reader)["pong"] is True

    def test_bad_plan_payloads_get_bad_request(self, raw):
        sock, reader = raw
        payloads = [
            None,
            [1, 2],
            {},
            {"cluster": "B"},
            {**TINY_PAYLOAD, "mystery": 1},
            {**TINY_PAYLOAD, "cluster": "no-such-cluster"},
            {**TINY_PAYLOAD, "system": "no-such-system"},
            {**TINY_PAYLOAD, "gate": "no-such-gate"},
            {**TINY_PAYLOAD, "seed": "not-a-number"},
        ]
        for payload in payloads:
            send_line(
                sock,
                json.dumps(
                    {
                        "op": "plan",
                        "schema": PROTOCOL_SCHEMA_VERSION,
                        "request": payload,
                    }
                ).encode(),
            )
            assert error_code(read_response(reader)) == E_BAD_REQUEST

    def test_bad_priority_and_detail_are_refused(self, raw):
        sock, reader = raw
        for field, value in (("priority", "urgent"), ("detail", "everything")):
            send_line(
                sock,
                json.dumps(
                    {
                        "op": "plan",
                        "schema": PROTOCOL_SCHEMA_VERSION,
                        field: value,
                        "request": TINY_PAYLOAD,
                    }
                ).encode(),
            )
            assert error_code(read_response(reader)) == E_BAD_REQUEST

    def test_protocol_errors_are_counted_not_requests(self, server, raw):
        sock, reader = raw
        before = server.stats_snapshot()
        send_line(sock, b"not json")
        read_response(reader)
        after = server.stats_snapshot()
        assert after.protocol_errors == before.protocol_errors + 1
        assert after.requests == before.requests

    def test_plan_roundtrip_and_digest(self, server):
        client = NetClient(server.address)
        try:
            response = client.plan(TINY_PAYLOAD, digest=True)
            assert response["ok"] is True
            result = response["result"]
            assert result["system"] == "Tutel"
            assert result["num_layers"] == 2
            assert result["makespan_ms"] > 0
            assert isinstance(response["digest"], str)
            # the digest matches what the workspace derives locally
            from repro.serve.protocol import parse_plan_payload

            request = parse_plan_payload(TINY_PAYLOAD)
            expected = server.service.workspace.plan_digest(
                request.stack, request.system, request.cluster,
                gate_kind=request.gate_kind,
            )
            assert response["digest"] == expected
        finally:
            client.close()

    def test_detail_plan_matches_direct_workspace_plan(self, server):
        client = NetClient(server.address)
        try:
            response = client.plan(TINY_PAYLOAD, detail="plan")
            from repro.serve.protocol import parse_plan_payload

            request = parse_plan_payload(TINY_PAYLOAD)
            direct = server.service.workspace.plan(
                request.stack, request.system, request.cluster,
                gate_kind=request.gate_kind,
            )
            assert response["plan"] == direct.to_dict()
        finally:
            client.close()

    def test_repeat_summaries_simulate_once(self, tmp_path, sim_calls):
        """A plan's makespan is simulated for its first summary only;
        repeats, mixed with full-plan answers, read the memo."""
        workspace = Workspace(tmp_path / "ws")
        with NetServer(workspace, flush_ms=1.0) as srv:
            client = NetClient(srv.address)
            try:
                makespans = []
                documents = []
                for index in range(12):
                    if index % 3 == 2:
                        response = client.plan(TINY_PAYLOAD, detail="plan")
                        documents.append(response["plan"])
                    else:
                        response = client.plan(TINY_PAYLOAD)
                        makespans.append(response["result"]["makespan_ms"])
            finally:
                client.close()
        assert len(sim_calls) == 1
        assert len(makespans) == 8 and len(set(makespans)) == 1
        assert all(doc == documents[0] for doc in documents)
        replayed = IterationPlan.from_dict(documents[0])
        assert replayed.simulate().makespan_ms == makespans[0]

    def test_impossible_plan_is_plan_failed_not_a_crash(self, server):
        client = NetClient(server.address)
        try:
            bad = {**TINY_PAYLOAD, "routing_overhead": -1e9}
            with pytest.raises((ServiceError, ProtocolError)) as info:
                client.plan(bad)
            assert not isinstance(info.value, QueueFullError)
            assert client.ping() is True
        finally:
            client.close()

    def test_stats_and_metrics_ops(self, server):
        client = NetClient(server.address)
        try:
            client.plan(TINY_PAYLOAD)
            stats = client.stats()
            assert stats["net"]["requests"] >= 1
            assert stats["net"]["completed"] >= 1
            assert "interactive" in stats["net"]["lanes"]
            assert stats["service"]["requests"] >= 1
            exposition = client.metrics()
            assert "repro_net_requests" in exposition
            assert "repro_net_lane_interactive_depth" in exposition
        finally:
            client.close()


def fuzz_roundtrip(address: str, frames: list[bytes]) -> None:
    """Send frames, then prove the server still answers a ping."""
    host, port = address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=30.0)
    reader = sock.makefile("rb")
    try:
        for frame in frames:
            sock.sendall(frame)
            if frame.endswith(b"\n") and frame.strip():
                response = reader.readline()
                assert response, "server hung up mid-fuzz"
                decoded = json.loads(response)
                assert isinstance(decoded, dict)
                assert "ok" in decoded
        sock.sendall(
            json.dumps(
                {"op": "ping", "schema": PROTOCOL_SCHEMA_VERSION}
            ).encode()
            + b"\n"
        )
        # drain until the pong: unterminated junk may have queued one
        # refusal ahead of it.
        for _ in range(4):
            response = json.loads(reader.readline())
            if response.get("pong") is True:
                break
        else:  # pragma: no cover - failure path
            raise AssertionError("no pong after fuzz frames")
    finally:
        reader.close()
        sock.close()


def random_frames(seed: int, count: int = 40) -> list[bytes]:
    """Seeded adversarial frames: random bytes, always newline-bounded."""
    rng = random.Random(seed)
    frames = []
    for _ in range(count):
        size = rng.randrange(1, 200)
        body = bytes(
            rng.randrange(1, 256) for _ in range(size)
        ).replace(b"\n", b" ")
        frames.append(body + b"\n")
    return frames


def mutated_frames(seed: int, count: int = 40) -> list[bytes]:
    """Seeded structure-aware mutations of a valid plan frame."""
    rng = random.Random(seed)
    base = json.dumps(
        {
            "op": "plan",
            "schema": PROTOCOL_SCHEMA_VERSION,
            "request": TINY_PAYLOAD,
        }
    ).encode()
    frames = []
    for _ in range(count):
        body = bytearray(base)
        for _ in range(rng.randrange(1, 6)):
            kind = rng.randrange(3)
            pos = rng.randrange(len(body))
            if kind == 0:  # flip
                byte = rng.randrange(32, 127)
                body[pos] = byte if byte != 0x0A else 0x20
            elif kind == 1 and len(body) > 2:  # delete
                del body[pos]
            else:  # insert
                body.insert(pos, rng.randrange(32, 127))
        frames.append(bytes(body).replace(b"\n", b" ") + b"\n")
    return frames


FUZZ_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


class TestFuzz:
    """The seeded fuzz budget; `-k fuzz` selects exactly these."""

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_random_bytes_never_kill_the_server(self, server, seed):
        fuzz_roundtrip(server.address, random_frames(seed))

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_mutated_plan_frames_never_kill_the_server(
        self, server, seed
    ):
        fuzz_roundtrip(server.address, mutated_frames(seed))

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_cache_server_mirrors_the_discipline(self, seed):
        cache_server = CacheServer()
        cache_server.start()
        try:
            host, port = cache_server.address.rsplit(":", 1)
            sock = socket.create_connection(
                (host, int(port)), timeout=30.0
            )
            reader = sock.makefile("rb")
            try:
                for frame in random_frames(seed, count=25):
                    sock.sendall(frame)
                    response = reader.readline()
                    assert response, "cache server hung up mid-fuzz"
                    decoded = json.loads(response)
                    assert isinstance(decoded, dict)
                # still serves the real protocol afterwards
                sock.sendall(
                    json.dumps(
                        {"op": "stat", "schema": 1}
                    ).encode()
                    + b"\n"
                )
                decoded = json.loads(reader.readline())
                assert decoded["ok"] is True
            finally:
                reader.close()
                sock.close()
        finally:
            cache_server.close()

    def test_fuzz_counters_stay_consistent(self, server):
        before = server.stats_snapshot()
        fuzz_roundtrip(server.address, random_frames(99))
        after = server.stats_snapshot()
        window = {
            "requests": after.requests - before.requests,
            "accounted": after.accounted - before.accounted,
            "internal": after.internal_errors - before.internal_errors,
        }
        assert window["internal"] == 0
        assert window["requests"] == window["accounted"]


class TestBackoff:
    def test_deterministic_delay_sequence(self):
        slept = []
        backoff = Backoff(
            base_ms=10.0, factor=2.0, max_ms=100.0, jitter=0.0,
            sleep=slept.append,
        )
        for attempt in range(5):
            backoff.wait(attempt)
        assert slept == [0.01, 0.02, 0.04, 0.08, 0.1]  # capped at max

    def test_jitter_is_seeded_and_bounded(self):
        delays = [
            Backoff(
                base_ms=100.0, max_ms=100.0, jitter=0.5,
                rng=random.Random(7), sleep=lambda s: None,
            ).delay_ms(0)
            for _ in range(20)
        ]
        assert len(set(delays)) == 1  # same seed, same delay
        assert all(50.0 <= delay <= 150.0 for delay in delays)
        spread = [
            Backoff(
                base_ms=100.0, max_ms=100.0, jitter=0.5,
                rng=random.Random(seed), sleep=lambda s: None,
            ).delay_ms(0)
            for seed in range(20)
        ]
        assert len(set(spread)) > 1  # different seeds actually jitter

    def test_floor_ms_honors_retry_after(self):
        backoff = Backoff(
            base_ms=1.0, max_ms=10.0, jitter=0.0, sleep=lambda s: None
        )
        assert backoff.delay_ms(0, floor_ms=250.0) == 250.0
        assert backoff.delay_ms(0) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Backoff(base_ms=0.0)
        with pytest.raises(ConfigError):
            Backoff(factor=0.5)
        with pytest.raises(ConfigError):
            Backoff(base_ms=10.0, max_ms=5.0)
        with pytest.raises(ConfigError):
            Backoff(jitter=1.0)

    def test_retry_priorities_is_deterministic(self):
        first = retry_priorities(100, batch_fraction=0.25, seed=3)
        again = retry_priorities(100, batch_fraction=0.25, seed=3)
        assert first == again
        assert set(first) == {"interactive", "batch"}
        assert retry_priorities(10, batch_fraction=0.0) == (
            ["interactive"] * 10
        )
        with pytest.raises(ConfigError):
            retry_priorities(10, batch_fraction=1.5)


class TestRemoteTierBackoff:
    def test_unreachable_server_waits_between_attempts(self):
        slept = []
        backoff = Backoff(
            base_ms=10.0, factor=2.0, max_ms=200.0, jitter=0.0,
            sleep=slept.append,
        )
        tier = RemoteTier(
            "127.0.0.1:1", retries=3, backoff=backoff, timeout_s=0.2
        )
        assert tier.get("some-key") is None  # degrades, never raises
        assert slept == [0.01, 0.02, 0.04]

    def test_zero_retries_never_sleeps(self):
        slept = []
        backoff = Backoff(base_ms=10.0, jitter=0.0, sleep=slept.append)
        tier = RemoteTier(
            "127.0.0.1:1", retries=0, backoff=backoff, timeout_s=0.2
        )
        assert tier.get("k") is None
        assert slept == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError):
            RemoteTier("127.0.0.1:1", retries=-1)

    def test_live_server_needs_no_backoff(self):
        cache_server = CacheServer()
        cache_server.start()
        try:
            slept = []
            tier = RemoteTier(
                cache_server.address,
                backoff=Backoff(
                    base_ms=1.0, jitter=0.0, sleep=slept.append
                ),
            )
            assert tier.put("k", "v") is True
            assert tier.get("k") == "v"
            assert slept == []  # healthy path never waits
            tier.close()
        finally:
            cache_server.close()

    def test_netclient_and_remotetier_share_the_policy(self):
        from repro.cache.remote import RemoteTier as TierClass
        from repro.serve.net import NetClient as ClientClass
        import inspect

        tier_src = inspect.getsource(TierClass)
        client_src = inspect.getsource(ClientClass)
        assert "_backoff.wait(attempt" in tier_src
        assert "_backoff.wait(" in client_src


class TestNetClientErrors:
    def test_unreachable_server_raises_service_error_with_backoff(self):
        slept = []
        client = NetClient(
            "127.0.0.1:1",
            retries=2,
            timeout_s=0.2,
            backoff=Backoff(base_ms=5.0, jitter=0.0, sleep=slept.append),
        )
        with pytest.raises(ServiceError):
            client.ping()
        assert slept == [0.005, 0.01]
        client.close()

    def test_bad_address_is_config_error(self):
        with pytest.raises(ConfigError):
            NetClient("no-port-here")
        with pytest.raises(ConfigError):
            NetClient("127.0.0.1:0", retries=-1)

    def test_schema_mismatch_raises_protocol_error(self, server):
        client = NetClient(server.address, schema=42)
        try:
            with pytest.raises(ProtocolError):
                client.ping()
        finally:
            client.close()
