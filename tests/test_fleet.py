"""Fleet-tier tests: ring, breaker, hedging, scatter-gather, parity.

The contracts under test, in order:

* consistent-hash ring: process-stable placement, bounded key movement on
  join (all moved keys go *to* the newcomer) and leave (only the leaver's
  keys move), distinct failover candidate order;
* circuit breaker: consecutive-failure ejection, half-open single-probe
  readmission, side-effect-free ``peek`` -- all on an injected clock;
* hedged requests over scripted fake replicas: first winner semantics,
  loser abandonment, failover at submit and after send, fail-closed
  ``NoHealthyReplicaError`` when every replica is ejected;
* scatter-gather: contiguous ordered reassembly, fresh sub-request ids,
  mid-flight shard death retried on survivors, error envelopes failing
  the whole bulk with single-server semantics;
* end-to-end parity: ``NormClient`` over ``FleetTransport`` against live
  ``AsyncNormServer`` replicas is bit-identical to the direct service -- for
  pipelined, bulk, streaming and spec-execution traffic, including with
  one replica killed mid-run;
* the PR-6 wire gauges: per-connection inflight/backpressure telemetry
  and the ``address`` attribute on transport errors.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import NoHealthyReplicaError, TransportError, error_for_code
from repro.api.transport import (
    SocketTransport,
    available_transports,
    create_transport,
)
from repro.core.config import HaanConfig
from repro.core.haan_norm import HaanNormalization
from repro.core.subsampling import SubsampleSettings
from repro.fleet import cli as fleet_cli
from repro.fleet.health import CLOSED, HALF_OPEN, OPEN, BreakerConfig, ReplicaHealth
from repro.fleet.ring import HashRing, canonical_key, stable_hash
from repro.fleet.router import FleetRouter
from repro.fleet.supervisor import FleetSupervisor
from repro.fleet.transport import FleetTransport
from repro.llm.normalization import LayerNorm
from repro.numerics.quantization import DataFormat
from repro.serving.registry import CalibrationArtifact, CalibrationRegistry
from repro.serving.service import NormalizationService

HIDDEN = 48


# ---------------------------------------------------------------------------
# fixtures and fakes
# ---------------------------------------------------------------------------


def _instant_loader(model_name, dataset):
    """Calibration-free artifact so no test pays Algorithm 1."""
    rng = np.random.default_rng(31)
    base = LayerNorm(hidden_size=HIDDEN, layer_index=0, name="fleet.norm0")
    base.load_affine(rng.normal(1.0, 0.1, HIDDEN), rng.normal(0.0, 0.1, HIDDEN))
    computed = HaanNormalization(
        base, subsample=SubsampleSettings(length=12), data_format=DataFormat.INT8
    )
    return CalibrationArtifact(
        model_name=model_name,
        dataset=dataset,
        model=None,
        config=HaanConfig(subsample_length=12, data_format=DataFormat.INT8),
        calibration=None,
        haan_layers=[computed],
        reference_layers=[base],
    )


class FakeClock:
    """Deterministic monotonic clock for breaker/hedge tests."""

    def __init__(self, value: float = 100.0):
        self.value = value

    def __call__(self) -> float:
        return self.value

    def advance(self, seconds: float) -> None:
        self.value += seconds


class FakeReply:
    """Scriptable PendingReply standin."""

    def __init__(self):
        self._event = threading.Event()
        self._value = None
        self._error = None
        self.abandoned = False

    def resolve(self, value):
        self._value = value
        self._event.set()

    def fail(self, error):
        self._error = error
        self._event.set()

    def done(self):
        return self._event.is_set()

    def wait(self, timeout=None):
        return self._event.wait(timeout)

    def abandon(self):
        self.abandoned = True

    def result(self, timeout=None):
        if not self._event.wait(timeout):
            raise TransportError("fake reply timed out")
        if self._error is not None:
            raise self._error
        return self._value


class FakeReplica:
    """Scripted per-address transport.

    Behaviors: ``echo`` answers immediately, ``hang`` leaves the reply
    pending (resolve manually), ``refuse`` raises at submit (connect
    failure), ``die`` fails the reply after the send (connection lost).
    """

    def __init__(self, address, behavior="echo"):
        self.address = address
        self.behavior = behavior
        self.submits = []
        self.closed = False

    def _respond(self, payload):
        envelope = {
            "op": payload.get("op"),
            "ok": True,
            "request_id": payload.get("request_id"),
            "served_by": self.address,
        }
        for field in ("tensors", "groups"):
            if field in payload:
                envelope["results"] = [
                    {"item": item, "served_by": self.address}
                    for item in payload[field]
                ]
        return envelope

    def submit(self, payload):
        if self.behavior == "refuse":
            raise TransportError(
                f"cannot connect to {self.address}", address=self.address
            )
        reply = FakeReply()
        self.submits.append((payload, reply))
        if self.behavior == "echo":
            reply.resolve(self._respond(payload))
        elif self.behavior == "die":
            reply.fail(
                TransportError(
                    f"connection to {self.address} lost", address=self.address
                )
            )
        return reply

    def request(self, payload):
        return self.submit(payload).result(5.0)

    def close(self):
        self.closed = True


def make_fleet(behaviors, **kwargs):
    """FleetTransport over scripted fakes; returns (transport, replicas)."""
    replicas = {
        address: FakeReplica(address, behavior)
        for address, behavior in behaviors.items()
    }
    kwargs.setdefault("hedge_delay", 0.01)
    transport = FleetTransport(
        list(behaviors),
        transport_factory=lambda address: replicas[address],
        **kwargs,
    )
    return transport, replicas


def _norm_payload(model="tiny", dataset="default", request_id=7001):
    return {
        "op": "normalize",
        "request_id": request_id,
        "model": model,
        "dataset": dataset,
        "accelerator": None,
    }


def _bulk_payload(items, request_id=7100):
    return {
        "op": "normalize_bulk",
        "request_id": request_id,
        "model": "tiny",
        "dataset": "default",
        "accelerator": None,
        "tensors": list(items),
    }


# ---------------------------------------------------------------------------
# the consistent-hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    KEYS = [("model-%d" % (i % 7), "ds-%d" % (i % 5), None) for i in range(600)]

    def test_placement_is_process_stable(self):
        # hashlib-based, so two independently built rings (and two
        # interpreters with different PYTHONHASHSEED) agree exactly.
        a = HashRing(["r0:1", "r1:1", "r2:1"])
        b = HashRing(["r0:1", "r1:1", "r2:1"])
        assert [a.primary(key) for key in self.KEYS] == [
            b.primary(key) for key in self.KEYS
        ]
        assert stable_hash("x") == stable_hash("x")

    def test_join_moves_a_bounded_fraction_and_only_to_the_newcomer(self):
        ring = HashRing(["r0:1", "r1:1", "r2:1"], vnodes=64)
        before = {key: ring.primary(key) for key in self.KEYS}
        ring.add("r3:1")
        after = {key: ring.primary(key) for key in self.KEYS}
        moved = [key for key in self.KEYS if before[key] != after[key]]
        # Expected movement is 1/(N+1) = 25%; allow vnode variance.
        assert 0 < len(moved) <= len(self.KEYS) * 0.45
        assert all(after[key] == "r3:1" for key in moved)

    def test_leave_moves_only_the_leavers_keys(self):
        ring = HashRing(["r0:1", "r1:1", "r2:1", "r3:1"], vnodes=64)
        before = {key: ring.primary(key) for key in self.KEYS}
        ring.remove("r1:1")
        after = {key: ring.primary(key) for key in self.KEYS}
        for key in self.KEYS:
            if before[key] != "r1:1":
                assert after[key] == before[key]
            else:
                assert after[key] != "r1:1"

    def test_candidates_are_distinct_and_complete(self):
        ring = HashRing(["r0:1", "r1:1", "r2:1"])
        for key in self.KEYS[:50]:
            candidates = ring.candidates(key)
            assert len(candidates) == 3
            assert len(set(candidates)) == 3
            assert candidates[0] == ring.primary(key)

    def test_membership_errors(self):
        ring = HashRing(["r0:1"])
        with pytest.raises(ValueError, match="already"):
            ring.add("r0:1")
        with pytest.raises(ValueError, match="not on the ring"):
            ring.remove("r9:1")
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(vnodes=0)
        assert HashRing().candidates("anything") == []

    def test_canonical_key_is_unambiguous(self):
        assert canonical_key(("a", "bc")) != canonical_key(("ab", "c"))
        assert canonical_key(("m", None)) != canonical_key(("m", "None"))
        assert canonical_key("plain") == "plain"


# ---------------------------------------------------------------------------
# the circuit breaker
# ---------------------------------------------------------------------------


class TestReplicaHealth:
    def _health(self, **overrides):
        clock = FakeClock()
        config = BreakerConfig(
            window=16,
            failure_threshold=3,
            cooldown=2.0,
            min_latency_samples=4,
            **overrides,
        )
        return ReplicaHealth("r0:1", config=config, clock=clock), clock

    def test_opens_after_consecutive_failures_only(self):
        health, _clock = self._health()
        assert health.state == CLOSED and health.admit()
        health.record_failure()
        health.record_failure()
        health.record_success()  # streak broken
        health.record_failure()
        health.record_failure()
        assert health.state == CLOSED
        health.record_failure()
        assert health.state == OPEN
        assert not health.admit() and not health.peek()

    def test_half_open_admits_exactly_one_probe(self):
        health, clock = self._health()
        for _ in range(3):
            health.record_failure()
        clock.advance(2.5)
        assert health.state == HALF_OPEN
        assert health.peek()  # side-effect free ...
        assert health.peek()  # ... so it still reads True
        assert health.admit()  # the probe slot
        assert not health.admit()  # consumed
        assert not health.peek()
        health.record_success(latency=0.01)
        assert health.state == CLOSED and health.admit()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        health, clock = self._health()
        for _ in range(3):
            health.record_failure()
        clock.advance(2.5)
        assert health.admit()
        health.record_failure()  # the probe dies
        assert health.state == OPEN
        clock.advance(1.0)
        assert health.state == OPEN  # fresh cooldown, not the stale one
        clock.advance(1.5)
        assert health.state == HALF_OPEN

    def test_latency_percentiles_gate_on_sample_count(self):
        health, _clock = self._health()
        for latency in (0.01, 0.02, 0.03):
            health.record_success(latency=latency)
        assert health.latency_percentile(99) is None
        health.record_success(latency=0.04)
        assert health.latency_percentile(99) == pytest.approx(0.04, rel=0.1)
        assert 0.0 <= health.failure_rate() <= 1.0
        snap = health.snapshot()
        assert snap["state"] == CLOSED and snap["successes"] == 4


class TestFleetRouter:
    def test_healthy_shards_excludes_open_breakers(self):
        clock = FakeClock()
        router = FleetRouter(
            ["r0:1", "r1:1", "r2:1"],
            breaker=BreakerConfig(failure_threshold=1, cooldown=5.0),
            clock=clock,
        )
        key = ("tiny", "default", None)
        assert set(router.healthy_shards(key)) == {"r0:1", "r1:1", "r2:1"}
        victim = router.candidates(key)[0]
        router.record_failure(victim)
        shards = router.healthy_shards(key)
        assert victim not in shards and len(shards) == 2

    def test_membership_keeps_ring_and_health_in_lockstep(self):
        router = FleetRouter(["r0:1"])
        router.add_replica("r1:1")
        assert set(router.addresses) == {"r0:1", "r1:1"}
        assert router.health("r1:1").state == CLOSED
        router.remove_replica("r0:1")
        assert router.addresses == ("r1:1",)
        with pytest.raises(KeyError):
            router.health("r0:1")
        with pytest.raises(ValueError):
            FleetRouter([])
        with pytest.raises(ValueError):
            FleetRouter(["r0:1", "r0:1"])

    def test_hedge_delay_clamps_the_rolling_p99(self):
        router = FleetRouter(
            ["r0:1"], breaker=BreakerConfig(min_latency_samples=2)
        )
        # Cold window: the default.
        assert router.hedge_delay("r0:1", 0.05, 0.005, 1.0) == 0.05
        for _ in range(4):
            router.record_success("r0:1", latency=0.0001)
        assert router.hedge_delay("r0:1", 0.05, 0.005, 1.0) == 0.005  # floor
        for _ in range(16):
            router.record_success("r0:1", latency=30.0)
        assert router.hedge_delay("r0:1", 0.05, 0.005, 1.0) == 1.0  # ceiling


# ---------------------------------------------------------------------------
# hedged dispatch over scripted fakes
# ---------------------------------------------------------------------------


class TestHedgedDispatch:
    def test_fast_primary_wins_without_hedging(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo", "c:1": "echo"}, hedge_delay=10.0
        )
        payload = _norm_payload()
        primary = transport.router.candidates(transport.routing_key(payload))[0]
        envelope = transport.request(payload)
        assert envelope["served_by"] == primary
        assert transport.hedges_issued == 0 and transport.hedge_wins == 0
        assert transport.router.health(primary).successes == 1

    def test_hedge_fires_and_first_winner_takes_it(self):
        transport, replicas = make_fleet(
            {"a:1": "hang", "b:1": "hang", "c:1": "hang"}, hedge_delay=0.01
        )
        payload = _norm_payload()
        order = transport.router.candidates(transport.routing_key(payload))
        primary, second = order[0], order[1]
        result = {}

        def _call():
            result["envelope"] = transport.request(payload)

        thread = threading.Thread(target=_call)
        thread.start()
        # Wait for the hedge to land on the second candidate, then let the
        # hedge (not the primary) answer.
        deadline = threading.Event()
        for _ in range(500):
            if replicas[second].submits:
                break
            deadline.wait(0.01)
        assert replicas[second].submits, "hedge never fired"
        replicas[second].submits[0][1].resolve(
            replicas[second]._respond(payload)
        )
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["envelope"]["served_by"] == second
        assert transport.hedges_issued == 1 and transport.hedge_wins == 1
        # The straggling primary was abandoned, not left dangling.
        assert replicas[primary].submits[0][1].abandoned
        assert transport.router.health(second).successes == 1

    def test_failover_at_submit_walks_the_ring(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo", "c:1": "echo"}, hedge_delay=10.0
        )
        payload = _norm_payload()
        order = transport.router.candidates(transport.routing_key(payload))
        replicas[order[0]].behavior = "refuse"
        envelope = transport.request(payload)
        assert envelope["served_by"] == order[1]
        assert transport.failovers == 1
        assert transport.router.health(order[0]).failures == 1

    def test_connection_dying_after_send_fails_over(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo", "c:1": "echo"}, hedge_delay=10.0
        )
        payload = _norm_payload()
        order = transport.router.candidates(transport.routing_key(payload))
        replicas[order[0]].behavior = "die"
        envelope = transport.request(payload)
        assert envelope["served_by"] == order[1]
        assert transport.router.health(order[0]).failures == 1

    def test_exhaustion_fails_closed_with_typed_error(self):
        transport, replicas = make_fleet(
            {"a:1": "refuse", "b:1": "refuse", "c:1": "refuse"},
            breaker=BreakerConfig(failure_threshold=1, cooldown=60.0),
        )
        with pytest.raises(NoHealthyReplicaError) as excinfo:
            transport.request(_norm_payload())
        message = str(excinfo.value)
        assert "a:1" in message and "b:1" in message and "c:1" in message
        assert excinfo.value.code == "no_healthy_replica"
        assert isinstance(excinfo.value, TransportError)
        # Every breaker is now open: the next request is rejected without
        # touching any replica (fail-closed, no hammering).
        with pytest.raises(NoHealthyReplicaError):
            transport.request(_norm_payload())
        assert all(not replica.submits for replica in replicas.values())

    def test_error_envelopes_do_not_count_against_health(self):
        transport, replicas = make_fleet({"a:1": "hang"}, hedge=False)
        payload = _norm_payload()
        error_envelope = {
            "op": "error",
            "ok": False,
            "request_id": payload["request_id"],
            "error": {"code": "unknown_model", "message": "nope"},
        }

        def _answer():
            for _ in range(500):
                if replicas["a:1"].submits:
                    replicas["a:1"].submits[0][1].resolve(error_envelope)
                    return
                threading.Event().wait(0.01)

        thread = threading.Thread(target=_answer)
        thread.start()
        envelope = transport.request(payload)
        thread.join()
        # The envelope passes through untouched; the replica answered, so
        # its health records a *success* (a healthy server, a bad request).
        assert envelope["error"]["code"] == "unknown_model"
        health = transport.router.health("a:1")
        assert health.successes == 1 and health.failures == 0

    def test_pipelined_submit_records_outcomes(self):
        transport, replicas = make_fleet({"a:1": "echo", "b:1": "echo"})
        payload = _norm_payload()
        reply = transport.submit(payload)
        envelope = reply.result(1.0)
        assert envelope["op"] == "normalize"
        assert transport.router.health(envelope["served_by"]).successes == 1

    def test_no_healthy_replica_error_code_round_trips(self):
        error = error_for_code("no_healthy_replica", "all gone")
        assert isinstance(error, NoHealthyReplicaError)
        assert isinstance(error, TransportError)


# ---------------------------------------------------------------------------
# scatter-gather
# ---------------------------------------------------------------------------


class TestScatterGather:
    ITEMS = [f"item-{index}" for index in range(7)]

    def test_reassembles_in_request_order_with_fresh_sub_ids(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo", "c:1": "echo"}
        )
        payload = _bulk_payload(self.ITEMS, request_id=4242)
        envelope = transport.request(payload)
        assert envelope["request_id"] == 4242
        assert [entry["item"] for entry in envelope["results"]] == self.ITEMS
        # Spread over more than one shard, each slice under a fresh id.
        served_by = {entry["served_by"] for entry in envelope["results"]}
        assert len(served_by) > 1
        sub_ids = {
            sub_payload["request_id"]
            for replica in replicas.values()
            for sub_payload, _reply in replica.submits
        }
        assert 4242 not in sub_ids and len(sub_ids) > 1
        assert transport.scatter_requests == 1

    def test_mid_flight_shard_death_retries_on_survivors(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo", "c:1": "echo"}
        )
        payload = _bulk_payload(self.ITEMS)
        key = transport.routing_key(payload)
        victim = transport.router.healthy_shards(key)[0]
        replicas[victim].behavior = "die"
        envelope = transport.request(payload)
        assert [entry["item"] for entry in envelope["results"]] == self.ITEMS
        assert all(
            entry["served_by"] != victim for entry in envelope["results"]
        )
        assert transport.scatter_retries >= 1
        assert transport.router.health(victim).failures >= 1

    def test_error_envelope_from_any_shard_fails_the_whole_bulk(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo", "c:1": "echo"}
        )
        payload = _bulk_payload(self.ITEMS, request_id=555)
        key = transport.routing_key(payload)
        bad = transport.router.healthy_shards(key)[1]

        original_respond = replicas[bad]._respond

        def _error_respond(sub_payload):
            envelope = original_respond(sub_payload)
            return {
                "op": "error",
                "ok": False,
                "request_id": envelope["request_id"],
                "error": {"code": "bad_schema", "message": "poisoned slice"},
            }

        replicas[bad]._respond = _error_respond
        envelope = transport.request(payload)
        assert envelope["ok"] is False
        assert envelope["error"]["message"] == "poisoned slice"
        assert envelope["request_id"] == 555  # surfaced under the bulk's id

    def test_single_item_and_disabled_scatter_route_whole(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo"}, scatter=False
        )
        envelope = transport.request(_bulk_payload(self.ITEMS))
        assert len({entry["served_by"] for entry in envelope["results"]}) == 1
        assert transport.scatter_requests == 0

        transport2, replicas2 = make_fleet({"a:1": "echo", "b:1": "echo"})
        envelope2 = transport2.request(_bulk_payload(self.ITEMS[:1]))
        assert len(envelope2["results"]) == 1
        assert transport2.scatter_requests == 0

    def test_degraded_to_one_shard_falls_back_to_hedged_whole(self):
        transport, replicas = make_fleet(
            {"a:1": "echo", "b:1": "echo"},
            breaker=BreakerConfig(failure_threshold=1, cooldown=60.0),
        )
        payload = _bulk_payload(self.ITEMS)
        key = transport.routing_key(payload)
        victim = transport.router.healthy_shards(key)[0]
        transport.router.record_failure(victim)  # breaker opens
        envelope = transport.request(payload)
        assert [entry["item"] for entry in envelope["results"]] == self.ITEMS
        assert len({entry["served_by"] for entry in envelope["results"]}) == 1
        assert transport.scatter_requests == 0  # degraded: routed whole


# ---------------------------------------------------------------------------
# end-to-end: live replicas, bit-identical to the direct service
# ---------------------------------------------------------------------------


@pytest.fixture()
def fleet_registry():
    return CalibrationRegistry(loader=_instant_loader)


@pytest.fixture()
def fleet_servers(fleet_registry):
    """Three live AsyncNormServer replicas over one shared registry."""
    services = [NormalizationService(registry=fleet_registry) for _ in range(3)]
    servers = [AsyncNormServer(service).start() for service in services]
    yield servers
    for server in servers:
        server.close()
    for service in services:
        service.close()


def _addresses(servers):
    return [f"{server.host}:{server.port}" for server in servers]


class TestFleetEndToEnd:
    def _golden(self, registry, payloads):
        with NormalizationService(registry=registry) as service:
            return [
                service.normalize(payload, "tiny").output for payload in payloads
            ]

    def test_client_parity_across_all_dispatch_paths(
        self, fleet_registry, fleet_servers, rng
    ):
        payloads = [rng.normal(size=(3, HIDDEN)) for _ in range(8)]
        golden = self._golden(fleet_registry, payloads)
        with NormClient.connect_fleet(_addresses(fleet_servers)) as client:
            client.wait_until_ready()
            single = [client.normalize(p, "tiny").output for p in payloads]
            pipelined = [
                r.output for r in client.normalize_many(payloads, "tiny", depth=4)
            ]
            bulk = [r.output for r in client.normalize_bulk(payloads, "tiny")]
            streamed = [r.output for r in client.stream(payloads, "tiny", depth=4)]
            served = client.fetch_spec("tiny")
            stacked = np.vstack(payloads)
            executed, _mean, _isd = client.execute_spec(
                served.spec, stacked, gamma=served.gamma, beta=served.beta
            )
            assert "vectorized" in client.ping()["backends"]
        for outputs in (single, pipelined, bulk, streamed):
            for out, ref in zip(outputs, golden):
                assert np.array_equal(out, ref)
        from repro.engine.registry import build

        engine = build(
            served.spec, backend="reference", gamma=served.gamma, beta=served.beta
        )
        assert np.array_equal(executed, engine.run(stacked)[0])

    def test_execute_bulk_scatters_bit_identically(
        self, fleet_registry, fleet_servers, rng
    ):
        with NormClient.connect_fleet(_addresses(fleet_servers)) as fleet_client:
            fleet_client.wait_until_ready()
            served = fleet_client.fetch_spec("tiny")
            groups = [(rng.normal(size=(2, HIDDEN)), None, None) for _ in range(6)]
            fleet_out = fleet_client.execute_spec_bulk(
                served.spec, groups, gamma=served.gamma, beta=served.beta
            )
        from repro.engine.registry import build

        engine = build(
            served.spec, backend="reference", gamma=served.gamma, beta=served.beta
        )
        assert len(fleet_out) == 6
        for (rows, _s, _a), triple in zip(groups, fleet_out):
            golden = engine.run(rows)
            for got, want in zip(triple, golden):
                assert np.array_equal(got, want)
        assert isinstance(fleet_client.transport, FleetTransport)
        assert fleet_client.transport.stats()["scatter_requests"] >= 1

    def test_mid_run_replica_kill_stays_bit_identical(
        self, fleet_registry, fleet_servers, rng
    ):
        payloads = [rng.normal(size=(2, HIDDEN)) for _ in range(6)]
        golden = self._golden(fleet_registry, payloads)
        with NormClient.connect_fleet(
            _addresses(fleet_servers), timeout=10.0
        ) as client:
            client.wait_until_ready()
            warm = [r.output for r in client.normalize_many(payloads, "tiny")]
            fleet_servers[0].close()  # abrupt death, connections included
            after = [
                r.output for r in client.normalize_many(payloads, "tiny", depth=3)
            ]
            bulk = [r.output for r in client.normalize_bulk(payloads, "tiny")]
        for outputs in (warm, after, bulk):
            for out, ref in zip(outputs, golden):
                assert np.array_equal(out, ref)

    def test_every_replica_down_fails_closed(self, fleet_registry):
        service = NormalizationService(registry=fleet_registry)
        server = AsyncNormServer(service).start()
        address = f"{server.host}:{server.port}"
        server.close()
        service.close()
        with NormClient.connect_fleet(
            [address], timeout=2.0, connect_timeout=0.2
        ) as client:
            with pytest.raises(NoHealthyReplicaError, match=address):
                client.normalize(np.ones(HIDDEN), "tiny")

    def test_membership_changes_at_runtime(self, fleet_registry, fleet_servers, rng):
        addresses = _addresses(fleet_servers)
        transport = FleetTransport(addresses[:1])
        with NormClient(transport) as client:
            client.wait_until_ready()
            payload = rng.normal(size=(HIDDEN,))
            first = client.normalize(payload, "tiny").output
            transport.add_replica(addresses[1])
            transport.add_replica(addresses[2])
            assert set(transport.addresses) == set(addresses)
            again = client.normalize(payload, "tiny").output
            transport.remove_replica(addresses[0])
            assert addresses[0] not in transport.addresses
            final = client.normalize(payload, "tiny").output
        assert np.array_equal(first, again) and np.array_equal(first, final)


# ---------------------------------------------------------------------------
# PR-6 satellites: error addresses, wire gauges, transport registry
# ---------------------------------------------------------------------------


class TestTransportErrorAddress:
    def test_connect_failure_carries_the_replica_address(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()  # nothing listens here any more
        transport = SocketTransport(host, port, connect_timeout=0.2, timeout=0.5)
        with pytest.raises(TransportError) as excinfo:
            transport.request({"op": "ping", "request_id": 1})
        assert excinfo.value.address == f"{host}:{port}"
        assert f"{host}:{port}" in str(excinfo.value)

    def test_fleet_exhaustion_chains_the_address(self):
        transport, _replicas = make_fleet({"a:1": "refuse"})
        with pytest.raises(NoHealthyReplicaError) as excinfo:
            transport.request(_norm_payload())
        cause = excinfo.value.__cause__
        assert isinstance(cause, TransportError) and cause.address == "a:1"


class TestWireGauges:
    def test_per_connection_inflight_and_backpressure_sections(
        self, fleet_registry, fleet_servers, rng
    ):
        server = fleet_servers[0]
        with NormClient.connect(server.host, server.port) as client:
            client.wait_until_ready()
            payloads = [rng.normal(size=(2, HIDDEN)) for _ in range(6)]
            client.normalize_many(payloads, "tiny", depth=6)
            wire = client.telemetry()["telemetry"]["wire"]
        assert wire["frames_received"] >= 6
        assert "backpressure_waits" in wire and wire["backpressure_waits"] >= 0
        assert "inflight_current" in wire
        per_connection = wire["per_connection"]
        assert per_connection and isinstance(per_connection, list)
        connection = per_connection[0]
        for key in ("id", "inflight", "peak_inflight", "frames", "backpressure_waits"):
            assert key in connection
        assert connection["frames"] >= 6
        assert connection["peak_inflight"] >= 1

    def test_format_table_renders_per_connection_rows(
        self, fleet_registry, fleet_servers, rng
    ):
        server = fleet_servers[0]
        with NormClient.connect(server.host, server.port) as client:
            client.wait_until_ready()
            client.normalize(rng.normal(size=(HIDDEN,)), "tiny")
            # Per-connection rows exist for *live* connections: render the
            # table before close or the reader thread may retire the row.
            table = server.service.telemetry.format_table()
        assert "wire conn[" in table
        assert "wire backpressure" in table


class TestTransportRegistry:
    def test_fleet_transport_is_registered(self):
        assert {"in-process", "socket", "fleet"} <= set(available_transports())
        transport = create_transport("fleet", addresses=["127.0.0.1:1"])
        assert isinstance(transport, FleetTransport)
        transport.close()

    def test_fleet_experiment_is_registered(self):
        from repro.eval.experiments import EXPERIMENTS

        assert "fleet" in EXPERIMENTS


# ---------------------------------------------------------------------------
# haan-fleet CLI + supervisor
# ---------------------------------------------------------------------------


class TestFleetCLI:
    def test_attach_drives_fleet_with_golden_check(self, fleet_servers, capsys):
        addresses = ",".join(_addresses(fleet_servers))
        code = fleet_cli.main(
            [
                "--attach",
                addresses,
                "--requests",
                "4",
                "--datasets",
                "2",
                "--bulk-items",
                "3",
                "--rows",
                "2",
                "--depth",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "golden check passed" in out
        assert "replica" in out  # per-replica table header

    def test_attach_json_summary(self, fleet_servers, capsys):
        addresses = ",".join(_addresses(fleet_servers))
        code = fleet_cli.main(
            [
                "--attach",
                addresses,
                "--requests",
                "3",
                "--datasets",
                "1",
                "--bulk-items",
                "2",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        summary, _ = json.JSONDecoder().raw_decode(out[out.index("{") :])
        assert summary["golden_mismatches"] == 0
        assert summary["requests"] == 3 + 2
        assert summary["killed"] is None
        assert summary["replicas"] == _addresses(fleet_servers)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--replicas", "0"],
            ["--attach", "not-an-address"],
            ["--attach", " , "],
            ["--attach", "127.0.0.1:1", "--kill-one"],
            ["--serve", "--attach", "127.0.0.1:1"],
            ["--requests", "0"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            fleet_cli.main(argv)
        assert excinfo.value.code == 2

    def test_replica_table_marks_dead_replica_down(self, capsys):
        fleet_cli._print_replica_table(["127.0.0.1:1"], stats=None)
        out = capsys.readouterr().out
        assert "down" in out


class TestFleetSupervisor:
    def test_lifecycle_kill_restart_and_close(self):
        supervisor = FleetSupervisor(2, restart=True, model="tiny")
        try:
            addresses = supervisor.start()
            assert len(addresses) == 2
            replica = supervisor.replica(0)
            assert replica.alive
            old_address = replica.address
            replica.kill()
            deadline = time.monotonic() + 60.0
            churn = []
            while time.monotonic() < deadline and not churn:
                churn = supervisor.poll()
                time.sleep(0.05)
            assert churn, "supervisor never noticed the killed replica"
            old, new = churn[0]
            assert old == old_address
            assert new is not None  # restart=True relaunches on a fresh port
            assert supervisor.replica(0).alive
            host, port = new.rsplit(":", 1)
            with NormClient.connect(host, int(port)) as probe:
                probe.wait_until_ready(timeout=30.0)
                assert "vectorized" in probe.ping()["backends"]
        finally:
            supervisor.close()
        assert not supervisor.replica(0).alive
        assert not supervisor.replica(1).alive

    def test_serve_mode_shuts_down_cleanly(self, monkeypatch, capsys):
        class _InterruptingTime:
            @staticmethod
            def sleep(seconds):  # noqa: ARG004 - signature match
                raise KeyboardInterrupt

        monkeypatch.setattr(fleet_cli, "time", _InterruptingTime)
        code = fleet_cli.main(["--serve", "--replicas", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving 1 replica(s)" in out
        assert "shutting down" in out

    def test_launch_and_kill_one_survives(self, capsys):
        code = fleet_cli.main(
            [
                "--replicas",
                "2",
                "--datasets",
                "2",
                "--requests",
                "4",
                "--bulk-items",
                "3",
                "--rows",
                "2",
                "--kill-one",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "killed replica" in out
        assert "golden check passed" in out
