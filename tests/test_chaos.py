"""Robustness: fault plans, chaos replay, admission, retries, degradation.

The contract pinned down here is the PR's headline: under *any* injected
fault schedule the stack either answers bit-identically to the fault-free
run or fails with a typed member of the ApiError taxonomy -- and every
degraded response says so explicitly.
"""

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.admission import AdmissionController
from repro.api.aserver import AsyncNormServer
from repro.api.client import NormClient
from repro.api.envelopes import (
    ApiError,
    BadSchemaError,
    ErrorResponse,
    NormalizeRequest,
    OverloadedError,
    PingRequest,
    TransportError,
    error_for_code,
)
from repro.api.envelopes import TensorPayload
from repro.api.framing import FrameDecoder, send_frame
from repro.api.retry import AMBIGUOUS, CLEAN, OVERLOADED, RetryPolicy
from repro.api.transport import InProcessTransport, SocketTransport
from repro.chaos.gate import FaultGate
from repro.chaos.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    canned_plan,
)
from repro.chaos.transport import ChaosTransport
from repro.core.config import HaanConfig
from repro.core.haan_norm import HaanNormalization
from repro.core.predictor import IsdPredictor
from repro.core.subsampling import SubsampleSettings
from repro.llm.normalization import LayerNorm
from repro.numerics.quantization import DataFormat
from repro.serving.degrade import MAX_LEVEL, DegradationLadder, degraded_spec
from repro.serving.registry import CalibrationArtifact, CalibrationRegistry
from repro.serving.service import NormalizationService

HIDDEN = 48


def _instant_loader(model_name, dataset):
    """Calibration-free artifact: a computed HAAN layer, a skipped one."""
    rng = np.random.default_rng(31)
    layers = []
    bases = []
    for index in (0, 1):
        base = LayerNorm(hidden_size=HIDDEN, layer_index=index, name=f"chaos.norm{index}")
        base.load_affine(rng.normal(1.0, 0.1, HIDDEN), rng.normal(0.0, 0.1, HIDDEN))
        bases.append(base)
    computed = HaanNormalization(
        bases[0], subsample=SubsampleSettings(length=24), data_format=DataFormat.INT8
    )
    predictor = IsdPredictor(anchor_layer=0, last_layer=3, decay=-0.04, anchor_log_isd=0.1)
    skipped = HaanNormalization(bases[1], predictor=predictor, data_format=DataFormat.FP16)
    return CalibrationArtifact(
        model_name=model_name,
        dataset=dataset,
        model=None,
        config=HaanConfig(subsample_length=24, data_format=DataFormat.INT8),
        calibration=None,
        haan_layers=[computed, skipped],
        reference_layers=bases,
    )


@pytest.fixture()
def registry():
    return CalibrationRegistry(loader=_instant_loader)


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


def _rows(rng, count=4):
    return rng.normal(0.0, 1.5, size=(count, HIDDEN))


def _golden(registry, payload, layer_index=0):
    layer = registry.get("tiny", "default").layer(layer_index)
    return layer.engine_for("reference").run(
        np.asarray(payload, dtype=np.float64)
    )[0]


# ---------------------------------------------------------------------------
# fault plans: serialization and validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = canned_plan()
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="meteor")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule field"):
            FaultRule.from_dict({"kind": "drop", "volume": 11})

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(kind="drop", probability=1.5)

    def test_delay_rule_needs_delay(self):
        with pytest.raises(ValueError, match="delay_ms"):
            FaultRule(kind="delay")

    def test_bad_json_is_typed(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_kill_fires_once_by_default(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="kill_after", after_n=2),))
        injector = plan.injector()
        kinds = injector.trace(["normalize"] * 10)
        assert kinds.count("kill_after") == 1
        assert kinds[2] == "kill_after"  # frames 1..2 immune, frame 3 kills


# ---------------------------------------------------------------------------
# determinism: the seed is the whole experiment (satellite property 1)
# ---------------------------------------------------------------------------


@st.composite
def fault_rules(draw):
    kind = draw(st.sampled_from(sorted(FAULT_KINDS)))
    needs_delay = kind in ("delay", "slow_drain")
    return FaultRule(
        kind=kind,
        op=draw(st.sampled_from([None, "normalize", "execute", "ping"])),
        probability=draw(st.floats(0.0, 1.0, allow_nan=False)),
        delay_ms=draw(st.floats(0.5, 3.0)) if needs_delay else 0.0,
        after_n=draw(st.integers(0, 5)) if kind == "kill_after" else 0,
    )


@st.composite
def fault_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 2**31)),
        rules=tuple(draw(st.lists(fault_rules(), min_size=1, max_size=4))),
    )


op_sequences = st.lists(
    st.sampled_from(["normalize", "normalize_bulk", "execute", "ping", None]),
    min_size=1,
    max_size=40,
)


class TestDeterminism:
    @given(plan=fault_plans(), ops=op_sequences)
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_fault_sequence(self, plan, ops):
        assert plan.injector().trace(ops) == plan.injector().trace(ops)

    @given(plan=fault_plans(), ops=op_sequences)
    @settings(max_examples=40, deadline=None)
    def test_gate_replays_the_transport_schedule(self, plan, ops):
        """Client- and server-side application draw the same schedule."""
        from repro.chaos.gate import _SERVER_ACTIONS

        client_kinds = plan.injector().trace(ops)
        gate = FaultGate(plan)
        server_kinds = [
            action.kind if action is not None else None
            for action in (gate.on_server_frame({"op": op}) for op in ops)
        ]
        assert server_kinds == [
            _SERVER_ACTIONS.get(kind) if kind is not None else None
            for kind in client_kinds
        ]

    def test_scopes_are_independent_streams(self):
        plan = FaultPlan(seed=5, rules=(FaultRule(kind="drop", probability=0.5),))
        ops = ["normalize"] * 64
        assert plan.injector(scope="a").trace(ops) == plan.injector(scope="a").trace(ops)
        assert plan.injector(scope="a").trace(ops) != plan.injector(scope="b").trace(ops)

    def test_replica_scoped_rule_only_fires_there(self):
        plan = FaultPlan(seed=5, rules=(FaultRule(kind="drop", replica="r1"),))
        assert plan.injector(replica="r1").decide("normalize") is not None
        assert plan.injector(replica="r2").decide("normalize") is None
        assert plan.injector().decide("normalize") is None


# ---------------------------------------------------------------------------
# the chaos contract: bit-identical or typed (satellite property 2)
# ---------------------------------------------------------------------------


class TestChaosContract:
    @given(seed=st.integers(0, 2**31))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_chaos_run_is_bit_identical_or_typed(self, seed):
        plan = FaultPlan(
            seed=seed,
            rules=(
                FaultRule(kind="drop", probability=0.2),
                FaultRule(kind="corrupt", probability=0.2),
                FaultRule(kind="refuse_connect", probability=0.1),
                FaultRule(kind="kill_after", after_n=3),
                FaultRule(kind="delay", probability=0.2, delay_ms=1.0),
            ),
        )
        registry = CalibrationRegistry(loader=_instant_loader)
        transport = ChaosTransport(InProcessTransport(registry=registry), plan)
        rng = np.random.default_rng(seed)
        injected = 0
        with NormClient(transport) as client:
            for _ in range(8):
                payload = _rows(rng)
                try:
                    result = client.normalize(payload, "tiny")
                except ApiError:
                    injected += 1
                    continue
                assert np.array_equal(result.output, _golden(registry, payload))
        # the plan above is aggressive enough that a silent no-fault run
        # would mean the injector is broken
        assert injected + transport.snapshot()["injected"] > 0

    def test_corrupt_preserves_request_id_and_fails_typed(self, registry):
        plan = FaultPlan(seed=1, rules=(FaultRule(kind="corrupt"),))
        transport = ChaosTransport(InProcessTransport(registry=registry), plan)
        with NormClient(transport) as client:
            with pytest.raises(ApiError):
                client.normalize(_rows(np.random.default_rng(0)), "tiny")

    def test_kill_after_redials_and_recovers(self, registry, rng):
        service = NormalizationService(registry=registry)
        server = AsyncNormServer(service).start()
        plan = FaultPlan(seed=2, rules=(FaultRule(kind="kill_after", after_n=1),))
        inner = SocketTransport("127.0.0.1", server.port)
        try:
            with NormClient(ChaosTransport(inner, plan)) as client:
                payload = _rows(rng)
                first = client.normalize(payload, "tiny")  # frame 1: clean
                assert np.array_equal(first.output, _golden(registry, payload))
                with pytest.raises(TransportError, match="chaos"):
                    client.normalize(_rows(rng), "tiny")  # frame 2: killed
                payload = _rows(rng)
                third = client.normalize(payload, "tiny")  # redialed
                assert np.array_equal(third.output, _golden(registry, payload))
                assert inner.stats()["reconnects"] >= 1
        finally:
            server.close()
            service.close()

    def test_server_side_gate_same_contract(self, registry, rng):
        """The same plan applied in the server's frame loop stays typed."""
        plan = FaultPlan(
            seed=9,
            rules=(
                FaultRule(kind="corrupt", probability=0.3),
                FaultRule(kind="drop", probability=0.2),
            ),
        )
        gate = FaultGate(plan)
        service = NormalizationService(registry=registry)
        server = AsyncNormServer(service, fault_gate=gate).start()
        try:
            with NormClient.connect(server.host, server.port, timeout=1.0) as client:
                typed = 0
                for _ in range(12):
                    payload = _rows(rng)
                    try:
                        result = client.normalize(payload, "tiny")
                    except ApiError:
                        typed += 1
                        continue
                    assert np.array_equal(result.output, _golden(registry, payload))
                assert gate.snapshot()["injected"] > 0
                assert typed > 0
        finally:
            server.close()
            service.close()


# ---------------------------------------------------------------------------
# satellite (a): a dead address must not fail requests the pool can carry
# ---------------------------------------------------------------------------


class TestPoolDialFallback:
    def test_refused_topup_dial_falls_back_to_live_connection(self):
        """pool_size=2, one dead address: requests ride the live socket."""

        def echo(conn):
            decoder = FrameDecoder()
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    return
                if not data:
                    return
                for payload in decoder.feed(data):
                    send_frame(
                        conn,
                        {
                            "op": "pong",
                            "ok": True,
                            "request_id": payload.get("request_id"),
                            "schema_version": payload.get("schema_version"),
                        },
                    )

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        accepted = []

        def serve_one():
            conn, _ = listener.accept()
            accepted.append(conn)
            # One connection only: every further dial to the port is refused.
            listener.close()
            echo(conn)

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        transport = SocketTransport(
            "127.0.0.1", port, pool_size=2, negotiate=False, timeout=5.0
        )
        try:
            # First request dials connection 1 and succeeds.
            assert transport.request(PingRequest().to_wire()).get("op") == "pong"
            # Second request tops up the pool (slot 2), the dial is refused,
            # and the request must still complete on the live connection
            # instead of surfacing the dial failure.
            assert transport.request(PingRequest().to_wire()).get("op") == "pong"
            stats = transport.stats()
            assert stats["connections"] == 1
        finally:
            transport.close()
            for conn in accepted:
                conn.close()
            thread.join(timeout=5.0)


# ---------------------------------------------------------------------------
# satellite (b): deadline validation at submit and decode
# ---------------------------------------------------------------------------


class TestDeadlineValidation:
    @pytest.mark.parametrize("deadline", [0.0, -5.0, float("nan"), float("inf")])
    def test_client_submit_rejects_bad_deadline(self, registry, rng, deadline):
        with NormClient(InProcessTransport(registry=registry)) as client:
            with pytest.raises(BadSchemaError, match="deadline_ms"):
                client.normalize(_rows(rng), "tiny", deadline_ms=deadline)

    @pytest.mark.parametrize("deadline", [0, -1, "soon", True])
    def test_envelope_decode_rejects_bad_deadline(self, rng, deadline):
        wire = NormalizeRequest(
            model="tiny", tensor=TensorPayload.from_array(_rows(rng))
        ).to_wire()
        wire["deadline_ms"] = deadline
        with pytest.raises(BadSchemaError):
            NormalizeRequest.from_wire(wire)

    def test_admission_rejects_bad_deadline_pre_decode(self):
        admission = AdmissionController()
        with pytest.raises(BadSchemaError, match="deadline_ms"):
            admission.check({"op": "normalize", "deadline_ms": 0})
        assert admission.inflight == 0

    def test_valid_deadline_rides_the_wire(self, rng):
        wire = NormalizeRequest(
            model="tiny",
            tensor=TensorPayload.from_array(_rows(rng)),
            deadline_ms=250.0,
        ).to_wire()
        assert wire["deadline_ms"] == 250.0
        assert NormalizeRequest.from_wire(wire).deadline_ms == 250.0


# ---------------------------------------------------------------------------
# admission control: shed early, shed typed
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_queue_full_sheds_with_retry_after(self):
        admission = AdmissionController(max_queue_depth=2)
        admission.check({"op": "normalize"})
        admission.check({"op": "normalize"})
        with pytest.raises(OverloadedError) as excinfo:
            admission.check({"op": "normalize"})
        assert excinfo.value.retry_after_ms is not None
        assert excinfo.value.retry_after_ms > 0
        assert admission.inflight == 2

    def test_control_ops_always_admitted(self):
        admission = AdmissionController(max_queue_depth=1)
        admission.check({"op": "normalize"})
        admission.check({"op": "ping"})  # not shed, not counted
        admission.check({"op": "telemetry"})
        assert admission.inflight == 1

    def test_infeasible_deadline_sheds_before_decode(self):
        admission = AdmissionController(initial_service_time=0.1)
        admission.check({"op": "normalize"})
        with pytest.raises(OverloadedError, match="deadline"):
            # Two requests deep at ~100ms each: a 50ms deadline cannot hold.
            admission.check({"op": "normalize", "deadline_ms": 50.0})

    def test_complete_feeds_the_ema(self):
        admission = AdmissionController(initial_service_time=0.1, ema_alpha=0.5)
        admission.check({"op": "normalize"})
        admission.complete(0.3)
        assert admission.snapshot()["service_time_ema_ms"] == pytest.approx(200.0)

    def test_live_server_sheds_under_100ms(self, registry, rng, hold_engine):
        """A shed answer arrives in well under 100 ms, while the admitted
        request is still running."""
        service = NormalizationService(registry=registry)
        server = AsyncNormServer(service, workers=1, max_queue_depth=1).start()
        _, release = hold_engine(service, server)
        try:
            with NormClient.connect(server.host, server.port, timeout=5.0) as client:
                started = time.perf_counter()
                handles = [
                    client.submit_normalize(_rows(rng), "tiny") for _ in range(6)
                ]
                # The first request holds the one queue slot until its
                # batch is released, so every other one must be shed.
                for handle in handles[1:]:
                    with pytest.raises(OverloadedError) as excinfo:
                        handle.result(5.0)
                    assert excinfo.value.retry_after_ms is not None
                assert time.perf_counter() - started < 0.1
                assert not handles[0].done()
                release.set()
                handles[0].result(5.0)
        finally:
            release.set()
            server.close()
            service.close()


# ---------------------------------------------------------------------------
# retry discipline
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_ceiling_and_jitter(self):
        import random

        policy = RetryPolicy(
            max_attempts=8,
            base_backoff=0.1,
            min_budget_tokens=100.0,
            rng=random.Random(0),
        )
        for attempt in range(6):
            delay = policy.next_delay(attempt, "normalize")
            assert delay is not None
            assert 0.0 <= delay <= min(0.1 * 2**attempt, policy.max_backoff)

    def test_max_attempts_bounds_retries(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.next_delay(0, "normalize") is not None
        assert policy.next_delay(1, "normalize") is None

    def test_ambiguous_execute_never_retried(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.next_delay(0, "execute", AMBIGUOUS) is None
        assert policy.next_delay(0, "execute_bulk", AMBIGUOUS) is None
        # ... but a clean failure (never sent) retries fine
        assert policy.next_delay(0, "execute", CLEAN) is not None
        # ... and ambiguous failures of idempotent ops retry too
        assert policy.next_delay(0, "normalize", AMBIGUOUS) is not None
        assert policy.snapshot()["ambiguous_refused"] == 2

    def test_overloaded_honors_retry_after_floor(self):
        import random

        policy = RetryPolicy(max_attempts=3, rng=random.Random(1))
        delay = policy.next_delay(0, "normalize", OVERLOADED, retry_after_ms=500.0)
        assert delay is not None
        assert delay >= 0.5

    def test_budget_exhaustion_surfaces_failures(self):
        policy = RetryPolicy(max_attempts=10, min_budget_tokens=2.0, retry_budget=0.0)
        assert policy.next_delay(0, "normalize") is not None
        assert policy.next_delay(0, "normalize") is not None
        assert policy.next_delay(0, "normalize") is None  # bucket empty
        assert policy.snapshot()["budget_exhausted"] == 1

    def test_first_attempts_refill_the_budget(self):
        policy = RetryPolicy(max_attempts=10, min_budget_tokens=0.0, retry_budget=0.5)
        assert policy.next_delay(0, "normalize") is None
        for _ in range(2):
            policy.record_attempt()
        assert policy.next_delay(0, "normalize") is not None

    def test_overloaded_envelope_retries_then_surfaces_typed(self, registry, rng):
        """Out of budget, the typed overloaded envelope reaches the caller."""

        class SheddingTransport(InProcessTransport):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.requests = 0

            def request(self, payload):
                self.requests += 1
                return ErrorResponse.from_exception(
                    OverloadedError("synthetic shed", retry_after_ms=1.0),
                    request_id=payload.get("request_id"),
                ).to_wire()

        transport = SheddingTransport(registry=registry)
        policy = RetryPolicy(max_attempts=3, base_backoff=0.001)
        # Exercise the retry loop through the socket-transport code path.
        from repro.api.transport import _overload_error

        envelope = transport.request({"op": "normalize", "request_id": 1})
        assert _overload_error(envelope) == 1.0
        with NormClient(transport) as client:
            with pytest.raises(OverloadedError, match="synthetic shed"):
                client.normalize(_rows(rng), "tiny")


class TestFleetRetryDiscipline:
    def test_ambiguous_execute_failure_not_failed_over(self):
        from repro.fleet.transport import FleetTransport

        from test_fleet import FakeReplica

        replicas = {
            "r1:1": FakeReplica("r1:1", "die"),
            "r2:2": FakeReplica("r2:2", "echo"),
        }
        fleet = FleetTransport(
            list(replicas),
            transport_factory=lambda address: replicas[address],
            hedge=False,
            timeout=5.0,
        )
        payload = {
            "op": "execute",
            "request_id": 9001,
            "spec": {"kind": "x"},
            "backend": "vectorized",
        }
        primary = fleet._router.candidates(fleet.routing_key(payload))[0]
        if primary != "r1:1":
            replicas["r1:1"].behavior = "echo"
            replicas["r2:2"].behavior = "die"
        with pytest.raises(TransportError, match="ambiguous failure"):
            fleet.request(payload)
        assert fleet.retry_policy.snapshot()["ambiguous_refused"] == 1
        fleet.close()

    def test_idempotent_post_send_failure_fails_over(self):
        from repro.fleet.transport import FleetTransport

        from test_fleet import FakeReplica

        replicas = {
            "r1:1": FakeReplica("r1:1", "die"),
            "r2:2": FakeReplica("r2:2", "die"),
        }
        fleet = FleetTransport(
            list(replicas),
            transport_factory=lambda address: replicas[address],
            hedge=False,
            timeout=5.0,
        )
        payload = {
            "op": "normalize",
            "request_id": 9002,
            "model": "tiny",
            "dataset": "default",
            "accelerator": None,
        }
        survivor = fleet._router.candidates(fleet.routing_key(payload))[1]
        replicas[survivor].behavior = "echo"
        envelope = fleet.request(payload)
        assert envelope["served_by"] == survivor
        fleet.close()

    def test_fleet_shares_one_retry_budget_with_replicas(self):
        from repro.fleet.transport import FleetTransport, _default_factory

        policy = RetryPolicy()
        fleet = FleetTransport(["127.0.0.1:1"], retry_policy=policy)
        replica = _default_factory("127.0.0.1:1", 1.0, 1.0, 1, 1 << 20, retry_policy=policy)
        assert replica.retry_policy is fleet.retry_policy
        replica.close()
        fleet.close()


# ---------------------------------------------------------------------------
# degradation ladder
# ---------------------------------------------------------------------------


class TestDegradationLadder:
    def test_hysteresis_up_and_down(self):
        ladder = DegradationLadder(up_after=3, down_after=4)
        assert all(ladder.observe(0.9) == 0 for _ in range(2))
        assert ladder.observe(0.9) == 1  # third consecutive high sample
        assert all(ladder.observe(0.1) == 1 for _ in range(3))
        assert ladder.observe(0.1) == 0  # fourth consecutive low sample

    def test_mid_band_resets_streaks(self):
        ladder = DegradationLadder(up_after=2, down_after=2)
        ladder.observe(0.9)
        ladder.observe(0.5)  # between the watermarks: streak broken
        assert ladder.observe(0.9) == 0

    def test_caps_at_max_level(self):
        ladder = DegradationLadder(max_level=1, up_after=1)
        ladder.observe(0.9)
        ladder.observe(0.9)
        assert ladder.level == 1

    def test_degraded_spec_level1_subsamples(self, registry):
        layer = registry.get("tiny", "default").layer(0)
        spec = layer.engine_for("vectorized").spec
        degraded, applied = degraded_spec(spec, 1)
        assert applied == 1
        assert degraded.subsample_length == min(HIDDEN // 4, spec.subsample_length or HIDDEN)

    def test_degraded_spec_level2_skips_with_borrowed_predictor(self, registry):
        artifact = registry.get("tiny", "default")
        spec = artifact.layer(0).engine_for("vectorized").spec
        source = artifact.layer(1).engine_for("vectorized").spec
        degraded, applied = degraded_spec(spec, MAX_LEVEL, predictor_source=source)
        assert applied == MAX_LEVEL
        assert degraded.skipped

    def test_no_op_transformation_reports_level_zero(self, registry):
        """Degradation is never silently claimed (acceptance criterion)."""
        artifact = registry.get("tiny", "default")
        spec = artifact.layer(0).engine_for("vectorized").spec
        already_small = spec.with_overrides(subsample_length=4)
        _degraded, applied = degraded_spec(already_small, 1)
        assert applied == 0

    def test_responses_stamped_end_to_end(self, registry, rng):
        svc = NormalizationService(registry=registry)
        payload = _rows(rng)
        full = svc.normalize(payload, "tiny")
        assert full.degradation == 0
        degraded = svc.normalize(payload, "tiny", degrade=1)
        assert degraded.degradation == 1
        assert degraded.was_subsampled
        svc.close()

    def test_wire_responses_carry_the_stamp(self, registry, rng):
        ladder = DegradationLadder(up_after=1, down_after=10**6)
        # Saturate the ladder so the next work op degrades.
        ladder.observe(1.0)
        ladder.observe(1.0)
        service = NormalizationService(registry=registry)
        server = AsyncNormServer(service, ladder=ladder).start()
        try:
            with NormClient.connect(server.host, server.port) as client:
                result = client.normalize(_rows(rng), "tiny")
                assert result.degradation >= 1
        finally:
            server.close()
            service.close()


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_inflight_finishes_and_new_work_is_refused(self, registry, rng, hold_engine):
        service = NormalizationService(registry=registry)
        server = AsyncNormServer(service).start()
        entered, release = hold_engine(service, server)
        # Signal the moment the drain begins (close() has already flagged
        # the server as draining when it schedules _shutdown).
        draining = threading.Event()
        shutdown = server._shutdown

        async def signalled_shutdown(drain_timeout):
            draining.set()
            await shutdown(drain_timeout)

        server._shutdown = signalled_shutdown
        client = NormClient.connect(server.host, server.port, timeout=10.0)
        try:
            handle = client.submit_normalize(_rows(rng), "tiny")
            assert entered.wait(5.0), "request never reached the engine"
            closer = threading.Thread(
                target=lambda: server.close(drain_timeout=5.0), daemon=True
            )
            closer.start()
            assert draining.wait(5.0), "close never started draining"
            with pytest.raises(OverloadedError, match="draining"):
                client.normalize(_rows(rng), "tiny")
            # The drain waits for the held request instead of cutting it.
            assert not handle.done()
            release.set()
            result = handle.result(10.0)
            assert result.output.shape == (4, HIDDEN)
            closer.join(timeout=10.0)
            assert not closer.is_alive()
        finally:
            release.set()
            client.close()
            server.close()
            service.close()

    def test_default_close_is_still_immediate(self, registry):
        service = NormalizationService(registry=registry)
        server = AsyncNormServer(service).start()
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 1.0
        service.close()


# ---------------------------------------------------------------------------
# error envelope plumbing for retry_after_ms
# ---------------------------------------------------------------------------


class TestOverloadedEnvelope:
    def test_retry_after_round_trips(self):
        wire = ErrorResponse.from_exception(
            OverloadedError("full", retry_after_ms=40.0), request_id=3
        ).to_wire()
        assert wire["error"]["retry_after_ms"] == 40.0
        decoded = ErrorResponse.from_wire(wire)
        assert decoded.retry_after_ms == 40.0
        with pytest.raises(OverloadedError) as excinfo:
            decoded.raise_()
        assert excinfo.value.retry_after_ms == 40.0

    def test_error_for_code_builds_overloaded(self):
        error = error_for_code("overloaded", "busy", retry_after_ms=10.0)
        assert isinstance(error, OverloadedError)
        assert error.retry_after_ms == 10.0
