"""Per-tenant admission control: token buckets, quotas, strict mode.

Unit tests for :mod:`repro.core.admission` plus its integration with
the service facade (quota returned on completion/cancel/forget,
batch all-or-nothing semantics, tenant metrics).
"""

from __future__ import annotations

import math

import pytest

from repro.auth import AuthService
from repro.core.admission import AdmissionController, TenantPolicy
from repro.core.service import FuncXService, ServiceConfig
from repro.errors import ThrottleExceeded, UnknownTenant
from repro.metrics.registry import MetricsRegistry
from repro.serialize import FuncXSerializer


class TestTenantPolicy:
    def test_defaults_are_unlimited(self):
        policy = TenantPolicy()
        assert math.isinf(policy.rate) and math.isinf(policy.burst)
        assert policy.max_outstanding is None
        assert policy.weight == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0},
        {"rate": -1.0},
        {"burst": 0.0},
        {"max_outstanding": 0},
        {"weight": 0.0},
    ])
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantPolicy(**kwargs)


class TestTokenBucket:
    def test_burst_then_throttle(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate=1.0, burst=3.0))
        for _ in range(3):
            ctl.admit("t")
        with pytest.raises(ThrottleExceeded) as exc_info:
            ctl.admit("t")
        assert exc_info.value.tenant == "t"
        assert "rate limit" in str(exc_info.value)

    def test_refill_restores_allowance(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate=2.0, burst=2.0))
        ctl.admit("t", count=2)
        with pytest.raises(ThrottleExceeded):
            ctl.admit("t")
        clock.advance(0.5)  # 2/s * 0.5s = 1 token back
        ctl.admit("t")
        with pytest.raises(ThrottleExceeded):
            ctl.admit("t")

    def test_refill_caps_at_burst(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate=100.0, burst=2.0))
        ctl.admit("t", count=2)
        clock.advance(60.0)  # would refill 6000 tokens; capped at burst
        ctl.admit("t", count=2)
        with pytest.raises(ThrottleExceeded):
            ctl.admit("t")

    def test_retry_after_names_the_shortfall(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate=2.0, burst=4.0))
        ctl.admit("t", count=4)
        with pytest.raises(ThrottleExceeded) as exc_info:
            ctl.admit("t", count=3)
        # 3 tokens short at 2 tokens/s -> 1.5s
        assert exc_info.value.retry_after == pytest.approx(1.5)
        assert "retry after" in str(exc_info.value)

    def test_batch_is_all_or_nothing(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate=1.0, burst=5.0))
        with pytest.raises(ThrottleExceeded):
            ctl.admit("t", count=6)
        # the failed batch consumed nothing
        ctl.admit("t", count=5)


class TestQuota:
    def test_max_outstanding_blocks_and_release_restores(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(max_outstanding=2))
        ctl.admit("t", count=2)
        with pytest.raises(ThrottleExceeded) as exc_info:
            ctl.admit("t")
        assert "quota" in str(exc_info.value)
        assert ctl.outstanding("t") == 2
        ctl.release("t")
        ctl.admit("t")

    def test_release_never_goes_negative(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.release("t", count=5)
        assert ctl.outstanding("t") == 0
        ctl.set_policy("t", TenantPolicy(max_outstanding=1))
        ctl.admit("t")
        ctl.release("t", count=99)
        assert ctl.outstanding("t") == 0


class TestStrictMode:
    def test_unknown_tenant_rejected(self, clock):
        ctl = AdmissionController(strict=True, clock=clock)
        ctl.set_policy("known", TenantPolicy())
        ctl.admit("known")
        with pytest.raises(UnknownTenant) as exc_info:
            ctl.admit("stranger")
        assert exc_info.value.tenant == "stranger"

    def test_permissive_default_admits_anyone(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.admit("anyone", count=1000)

    def test_weight_for_never_raises(self, clock):
        ctl = AdmissionController(strict=True, clock=clock)
        ctl.set_policy("heavy", TenantPolicy(weight=4.0))
        assert ctl.weight_for("heavy") == 4.0
        assert ctl.weight_for("stranger") == 1.0  # default, no raise


class TestMetricsAndSnapshot:
    def test_admission_metrics_emitted(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.metrics = registry = MetricsRegistry(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate=1.0, burst=1.0, max_outstanding=5))
        ctl.admit("t")
        with pytest.raises(ThrottleExceeded):
            ctl.admit("t")
        assert registry.value("tenant.admitted", tenant="t") == 1
        assert registry.value("tenant.throttled", tenant="t", reason="rate") == 1
        assert registry.value("tenant.outstanding", tenant="t") == 1
        ctl.release("t")
        assert registry.value("tenant.outstanding", tenant="t") == 0

    def test_snapshot_reports_buckets(self, clock):
        ctl = AdmissionController(clock=clock)
        ctl.set_policy("t", TenantPolicy(rate=1.0, burst=4.0))
        ctl.admit("t", count=3)
        snap = ctl.snapshot()
        assert snap["t"]["tokens"] == pytest.approx(1.0)
        assert snap["t"]["outstanding"] == 3


# ----------------------------------------------------------------------
# integration with the facade
# ----------------------------------------------------------------------
class TestServiceIntegration:
    @staticmethod
    def _service(clock, admission=None):
        return FuncXService(
            auth=AuthService(clock=clock),
            config=ServiceConfig(),
            clock=clock,
            admission=admission,
        )

    @staticmethod
    def _setup(service):
        identity = service.auth.register_identity("tenant")
        token = service.auth.native_client_flow(identity).token
        serializer = FuncXSerializer()
        fid = service.register_function(
            token, "noop", serializer.serialize_function(lambda x: x),
            public=True)
        _eident, etok = service.auth.endpoint_client_flow("ep")
        ep = service.register_endpoint(etok.token, name="ep")
        payload = serializer.serialize(([1], {}))
        return identity, token, fid, ep, payload

    def test_quota_returned_on_every_terminal_path(self, clock):
        admission = AdmissionController(clock=clock)
        service = self._service(clock, admission)
        identity, token, fid, ep, payload = self._setup(service)
        admission.set_policy(identity.identity_id,
                             TenantPolicy(max_outstanding=3))

        completed = service.submit(token, fid, ep, payload)
        cancelled = service.submit(token, fid, ep, payload)
        forgotten = service.submit(token, fid, ep, payload)
        with pytest.raises(ThrottleExceeded):
            service.submit(token, fid, ep, payload)

        service.complete_task(completed, success=True, result_buffer=b"r")
        assert admission.outstanding(identity.identity_id) == 2
        service.cancel_task(token, cancelled)
        assert admission.outstanding(identity.identity_id) == 1
        service.forget_task(forgotten)
        assert admission.outstanding(identity.identity_id) == 0
        # full allowance restored
        for _ in range(3):
            service.submit(token, fid, ep, payload)

    def test_rejected_batch_consumes_no_quota(self, clock):
        admission = AdmissionController(clock=clock)
        service = self._service(clock, admission)
        identity, token, fid, ep, payload = self._setup(service)
        admission.set_policy(identity.identity_id,
                             TenantPolicy(max_outstanding=2))
        with pytest.raises(ThrottleExceeded):
            service.submit_batch(token, [(fid, ep, payload)] * 3)
        assert admission.outstanding(identity.identity_id) == 0
        assert service.tasks_received == 0
        assert service.submit_batch(token, [(fid, ep, payload)] * 2)

    def test_queue_lanes_carry_tenant_identity(self, clock):
        service = self._service(clock)
        identity, token, fid, ep, payload = self._setup(service)
        service.submit(token, fid, ep, payload)
        (lease,) = service.task_queue(ep).lease_many(1)
        assert lease.lane == identity.identity_id
