"""TenantFairnessController: per-tenant budgets at admission.

Unit-level tests drive ``admit``/``update`` directly with stub
snapshots, pinning the fairness mechanics the multi-tenant benchmark
relies on: evidence-gated triage, the decayed admitted-service ledger,
over-share shedding under pressure, and the untagged passthrough.
"""

from types import SimpleNamespace

import pytest

from repro.control import TenantFairnessController


class _Snap:
    """Just enough of a ControlSnapshot for update()."""

    def __init__(self, mean_service_s):
        self.window = SimpleNamespace(mean_service_s=mean_service_s)


class _MinStrategy:
    def __init__(self, latency_s):
        self.expected_latency_s = latency_s


class _System:
    def __init__(self, min_latency_s):
        self._min = _MinStrategy(min_latency_s)

    def min_strategy(self):
        return self._min


class _Loop:
    def __init__(self, system=None):
        self.system = system


def _warm(ctrl, service_s=0.1):
    """Give the controller its service-time evidence."""
    ctrl.update(_Snap(service_s), _Loop())


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"weights": {"a": -1.0}},
        {"weights": {"a": float("inf")}},
        {"weights": {"a": float("-inf")}},
        {"weights": {"a": float("nan")}},
        {"weights": {"a": 1.0, "b": -0.5}},
        {"weights": {"a": 2.0, "b": float("nan")}},
        {"weights": {"a": 0.0}},
    ])
    def test_bad_parameters_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantFairnessController(**kwargs)


class TestEvidenceGate:
    def test_serves_everything_before_first_window(self):
        """No completed-request evidence -> no basis to refuse."""
        ctrl = TenantFairnessController()
        assert ctrl.admit(0.0, 10.0, 0.3, _Loop(), tenant="a") == "serve"
        assert ctrl.shed == 0

    def test_ewma_tracks_the_window_mean(self):
        ctrl = TenantFairnessController()
        ctrl.update(_Snap(0.1), _Loop())
        assert ctrl.service_estimate_s == pytest.approx(0.1)
        ctrl.update(_Snap(0.2), _Loop())
        assert ctrl.service_estimate_s == pytest.approx(0.13)
        ctrl.update(_Snap(0.0), _Loop())   # empty window: no update
        assert ctrl.service_estimate_s == pytest.approx(0.13)


class TestDeadlineTriage:
    def test_fitting_request_serves_and_charges_the_ledger(self):
        ctrl = TenantFairnessController()
        _warm(ctrl, 0.1)
        assert ctrl.admit(0.0, 0.0, 1.0, _Loop(), tenant="a") == "serve"
        assert ctrl.served_share["a"] == pytest.approx(0.1)

    def test_tight_budget_degrades_and_charges_the_cheap_path(self):
        ctrl = TenantFairnessController()
        _warm(ctrl, 0.2)
        loop = _Loop(system=_System(min_latency_s=0.05))
        verdict = ctrl.admit(0.0, 0.0, 0.1, loop, tenant="a")
        assert verdict == "degrade"
        assert ctrl.degraded == 1
        assert ctrl.degraded_by_tenant == {"a": 1}
        assert ctrl.served_share["a"] == pytest.approx(0.05)

    def test_hopeless_request_sheds(self):
        ctrl = TenantFairnessController()
        _warm(ctrl, 0.5)
        verdict = ctrl.admit(0.0, 5.0, 0.3, _Loop(), tenant="a")
        assert verdict == "shed"
        assert ctrl.shed_by_tenant == {"a": 1}
        assert "a" not in ctrl.served_share   # sheds are never charged

    def test_untagged_requests_triage_deadline_only(self):
        """tenant=None: the fairness machinery must stay out of it."""
        ctrl = TenantFairnessController()
        _warm(ctrl, 0.1)
        assert ctrl.admit(0.0, 0.0, 1.0, _Loop()) == "serve"
        assert ctrl.admit(0.0, 5.0, 0.3, _Loop()) == "shed"
        assert ctrl.served_share == {}
        assert ctrl.fairness_sheds == 0


class TestFairShareEnforcement:
    #: both tenants declared up front — the fair fraction is computed
    #: over known tenants, exactly how the scenario wires it
    WEIGHTS = {"burst": 1.0, "steady": 1.0}

    def _hog(self, ctrl, tenant="burst", n=5):
        for _ in range(n):
            assert ctrl.admit(0.0, 0.0, 1.0, _Loop(),
                              tenant=tenant) == "serve"

    def test_over_share_tenant_is_shed_under_pressure_even_if_it_fits(self):
        ctrl = TenantFairnessController(weights=self.WEIGHTS)
        _warm(ctrl, 0.1)
        self._hog(ctrl)                       # burst owns the ledger
        assert ctrl.over_share("burst")
        # wait 0.2 > pressure * slo 0.15, yet the request alone would fit
        verdict = ctrl.admit(0.0, 0.2, 0.3, _Loop(), tenant="burst")
        assert verdict == "shed"
        assert ctrl.fairness_sheds == 1

    def test_within_share_tenant_is_served_under_the_same_pressure(self):
        ctrl = TenantFairnessController(weights=self.WEIGHTS)
        _warm(ctrl, 0.05)   # small enough to still fit at wait 0.2
        self._hog(ctrl)
        assert not ctrl.over_share("steady")
        assert ctrl.admit(0.0, 0.2, 0.3, _Loop(),
                          tenant="steady") == "serve"

    def test_no_pressure_no_fairness_shed(self):
        """Off-pressure the burster is triaged on its deadline alone."""
        ctrl = TenantFairnessController(weights=self.WEIGHTS)
        _warm(ctrl, 0.1)
        self._hog(ctrl)
        assert ctrl.admit(0.0, 0.0, 0.3, _Loop(),
                          tenant="burst") == "serve"
        assert ctrl.fairness_sheds == 0

    def test_weights_shift_the_fair_fraction(self):
        ctrl = TenantFairnessController(weights={"gold": 3.0,
                                                 "bronze": 1.0})
        assert ctrl._fair_fraction("gold") == pytest.approx(0.75)
        assert ctrl._fair_fraction("bronze") == pytest.approx(0.25)

    def test_ledger_decays_so_past_bursts_are_forgiven(self):
        ctrl = TenantFairnessController(weights=self.WEIGHTS)
        _warm(ctrl, 0.1)
        self._hog(ctrl)
        assert ctrl.over_share("burst")
        # the other tenant serves a little, then ticks decay the ledger
        ctrl.admit(0.0, 0.0, 1.0, _Loop(), tenant="steady")
        for _ in range(8):
            ctrl.update(_Snap(0.1), _Loop())
            ctrl.admit(0.0, 0.0, 1.0, _Loop(), tenant="steady")
        assert not ctrl.over_share("burst")
