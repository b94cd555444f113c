"""The controllers: small feedback rules over ControlSnapshot signals.

Each controller owns one knob of the serving stack and follows the same
discipline (after the runtime managers of Xun et al., DATE'24):

* act only on *observed* signals from the snapshot — never on ground
  truth the deployment could not see;
* move multiplicatively inside hard clamps, with a hysteresis dead band
  between the "push up" and "push down" thresholds so a noisy signal
  cannot flip the knob every tick.

``update(snapshot, loop)`` returns a human-readable description of the
adjustment made, or None when the controller held still; descriptions
land in the :class:`~repro.control.loop.ControlLoop` action log and the
``control_actions_total`` telemetry counter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Annotated, Dict, List, Optional, Tuple

from .. import Finite, Positive, check_fields
from ..netsim.topology import NetworkCondition

__all__ = ["Controller", "BatchPolicyController", "AdmissionController",
           "TenantFairnessController", "PrecomputeScheduler"]


class Controller:
    """Base contract: a name and an ``update`` hook per tick."""

    name = "controller"

    def update(self, snapshot, loop) -> Optional[str]:
        raise NotImplementedError


class BatchPolicyController(Controller):
    """Adapts ``BatchPolicy.max_batch`` from backlog and p95 headroom.

    Backlog deeper than ``depth_per_slot`` (2) x the current cap means
    the pipeline is not draining: double the cap (larger batches
    amortize more decisions per simulated second), up to ``max_batch``.
    A near-empty queue *and* the window's p95 end-to-end latency (the
    report's: sheds left out) under ``headroom`` (half) the SLO means
    batching is buying nothing but queueing delay: halve the cap back
    down, to ``min_batch`` at least.  The dead band between the two
    conditions prevents flapping.
    """

    name = "batch-policy"

    min_batch = 1
    #: a modest cap: per-item execution dominates the decision cost, so
    #: giant batches would trade a few amortized decision milliseconds
    #: for serialization delay that blows deadlines
    max_batch = 8
    depth_per_slot = 2.0
    headroom = 0.5

    def update(self, snapshot, loop) -> Optional[str]:
        server = loop.server
        policy = getattr(server, "policy", None)
        if policy is None:
            return None  # not steering a batching server
        cap = policy.max_batch
        if snapshot.queue_depth > self.depth_per_slot * cap:
            new = min(cap * 2, self.max_batch)
            if new == cap:
                return None
            server.policy = replace(policy, max_batch=new)
            return (f"grow max_batch {cap}->{new} "
                    f"(backlog {snapshot.queue_depth})")
        if (snapshot.queue_depth > cap // 4 or snapshot.slo_s is None
                or not snapshot.window.records):
            return None
        p95_ms = snapshot.window.percentile_ms(95)
        if p95_ms < self.headroom * snapshot.slo_s * 1e3:
            new = max(cap // 2, self.min_batch)
            if new == cap:
                return None
            server.policy = replace(policy, max_batch=new)
            return (f"shrink max_batch {cap}->{new} "
                    f"(p95 {p95_ms:.0f}ms under "
                    f"{self.headroom:.0%} of SLO)")
        return None


class AdmissionController(Controller):
    """Sheds or degrades requests whose queue wait will blow the SLO.

    Keeps an EWMA of per-request *full* service time (decision + switch
    + inference) from the snapshot windows; the degraded service cost
    comes from the runtime's own min-strategy estimate.  Per request,
    the server asks :meth:`admit` with the request's arrival and
    predicted dispatch time (``wait = start - arrival``; with a shared
    ingress attached the wait already includes the upload time the
    fluid ledger predicted, so the triage below prices uplink
    congestion without knowing how it was priced):

    * ``wait + full service <= margin x SLO`` -> ``"serve"``: the real
      answer still makes its deadline;
    * else ``wait + degraded service <= margin x SLO`` ->
      ``"degrade"``: only the cheap answer makes it — a min-submodel
      result now beats a full result too late;
    * else -> ``"shed"``: nothing can make this deadline, and serving
      it anyway pushes every later request further past its own.

    ``margin`` (0.85) reserves budget for what the prediction cannot
    see: batch-mate serialization and service-time variance.  The EWMA
    weighs each new window by ``ewma_alpha`` (0.3).  Until the first
    window of completed requests arrives the estimate is unknown and
    everything is admitted — the controller only acts on evidence.
    """

    name = "admission"

    margin = 0.85
    ewma_alpha = 0.3

    def __init__(self):
        self.service_estimate_s = 0.0
        self.shed = 0
        self.degraded = 0

    def update(self, snapshot, loop) -> Optional[str]:
        mean = snapshot.window.mean_service_s
        if mean > 0.0:
            prev = self.service_estimate_s
            self.service_estimate_s = (
                mean if prev == 0.0
                else self.ewma_alpha * mean + (1 - self.ewma_alpha) * prev)
        return None  # acts per request via admit(), not per tick

    def _triage(self, wait: float, slo_s: float, loop) -> Tuple[str, float]:
        """The deadline triage: the verdict and the service seconds it
        admits (0.0 for a shed)."""
        est = self.service_estimate_s
        budget = self.margin * slo_s - wait
        if est <= budget:
            return "serve", est
        est_min = (loop.system.min_strategy().expected_latency_s
                   if loop.system is not None else est)
        if est_min <= budget:
            self.degraded += 1
            return "degrade", est_min
        self.shed += 1
        return "shed", 0.0

    def admit(self, arrival: float, start: float, slo_s: float,
              loop, tenant: Optional[str] = None) -> str:
        # tenant-blind by design: every request is triaged on its own
        # deadline alone (TenantFairnessController adds the budgets)
        if self.service_estimate_s <= 0.0:
            return "serve"  # no evidence yet
        return self._triage(start - arrival, slo_s, loop)[0]


class TenantFairnessController(AdmissionController):
    """Per-tenant SLO budgets at admission: weighted shed/degrade.

    The plain :class:`AdmissionController` triages each request on its
    own deadline, which is throughput-optimal but fairness-blind: when
    one tenant bursts, its requests fill the queue first and the other
    tenants' requests are the ones that arrive behind a hopeless
    backlog and get shed — the bursting tenant starves the rest.

    This controller keeps a decayed ledger of *admitted service
    seconds* per tenant.  Each tenant owns a weighted fair fraction of
    that ledger (``weights``; unnamed tenants weigh 1).  Under queue
    pressure (predicted wait beyond ``pressure`` (half) the SLO), a
    request from a tenant consuming more than ``tolerance`` (1.2) x its
    fair share is shed *even if it individually fits* — throttling the
    burster to roughly its share, so the well-behaved tenants' requests
    stop dying in the queue behind it.  Off-pressure, or for tenants within their share,
    triage is the standard serve/degrade/shed on the deadline.

    The ledger decays by ``decay`` (30 %) per control tick, so a
    tenant's past burst stops counting against it within a few ticks of
    good behaviour — budgets are rate-shaped, not grudges.  Untagged
    requests (``tenant=None``) are triaged deadline-only; the
    controller acts on evidence exactly like the plain admission rule
    (everything is admitted until the first completed-request window),
    whose service estimate and triage it inherits.
    """

    name = "tenant-fairness"

    weights: Annotated[Dict[str, float], Finite, Positive]
    pressure = 0.5
    tolerance = 1.2
    decay = 0.3

    def __init__(self, weights: Optional[Dict[str, float]] = None):
        self.weights = dict(weights) if weights else {}
        check_fields(self)
        super().__init__()
        #: decayed admitted-service seconds per tenant (the ledger)
        self.served_share: Dict[str, float] = {}
        self.shed_by_tenant: Dict[str, int] = {}
        self.degraded_by_tenant: Dict[str, int] = {}
        #: sheds issued specifically to enforce the fair share
        self.fairness_sheds = 0

    def update(self, snapshot, loop) -> Optional[str]:
        super().update(snapshot, loop)
        for tenant in self.served_share:
            self.served_share[tenant] *= (1.0 - self.decay)
        return None  # acts per request via admit(), not per tick

    def _fair_fraction(self, tenant: str) -> float:
        """The ledger fraction ``tenant`` is entitled to."""
        known = set(self.served_share) | set(self.weights) | {tenant}
        total = sum(self.weights.get(k, 1.0) for k in known)
        return self.weights.get(tenant, 1.0) / total

    def over_share(self, tenant: str) -> bool:
        """Is ``tenant`` past ``tolerance`` x its weighted fair share?"""
        total = sum(self.served_share.values())
        if total <= 0.0:
            return False
        used = self.served_share.get(tenant, 0.0) / total
        return used > self.tolerance * self._fair_fraction(tenant)

    def _charge(self, tenant: Optional[str], service_s: float) -> None:
        if tenant is not None and service_s > 0.0:
            self.served_share[tenant] = (
                self.served_share.get(tenant, 0.0) + service_s)

    def _count(self, book: Dict[str, int], tenant: Optional[str]) -> None:
        if tenant is not None:
            book[tenant] = book.get(tenant, 0) + 1

    def admit(self, arrival: float, start: float, slo_s: float,
              loop, tenant: Optional[str] = None) -> str:
        if self.service_estimate_s <= 0.0:
            return "serve"  # no evidence yet
        wait = start - arrival
        if (tenant is not None and wait > self.pressure * slo_s
                and self.over_share(tenant)):
            # The queue is pressured and this tenant is eating more
            # than its share: shedding *its* request is what frees the
            # seat a within-share tenant's request would otherwise lose.
            self.shed += 1
            self.fairness_sheds += 1
            self._count(self.shed_by_tenant, tenant)
            return "shed"
        verdict, service_s = self._triage(wait, slo_s, loop)
        self._charge(tenant, service_s)  # a shed admits 0.0: no charge
        if verdict != "serve":
            self._count(self.shed_by_tenant if verdict == "shed"
                        else self.degraded_by_tenant, tenant)
        return verdict


class PrecomputeScheduler(Controller):
    """Warms the strategy cache toward where the condition is drifting.

    Tracks the monitor's smoothed estimate tick over tick, extrapolates
    the per-link drift ``horizon_s`` (2 s) ahead, and asks the facade to
    precompute strategies for the ``max_cells`` (2) extrapolated cells:
    the horizon and its midpoint, so a fast drift cannot step over a
    cell.  Precompute uses ``peek()`` and charges no simulated time — it
    models background work on the gateway's idle cycles — so its only
    observable effect is future hits.  Holds still when the drift is
    smaller than ``min_drift`` (2 %) of the current value per tick
    (noise, not movement).
    """

    name = "precompute"

    horizon_s = 2.0
    min_drift = 0.02
    max_cells = 2

    def __init__(self):
        self.computed = 0
        self._prev: Optional[NetworkCondition] = None
        self._prev_t: Optional[float] = None

    def update(self, snapshot, loop) -> Optional[str]:
        system = loop.system
        cond = snapshot.condition
        if system is None or cond is None:
            return None
        prev, prev_t = self._prev, self._prev_t
        self._prev, self._prev_t = cond, snapshot.t
        if prev is None or snapshot.t <= prev_t:
            return None
        dt = snapshot.t - prev_t
        bw_rates = [(b - pb) / dt for b, pb in
                    zip(cond.bandwidths_mbps, prev.bandwidths_mbps)]
        dl_rates = [(d - pd) / dt for d, pd in
                    zip(cond.delays_ms, prev.delays_ms)]
        drift = max(
            [abs(r) * dt / max(b, 1e-9)
             for r, b in zip(bw_rates, cond.bandwidths_mbps)]
            + [abs(r) * dt / max(d, 1e-9)
               for r, d in zip(dl_rates, cond.delays_ms)])
        if drift < self.min_drift:
            return None
        targets: List[NetworkCondition] = []
        for k in range(1, self.max_cells + 1):
            ahead = self.horizon_s * k / self.max_cells
            targets.append(NetworkCondition(
                tuple(max(b + r * ahead, 1e-3)
                      for b, r in zip(cond.bandwidths_mbps, bw_rates)),
                tuple(max(d + r * ahead, 1e-3)
                      for d, r in zip(cond.delays_ms, dl_rates))))
        computed = system.precompute(targets)
        if computed == 0:
            return None  # every extrapolated cell was already warm
        self.computed += computed
        return (f"precomputed {computed} strategies "
                f"{self.horizon_s:g}s ahead (drift {drift:.1%}/tick)")
