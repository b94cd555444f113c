"""Murmuration core: SLO API, strategies, decision engines, the plan cost
model, strategy cache, and the system facade."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "slo": ("SLO",),
    "strategy": ("Strategy",),
    "strategy_cache": ("StrategyCache",),
    "cost_model": ("PlanCostModel",),
    "decision": ("DecisionRecord", "RLDecisionEngine", "SearchDecisionEngine"),
    "murmuration": ("Murmuration", "InferenceRecord", "BatchInferenceResult"),
})
