"""Murmuration core: SLO API, strategies, decision engines, the plan cost
model, strategy cache, and the system facade."""

from .cost_model import PlanCostModel
from .decision import DecisionRecord, RLDecisionEngine, SearchDecisionEngine
from .murmuration import BatchInferenceResult, InferenceRecord, Murmuration
from .slo import SLO
from .strategy import Strategy
from .strategy_cache import StrategyCache

__all__ = [
    "SLO",
    "Strategy",
    "StrategyCache",
    "PlanCostModel",
    "DecisionRecord",
    "RLDecisionEngine",
    "SearchDecisionEngine",
    "Murmuration",
    "InferenceRecord",
    "BatchInferenceResult",
]
