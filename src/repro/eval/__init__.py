"""Evaluation drivers: scenarios, the Murmuration strategy oracle,
per-figure experiments and text reporting."""

from .experiments import (
    MethodPoint,
    fig13_augmented_accuracy,
    fig14_swarm_accuracy,
    fig15_accuracy_slo_latency,
    fig16a_compliance_augmented,
    fig16b_compliance_swarm,
    fig17_scalability,
    fig18_search_time,
    fig19_switch_time,
)
from .adaptive import AdaptiveConfig, burst_arrival_process
from .chaos import ChaosConfig, chaos_crash_schedule
from .event_core import EventCoreConfig
from .mesh_chaos import MeshChaosConfig, build_mesh, mesh_chaos_schedule
from .multi_tenant import (
    MultiTenantConfig,
    TenantSpec,
    default_tenants,
    tenant_arrivals,
)
from .murmuration_method import MurmurationOracle, lattice_archs, policy_method
from .replay import (
    format_replay,
    load_recordings,
    replay_reports,
    replay_stats,
    rerecord,
    verify_invariants,
)
from .runner import (
    SCENARIOS,
    ScenarioReport,
    build_world,
    format_reports,
    run_scenario,
    run_world,
)
from .serving_load import ServingLoadConfig
from .reporting import (
    accuracy_grid_to_csv,
    compliance_to_csv,
    format_accuracy_grid,
    format_compliance,
    format_latency_grid,
    format_scalability,
    format_search_time,
    format_switch_time,
)
from .training_curves import format_training_curves, run_training_curves
from .scenarios import (
    augmented_cluster,
    augmented_devices,
    swarm_cluster,
    swarm_devices,
)

__all__ = [
    "MethodPoint",
    "fig13_augmented_accuracy",
    "fig14_swarm_accuracy",
    "fig15_accuracy_slo_latency",
    "fig16a_compliance_augmented",
    "fig16b_compliance_swarm",
    "fig17_scalability",
    "fig18_search_time",
    "fig19_switch_time",
    "AdaptiveConfig",
    "burst_arrival_process",
    "ChaosConfig",
    "chaos_crash_schedule",
    "MeshChaosConfig",
    "build_mesh",
    "mesh_chaos_schedule",
    "ServingLoadConfig",
    "EventCoreConfig",
    "MultiTenantConfig",
    "TenantSpec",
    "default_tenants",
    "tenant_arrivals",
    "MurmurationOracle",
    "lattice_archs",
    "policy_method",
    "format_replay",
    "load_recordings",
    "replay_reports",
    "replay_stats",
    "rerecord",
    "verify_invariants",
    "SCENARIOS",
    "ScenarioReport",
    "build_world",
    "format_reports",
    "run_scenario",
    "run_world",
    "augmented_devices",
    "swarm_devices",
    "augmented_cluster",
    "swarm_cluster",
    "format_accuracy_grid",
    "format_latency_grid",
    "format_compliance",
    "format_scalability",
    "format_search_time",
    "format_switch_time",
    "run_training_curves",
    "format_training_curves",
    "accuracy_grid_to_csv",
    "compliance_to_csv",
]
