"""Evaluation drivers: scenarios, the Murmuration strategy oracle,
per-figure experiments and text reporting."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "experiments": ("MethodPoint", "fig13_augmented_accuracy",
                    "fig14_swarm_accuracy", "fig15_accuracy_slo_latency",
                    "fig16a_compliance_augmented", "fig16b_compliance_swarm",
                    "fig17_scalability", "fig18_search_time",
                    "fig19_switch_time"),
    "adaptive": ("AdaptiveConfig", "burst_arrival_process"),
    "chaos": ("ChaosConfig", "chaos_crash_schedule"),
    "mesh_chaos": ("MeshChaosConfig", "build_mesh", "mesh_chaos_schedule"),
    "serving_load": ("ServingLoadConfig",),
    "event_core": ("EventCoreConfig",),
    "multi_tenant": ("MultiTenantConfig", "TenantSpec", "default_tenants",
                     "tenant_arrivals"),
    "murmuration_method": ("MurmurationOracle", "lattice_archs",
                           "policy_method"),
    "replay": ("format_replay", "load_recordings", "replay_reports",
               "replay_stats", "rerecord", "verify_invariants"),
    "runner": ("SCENARIOS", "ScenarioReport", "build_world", "format_reports",
               "run_scenario", "run_world"),
    "scenarios": ("augmented_devices", "swarm_devices", "augmented_cluster",
                  "swarm_cluster"),
    "reporting": ("format_accuracy_grid", "format_latency_grid",
                  "format_compliance", "format_scalability",
                  "format_search_time", "format_switch_time",
                  "accuracy_grid_to_csv", "compliance_to_csv"),
    "training_curves": ("run_training_curves", "format_training_curves"),
})
