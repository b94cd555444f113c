"""Network simulation: links, cluster topology, evaluation grids,
dynamic traces, and the monitoring subsystem."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "fluid": ("FlowSpec", "FluidSegment", "FluidTracker", "solve_fluid"),
    "contention": ("SharedIngress",),
    "link": ("Link", "LOOPBACK"),
    "mesh": ("MeshCluster", "MeshLink", "RouteInfo", "line_topology",
             "partial_mesh_topology", "ring_topology"),
    "topology": ("Cluster", "NetworkCondition"),
    "monitor": ("NetworkMonitor", "Measurement"),
    "traces": ("TraceConfig", "random_walk_trace", "step_trace",
               "mobility_trace"),
    "grids": ("AUGMENTED_BANDWIDTHS", "AUGMENTED_DELAYS", "SWARM_BANDWIDTHS",
              "SWARM_DELAY", "augmented_conditions", "swarm_conditions",
              "training_grid", "validation_conditions"),
})
