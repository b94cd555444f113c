"""Network simulation: links, cluster topology, evaluation grids,
dynamic traces, and the monitoring subsystem."""

from .grids import (
    AUGMENTED_BANDWIDTHS,
    AUGMENTED_DELAYS,
    SWARM_BANDWIDTHS,
    SWARM_DELAY,
    augmented_conditions,
    swarm_conditions,
    training_grid,
    validation_conditions,
)
from .contention import SharedIngress
from .fluid import FlowSpec, FluidSegment, FluidTracker, solve_fluid
from .link import LOOPBACK, Link
from .mesh import (MeshCluster, MeshLink, RouteInfo, line_topology,
                   partial_mesh_topology, ring_topology)
from .monitor import Measurement, NetworkMonitor
from .topology import Cluster, NetworkCondition
from .traces import TraceConfig, mobility_trace, random_walk_trace, step_trace

__all__ = [
    "FlowSpec",
    "FluidSegment",
    "FluidTracker",
    "SharedIngress",
    "solve_fluid",
    "Link",
    "LOOPBACK",
    "MeshCluster",
    "MeshLink",
    "RouteInfo",
    "line_topology",
    "partial_mesh_topology",
    "ring_topology",
    "Cluster",
    "NetworkCondition",
    "NetworkMonitor",
    "Measurement",
    "TraceConfig",
    "random_walk_trace",
    "step_trace",
    "mobility_trace",
    "AUGMENTED_BANDWIDTHS",
    "AUGMENTED_DELAYS",
    "SWARM_BANDWIDTHS",
    "SWARM_DELAY",
    "augmented_conditions",
    "swarm_conditions",
    "training_grid",
    "validation_conditions",
]
