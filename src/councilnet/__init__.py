"""Council-based clustering and threshold secret sharing for modeled ad hoc networks."""

from .audit import AuditResult, audit_secrecy
from .errors import (
    CouncilNetError,
    DisconnectedTopology,
    DuplicateNid,
    DuplicateX,
    IncompleteShareSet,
    InsufficientShares,
    InvalidCouncilSize,
    InvalidDominatingSet,
    MixedEpoch,
    ParseError,
    UnknownCluster,
    UnknownNode,
    ValidationError,
    ZeroX,
)
from .graph import (
    Topology,
    TwoHopView,
    build_topology,
    is_clique,
    is_connected,
    is_dominating_set,
    move_nodes,
    neighbors,
    topology_from_edges,
    triangles,
    two_hop_view,
)
from .maintenance import (
    ClusterHealth,
    MaintenanceAction,
    apply_departures,
    baseline_health,
    classify_change,
    handle_departure,
    handle_visitor,
    reform,
)
from .phase1 import (
    DominatingSet,
    Role,
    build_dominating_set,
    elect_heads,
    identify_gateways,
    node_states,
)
from .phase2 import (
    Cluster,
    Council,
    Partition,
    cluster_form,
    find_council_clique,
    verify_partition,
)
from .scenario import Scenario, load_scenario
from .shamir import (
    DEFAULT_PRIME,
    Share,
    choose_threshold,
    issue_share,
    reconstruct,
    refresh_shares,
    split_secret,
)
from .sim import (
    MetricsReport,
    MetricsRow,
    SimState,
    compromise,
    initialize,
    run,
    step,
)

__version__ = "0.1.0"
