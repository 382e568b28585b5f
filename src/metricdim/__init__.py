"""Exact metric dimension and edge metric dimension toolkit.

Solvers for both dimensions of connected graphs, constructors for the
gadget families that realize any prescribed (dim, edim) pair, a graph6
codec, and predicate scans over exhaustive graph streams.
"""

from .graph import (
    DisconnectedGraph,
    DuplicateEdge,
    Graph,
    GraphError,
    SelfLoop,
    add_edge,
    cartesian_product,
    disjoint_union,
)
from .solver import (
    InstanceTooLarge,
    ResolveResult,
    edge_metric_dimension,
    edge_metric_dimension_naive,
    is_edge_metric_generator,
    is_metric_generator,
    metric_dimension,
    metric_dimension_naive,
    resolution_vector,
)
from .families import (
    EqualDimensionsUnsupported,
    InvalidParams,
    InvalidTarget,
    OrderTooSmall,
    canonical_basis,
    chain_order,
    gadget_order,
    glue,
    make_chain,
    make_complete,
    make_cycle,
    make_gadget,
    make_path,
    minimum_realizable_order,
    parse_family_spec,
    realize,
)
from .graph6 import (
    Graph6Error,
    GraphTooLarge,
    MalformedHeader,
    NonPrintableByte,
    PaddingBitsSet,
    TrailingData,
    TruncatedBitVector,
    decode_graph6,
    encode_graph6,
    record_lines,
)
from .scan import (
    OrderTooLarge,
    Predicate,
    ScanMatch,
    ScanReport,
    enumerate_labeled_connected,
    scan,
    verify_small_orders,
)
from .verify import ratio_witness

__version__ = "0.1.0"
