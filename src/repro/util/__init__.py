"""Small shared utilities: node identifiers, the byte form of values, quorum math."""

from .ids import NodeId, Role, make_node_id
from .encoding import canonical_encode, estimate_size
from .quorum import (
    agreement_cluster_size,
    agreement_quorum,
    execution_cluster_size,
    reply_quorum,
    firewall_grid_size,
    has_quorum,
)

__all__ = [
    "NodeId",
    "Role",
    "make_node_id",
    "canonical_encode",
    "estimate_size",
    "agreement_cluster_size",
    "agreement_quorum",
    "execution_cluster_size",
    "reply_quorum",
    "firewall_grid_size",
    "has_quorum",
]
