"""Communication topology.

By default every node can talk to every other node.  The privacy-firewall
deployment restricts communication so that confidential state can only leave
the execution cluster through a column of filters:

* clients  <->  agreement nodes,
* agreement nodes  <->  bottom filter row (row 0),
* filter row ``i``  <->  filter row ``i + 1``,
* top filter row  <->  execution nodes.

Attempting to send over a non-existent link raises :class:`TopologyError`,
which is how the simulation enforces the paper's physical-wiring requirement.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from ..errors import TopologyError
from ..util.ids import NodeId


class Topology:
    """Set of allowed (unordered) communication links."""

    def __init__(self, fully_connected: bool = True) -> None:
        self._fully_connected = fully_connected
        #: node -> the nodes it shares a link with (links are unordered, so
        #: each one is entered under both of its ends)
        self._adjacent: Dict[NodeId, Set[NodeId]] = {}
        self._nodes: Set[NodeId] = set()

    @property
    def fully_connected(self) -> bool:
        return self._fully_connected

    @property
    def nodes(self) -> FrozenSet[NodeId]:
        return frozenset(self._nodes)

    def add_node(self, node: NodeId) -> None:
        """Register a node (mostly useful for restricted topologies)."""
        self._nodes.add(node)

    def add_link(self, a: NodeId, b: NodeId) -> None:
        """Allow bidirectional communication between ``a`` and ``b``."""
        if a == b:
            return
        self._nodes.add(a)
        self._nodes.add(b)
        self._adjacent.setdefault(a, set()).add(b)
        self._adjacent.setdefault(b, set()).add(a)

    def add_links(self, group_a: Iterable[NodeId], group_b: Iterable[NodeId]) -> None:
        """Allow every node in ``group_a`` to talk to every node in ``group_b``."""
        group_b_list = list(group_b)
        for a in group_a:
            for b in group_b_list:
                self.add_link(a, b)

    def allows(self, a: NodeId, b: NodeId) -> bool:
        """Return True iff ``a`` and ``b`` share a physical link."""
        return (self._fully_connected or b in self._adjacent.get(a, ())
                or a == b)

    def check(self, a: NodeId, b: NodeId) -> None:
        """Raise :class:`TopologyError` if ``a`` may not talk to ``b``."""
        if not self.allows(a, b):
            raise TopologyError(f"no physical link between {a} and {b}")

    def neighbours(self, node: NodeId) -> List[NodeId]:
        """All nodes sharing a link with ``node`` (restricted topologies only)."""
        if self._fully_connected:
            return [other for other in sorted(self._nodes) if other != node]
        return sorted(self._adjacent.get(node, ()))

    # ------------------------------------------------------------------ #
    # Builders.
    # ------------------------------------------------------------------ #

    @staticmethod
    def full() -> "Topology":
        """Fully connected topology (no restriction)."""
        return Topology(fully_connected=True)

    @staticmethod
    def privacy_firewall(clients: Iterable[NodeId],
                         agreement: Iterable[NodeId],
                         firewall_rows: List[List[NodeId]],
                         execution: Iterable[NodeId]) -> "Topology":
        """Restricted topology for the privacy-firewall deployment.

        ``firewall_rows[0]`` is the bottom row (adjacent to agreement nodes);
        ``firewall_rows[-1]`` is the top row (adjacent to execution nodes).
        When the bottom row is co-located with agreement nodes the caller
        simply passes the same node ids in both collections; self-links are
        always allowed.
        """
        topo = Topology(fully_connected=False)
        clients = list(clients)
        agreement = list(agreement)
        execution = list(execution)
        for node in clients + agreement + execution:
            topo.add_node(node)
        for row in firewall_rows:
            for node in row:
                topo.add_node(node)

        # Clients talk to agreement nodes only.
        topo.add_links(clients, agreement)
        # Agreement nodes talk among themselves (three-phase protocol).
        topo.add_links(agreement, agreement)

        if not firewall_rows:
            # Degenerate case: no firewall; agreement talks to execution.
            topo.add_links(agreement, execution)
        else:
            topo.add_links(agreement, firewall_rows[0])
            for lower, upper in zip(firewall_rows, firewall_rows[1:]):
                topo.add_links(lower, upper)
            topo.add_links(firewall_rows[-1], execution)

        # Execution nodes talk among themselves (state transfer, checkpoints).
        topo.add_links(execution, execution)
        return topo

    @staticmethod
    def separate_clusters(clients: Iterable[NodeId],
                          agreement: Iterable[NodeId],
                          execution: Iterable[NodeId],
                          allow_client_execution: bool = True) -> "Topology":
        """Topology for the separated architecture without a firewall.

        The optimisation in which execution nodes reply directly to clients
        requires client<->execution links; pass ``allow_client_execution=False``
        to force replies through the agreement cluster.
        """
        topo = Topology(fully_connected=False)
        clients = list(clients)
        agreement = list(agreement)
        execution = list(execution)
        topo.add_links(clients, agreement)
        topo.add_links(agreement, agreement)
        topo.add_links(agreement, execution)
        topo.add_links(execution, execution)
        if allow_client_execution:
            topo.add_links(clients, execution)
        return topo
