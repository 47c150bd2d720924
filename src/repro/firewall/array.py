"""Construction of the privacy-firewall filter array.

The array has ``h + 1`` rows of ``h + 1`` columns.  Row 0 (the bottom row)
communicates with the agreement cluster; the top row communicates with the
execution cluster; each row communicates only with the rows directly above
and below it.  The paper notes the bottom row can be merged onto the
agreement machines when there are enough of them -- the array records that
co-location for machine counting, but bottom-row filters remain distinct
protocol participants.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import SystemConfig
from ..crypto.keys import Keystore
from ..sim.scheduler import Scheduler
from ..util.ids import NodeId, Role, firewall_id
from .filter_node import FilterNode


class FirewallArray:
    """The ``(h + 1) x (h + 1)`` grid of filter nodes."""

    def __init__(self, config: SystemConfig, scheduler: Scheduler, keystore: Keystore,
                 agreement_ids: List[NodeId], execution_ids: List[NodeId],
                 client_ids: List[NodeId], threshold_group: str) -> None:
        if not config.use_privacy_firewall:
            raise ValueError("FirewallArray requires use_privacy_firewall=True")
        self.config = config
        self.rows: List[List[FilterNode]] = []
        self.row_ids: List[List[NodeId]] = [
            [firewall_id(row, column) for column in range(config.firewall_columns)]
            for row in range(config.firewall_rows)
        ]
        for row_index in range(config.firewall_rows):
            below = (list(agreement_ids) if row_index == 0
                     else list(self.row_ids[row_index - 1]))
            above = (list(execution_ids) if row_index == config.firewall_rows - 1
                     else list(self.row_ids[row_index + 1]))
            row_nodes = [
                FilterNode(
                    node_id=node_id, scheduler=scheduler, config=config,
                    keystore=keystore, row=row_index, below=below, above=above,
                    agreement_ids=agreement_ids, execution_ids=execution_ids,
                    client_ids=client_ids, threshold_group=threshold_group,
                    is_top_row=(row_index == config.firewall_rows - 1),
                )
                for node_id in self.row_ids[row_index]
            ]
            self.rows.append(row_nodes)
        #: whether the bottom row shares machines with the agreement cluster
        self.bottom_row_colocated = len(agreement_ids) >= config.firewall_columns

    # ------------------------------------------------------------------ #
    # Accessors.
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> List[FilterNode]:
        """All filter nodes, bottom row first."""
        return [node for row in self.rows for node in row]

    @property
    def node_ids(self) -> List[NodeId]:
        return [node.node_id for node in self.nodes]

    @property
    def bottom_row_ids(self) -> List[NodeId]:
        """Filters adjacent to the agreement cluster (requests enter here)."""
        return list(self.row_ids[0])

    @property
    def top_row_ids(self) -> List[NodeId]:
        """Filters adjacent to the execution cluster (replies enter here)."""
        return list(self.row_ids[-1])

    def node_at(self, row: int, column: int) -> FilterNode:
        return self.rows[row][column]

    # ------------------------------------------------------------------ #
    # Fault injection helpers.
    # ------------------------------------------------------------------ #

    def crash(self, row: int, column: int) -> None:
        """Crash the filter at (row, column)."""
        self.node_at(row, column).crash()

    def correct_cut_exists(self, faulty: Optional[List[NodeId]] = None) -> bool:
        """Whether some row consists entirely of non-faulty filters."""
        faulty_set = set(faulty or [])
        for row in self.rows:
            if all(not node.crashed and node.node_id not in faulty_set for node in row):
                return True
        return False

    def correct_path_exists(self, faulty: Optional[List[NodeId]] = None) -> bool:
        """Whether a path of non-faulty filters connects bottom to top.

        Because every filter in a row connects to every filter in the adjacent
        rows, a correct path exists iff every row contains at least one
        correct filter.
        """
        faulty_set = set(faulty or [])
        for row in self.rows:
            if not any(not node.crashed and node.node_id not in faulty_set
                       for node in row):
                return False
        return True
