"""Node identifiers.

Every participant in the system -- clients, agreement replicas, execution
replicas, privacy-firewall filters, and the standalone unreplicated server
used as a baseline -- is identified by a :class:`NodeId`, a small immutable
value object that encodes the node's role and its index within its cluster.

Privacy-firewall filters additionally carry their row in the filter array
(row 0 is adjacent to the agreement cluster, the top row is adjacent to the
execution cluster); the index is the column within the row.

An id is consulted far more often than it is made: its name labels every MAC
vector entry and every charged digest, its hash keys every per-node table,
its order fixes every "deterministic signer order", and its *wire code*
stands for it in every frame and reply table (:mod:`repro.net.codec`).  All
four are pure functions of the three fields, so a :class:`NodeId` computes
them once, when it is constructed, and carries them beside the fields.

The wire code is one unsigned 32-bit number: the role's position in
:class:`Role` in the top four bits, ``row + 1`` (0 for no row) in the next
eight and the index in the low twenty.  It is a bijection between codes and
valid ids, so a decoder that reads a code rebuilds exactly the id that was
written (:func:`node_of_code`); an id outside those ranges has no code and
cannot be sent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Role(enum.Enum):
    """Functional role of a node in the deployment."""

    CLIENT = "client"
    AGREEMENT = "agreement"
    EXECUTION = "execution"
    FIREWALL = "firewall"
    SERVER = "server"  # unreplicated baseline server

    def short(self) -> str:
        return _SHORT[self._value_]


_SHORT = {"client": "C", "agreement": "A", "execution": "E", "firewall": "F",
          "server": "S"}
_ROLES = tuple(Role)
_ROLE_CODE = {role: position << 28 for position, role in enumerate(_ROLES)}
_MAX_ROW = 0xFE
_MAX_INDEX = 0xFFFFF


@dataclass(frozen=True)
class NodeId:
    """Immutable identifier for a protocol participant.

    The ordering (role, row, index) is arbitrary but total, which lets node
    ids be used as dictionary keys and sorted deterministically -- important
    for reproducible simulations.

    ``name`` is the human-readable form, e.g. ``A0``, ``E2``, ``F1.0``,
    ``C3``; it, the hash and the sort key are derived once (see the module
    docstring) and are not dataclass fields.
    """

    role: Role
    index: int
    row: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        # one comparison of the prebuilt, unique sort key: no tuple per call
        if other.__class__ is NodeId:
            return self._sort_key == other._sort_key
        return NotImplemented

    def __lt__(self, other: "NodeId") -> bool:
        if not isinstance(other, NodeId):
            return NotImplemented
        return self._sort_key < other._sort_key

    def __le__(self, other: "NodeId") -> bool:
        if not isinstance(other, NodeId):
            return NotImplemented
        return self._sort_key <= other._sort_key

    def __gt__(self, other: "NodeId") -> bool:
        if not isinstance(other, NodeId):
            return NotImplemented
        return self._sort_key > other._sort_key

    def __ge__(self, other: "NodeId") -> bool:
        if not isinstance(other, NodeId):
            return NotImplemented
        return self._sort_key >= other._sort_key

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("node index must be non-negative")
        if self.role is Role.FIREWALL and self.row is None:
            raise ValueError("firewall nodes must specify a row")
        if self.role is not Role.FIREWALL and self.row is not None:
            raise ValueError("only firewall nodes carry a row")
        self._derive()

    def _derive(self) -> None:
        """Compute what is read on every message from the three fields."""
        role, index, row = self.role, self.index, self.row
        short = role.short()
        derived = self.__dict__
        derived["name"] = f"{short}{index}" if row is None else f"{short}{row}.{index}"
        derived["_hash"] = hash((role, index, row))
        derived["_sort_key"] = (role._value_, -1 if row is None else row, index)
        in_range = index <= _MAX_INDEX and (row is None or 0 <= row <= _MAX_ROW)
        derived["_code"] = (_ROLE_CODE[role] | (0 if row is None else row + 1) << 20
                            | index) if in_range else None

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"NodeId({self.name})"


def node_of_code(code: int) -> NodeId:
    """The id whose wire code is ``code``; ``ValueError`` if there is none
    (a role position past :class:`Role`, or a row where the role has none
    or none where it needs one -- the last two by ``__post_init__``)."""
    position, row = code >> 28, (code >> 20) & 0xFF
    if position >= len(_ROLES):
        raise ValueError(f"no role at position {position}")
    return NodeId(_ROLES[position], code & _MAX_INDEX, None if row == 0 else row - 1)


def make_node_id(role: Role, index: int, row: Optional[int] = None) -> NodeId:
    """Convenience factory mirroring the :class:`NodeId` constructor."""
    return NodeId(role=role, index=index, row=row)


def agreement_id(index: int) -> NodeId:
    """Identifier of agreement replica ``index``."""
    return NodeId(Role.AGREEMENT, index)


def execution_id(index: int) -> NodeId:
    """Identifier of execution replica ``index``."""
    return NodeId(Role.EXECUTION, index)


def client_id(index: int) -> NodeId:
    """Identifier of client ``index``."""
    return NodeId(Role.CLIENT, index)


def firewall_id(row: int, column: int) -> NodeId:
    """Identifier of the privacy-firewall filter at ``(row, column)``.

    Row 0 is the bottom row (adjacent to, and possibly co-located with, the
    agreement cluster); the highest row is adjacent to the execution cluster.
    """
    return NodeId(Role.FIREWALL, column, row=row)


def server_id(index: int = 0) -> NodeId:
    """Identifier of the unreplicated baseline server."""
    return NodeId(Role.SERVER, index)
