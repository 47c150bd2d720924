"""Key management for the simulated cryptographic substrate.

The :class:`Keystore` plays the role of the key-distribution assumptions in
Section 2 of the paper:

* every node has a private key that no other node knows,
* every pair of nodes shares a MAC secret that no third node knows,
* a threshold group of ``n`` members has a split group key of which each
  member holds one share; any ``k`` shares produce the group signature.

The keystore is trusted infrastructure of the *simulation*, not of the
protocol: protocol code only touches it through a per-node
:class:`~repro.crypto.provider.CryptoProvider`, which exposes exactly the
operations the paper's trust model allows that node to perform.  Byzantine
nodes therefore cannot forge other nodes' authenticators, matching the
assumption that cryptography is not subverted.

Every key is a pure function of the master secret and of names, so each is
derived the first time somebody asks for it and remembered: a pair secret
costs three derivation MACs once per pair, not once per message.  Nothing is
derived ahead of use -- a peer is registered by the first request that
involves it -- so building a deployment derives only the keys it asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..errors import CryptoError, UnknownKeyError
from ..util.ids import NodeId
from .digest import mac


def _derive(master: bytes, *labels: str) -> bytes:
    """Derive a sub-key from ``master`` and a label path."""
    material = master
    for label in labels:
        material = mac(material, label.encode("utf-8"))
    return material


@dataclass(frozen=True)
class ThresholdGroup:
    """Description of a (k, n) threshold-signature group."""

    name: str
    members: FrozenSet[NodeId]
    threshold: int
    group_key: bytes = field(repr=False)
    _shares: Dict[NodeId, bytes] = field(default_factory=dict, init=False,
                                         repr=False, compare=False)

    def share_key(self, member: NodeId) -> bytes:
        """The signing share held by ``member``."""
        share = self._shares.get(member)
        if share is None:
            if member not in self.members:
                raise UnknownKeyError(
                    f"{member} is not a member of threshold group {self.name}")
            share = self._shares[member] = _derive(self.group_key, "share", member.name)
        return share


class Keystore:
    """Central registry of private keys, pairwise secrets, and threshold groups."""

    def __init__(self, master_secret: bytes = b"repro-master-secret") -> None:
        self._master = master_secret
        self._nodes: Dict[NodeId, bytes] = {}
        #: pair secrets by the two names, stored under both orders
        self._pairs: Dict[Tuple[str, str], bytes] = {}
        self._groups: Dict[str, ThresholdGroup] = {}

    # ------------------------------------------------------------------ #
    # Node keys.
    # ------------------------------------------------------------------ #

    def register_node(self, node: NodeId) -> None:
        """Create the private key for ``node`` (idempotent)."""
        if node not in self._nodes:
            self._nodes[node] = _derive(self._master, "node", node.name)

    def is_registered(self, node: NodeId) -> bool:
        return node in self._nodes

    def private_key(self, node: NodeId) -> bytes:
        """Private signing key of ``node`` (simulation-internal)."""
        try:
            return self._nodes[node]
        except KeyError:
            raise UnknownKeyError(f"node {node} has no registered key") from None

    def pair_secret(self, a: NodeId, b: NodeId) -> bytes:
        """Shared MAC secret between ``a`` and ``b`` (order-independent).

        Nodes are registered lazily: asking for a pair secret that involves a
        not-yet-registered peer simply provisions that peer's key material, the
        same way a real deployment distributes shared secrets ahead of time.
        """
        secret = self._pairs.get((a.name, b.name))
        if secret is None:
            self.register_node(a)
            self.register_node(b)
            first, second = sorted((a, b))
            secret = _derive(self._master, "pair", first.name, second.name)
            self._pairs[a.name, b.name] = self._pairs[b.name, a.name] = secret
        return secret

    # ------------------------------------------------------------------ #
    # Threshold groups.
    # ------------------------------------------------------------------ #

    def create_threshold_group(self, name: str, members: Iterable[NodeId],
                               threshold: int) -> ThresholdGroup:
        """Create (or return the identical existing) threshold group ``name``."""
        members_set = frozenset(members)
        if threshold < 1 or threshold > len(members_set):
            raise CryptoError(
                f"threshold {threshold} is not in [1, {len(members_set)}] for group {name}"
            )
        for member in members_set:
            self.register_node(member)
        existing = self._groups.get(name)
        if existing is not None:
            if existing.members != members_set or existing.threshold != threshold:
                raise CryptoError(f"threshold group {name} already exists with different parameters")
            return existing
        group = self._groups[name] = ThresholdGroup(
            name=name,
            members=members_set,
            threshold=threshold,
            group_key=_derive(self._master, "group", name),
        )
        return group

    def threshold_group(self, name: str) -> ThresholdGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise UnknownKeyError(f"unknown threshold group {name}") from None

    def has_threshold_group(self, name: str) -> bool:
        return name in self._groups
