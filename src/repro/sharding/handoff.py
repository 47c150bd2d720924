"""A shard replica's range-handoff participant: the map-change cut.

A rebalancing map change reaches every cluster as a *marker* batch
occupying one shard-local sequence number, so the cut lands at a
deterministic point of each replica's own in-order execution.  Executing
the marker (deterministically a no-op if the change lost a race) bumps the
replica's epoch and, per moved key range:

* the *losing* replica extracts the range's state exactly as of the cut
  (execution is in-order, so its state is the agreed pre-cut prefix) and
  sends a :class:`~repro.sharding.messages.RangeHandoff` share -- range
  entries plus its client-dedup reply table -- to every replica of the
  gaining cluster;
* the *gaining* replica blocks execution past the marker until ``g + 1``
  matching source shares certify the moved state, installs it, merges the
  reply table timestamp-monotonically (so a request executed pre-cut is
  answered from the table, never re-executed -- exactly-once survives the
  cut), and resumes.  A blocked replica re-requests the handoff on a timer
  (:class:`~repro.sharding.messages.RangeFetch`), and a replica that missed
  the cut entirely catches up through the ordinary state-transfer path:
  checkpoints carry the epoch (and post-cut state) under their ``g + 1``
  proof.

The share protocol itself is :class:`~repro.sharding.cut.ShareExchange`'s.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..net.codec import decode_reply_table, encode_reply_table
from .cut import Item, ShareExchange
from .messages import MapChange, RangeFetch, RangeHandoff, handoff_payload
from .rebalance import apply_map_change

#: (epoch, lo, hi) identifying one moved key range
RangeKey = Tuple[int, Optional[str], Optional[str]]


class RangeHandoffs(ShareExchange):
    """Range handoff: each replica of the losing cluster sends the moved
    range's state (:class:`RangeHandoff`), keyed ``(epoch, lo, hi)``."""

    label = "range-fetch"

    def __init__(self, node) -> None:
        super().__init__(node)
        self.cuts_applied = 0
        self.sent = 0
        self.installed = 0
        # Observability (passive: never charges, never schedules).
        self._h_install = node.metrics.histogram("rebalance.cut_install_ms")
        self._c_bytes = node.metrics.counter("rebalance.handoff_bytes")
        self._c_ranges = node.metrics.counter("rebalance.handoff_ranges")

    # ------------------------------------------------------------------ #
    # The share.
    # ------------------------------------------------------------------ #

    def parse(self, message: RangeHandoff):
        return ((message.epoch, message.lo, message.hi), message.source_shard,
                handoff_payload(message.epoch, message.lo, message.hi,
                                message.source_shard, message.target_shard,
                                message.state_digest),
                (message.entries, message.reply_table))

    def vet(self, message: RangeHandoff, payload, blob, awaited: bool):
        entries, reply_table = blob
        digest = self.node.crypto.digest(
            entries + reply_table, size_hint=len(entries) + len(reply_table))
        if digest != message.state_digest:
            return None
        if not awaited and message.epoch <= self.node.epoch:
            # A share for a cut already behind us that we are not blocked
            # on: a late duplicate of an installed handoff (the remaining
            # source replicas' redundant sends) or a range that was never
            # ours to gain.  Nothing left to install.
            return None
        return digest

    def fetch_for(self, key: RangeKey) -> RangeFetch:
        epoch, lo, hi = key
        return RangeFetch(epoch=epoch, target_shard=self.node.shard, lo=lo,
                          hi=hi, replica=self.node.node_id)

    def fetch_key(self, message: RangeFetch) -> RangeKey:
        return (message.epoch, message.lo, message.hi)

    # ------------------------------------------------------------------ #
    # The marker.
    # ------------------------------------------------------------------ #

    def execute(self, change: MapChange) -> None:
        """Apply ``change`` at its marker slot if its parent epoch is the
        replica's (else a no-op, mirroring the router queues' cut-time
        judgement exactly): bump the epoch, send the ranges this cluster
        loses and block on the ones it gains."""
        node = self.node
        registry = getattr(node.router.partitioner, "registry", None)
        if registry is None or not registry.has_epoch(node.epoch):
            return
        old_map = registry.map_for(node.epoch)
        new_map = apply_map_change(old_map, change)
        if new_map is None:
            return
        registry.append(new_map)
        inbound: List[Item] = []
        for moved in old_map.moved_ranges(new_map):
            key = (new_map.epoch, moved.lo, moved.hi)
            if moved.old_owner == node.shard:
                self._send(key, moved.new_owner)
            elif moved.new_owner == node.shard:
                inbound.append((key, moved.old_owner))
        node.epoch = new_map.epoch
        self.cuts_applied += 1
        if inbound:
            self.block(inbound, self._install, self._h_install.observe)
        self.prune_past()

    def prune_past(self) -> None:
        """Drop buffered shares that can never install: past epochs' late
        duplicates, or ranges that were never ours to gain."""
        self.prune(lambda key: key[0] > self.node.epoch)

    def _send(self, key: RangeKey, target_shard: int) -> None:
        """Extract a moved range as of the cut and share it with the gainers.

        The extraction *removes* the range locally -- ownership moved, and a
        stale local copy could shadow the handed-off truth if the range ever
        returns -- and the share's authenticator covers the canonical
        handoff payload, so ``g + 1`` matching shares certify the state.
        """
        node = self.node
        if not node.shard_execution_ids:
            return
        epoch, lo, hi = key
        entries = node.app.extract_range(lo, hi)
        reply_table = encode_reply_table(node.reply_table)
        digest = node.crypto.digest(entries + reply_table,
                                    size_hint=len(entries) + len(reply_table))
        targets = node.shard_execution_ids[target_shard]
        authenticator = node.crypto.mac_authenticator(
            handoff_payload(epoch, lo, hi, node.shard, target_shard, digest),
            targets)
        message = RangeHandoff(epoch=epoch, source_shard=node.shard,
                               target_shard=target_shard, lo=lo, hi=hi,
                               entries=entries, reply_table=reply_table,
                               state_digest=digest, replica=node.node_id,
                               authenticator=authenticator)
        self.publish(key, message, targets)
        self.sent += 1
        self._c_ranges.inc()
        self._c_bytes.inc(len(entries) + len(reply_table))

    def _install(self, item: Item, blob: Tuple[bytes, bytes]) -> None:
        (_, lo, hi), _ = item
        entries, reply_table = blob
        node = self.node
        node.app.install_range(lo, hi, entries)
        # Merge the source cluster's dedup table timestamp-monotonically: a
        # request executed there pre-cut must be answered from the table
        # here, never re-executed.  This replica's own table is frozen while
        # blocked at the cut, so the merge is deterministic across peers.
        for reply in decode_reply_table(reply_table):
            current = node.reply_table.get(reply.client)
            if current is None or current.timestamp < reply.timestamp:
                node.reply_table[reply.client] = reply
        self.installed += 1
