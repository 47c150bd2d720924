"""The execution plane's one cut mechanism: the certified share exchange.

A *cut* is a marker slot at which a shard replica must stop executing until
data held by other execution clusters reaches it: the key ranges a
partition-map change moves to it, or the peer shards' read-set observations
a cross-shard transaction's commit decision needs.  Both are one protocol
(docs/ARCHITECTURE.md, "Cuts"), written once in :class:`ShareExchange`:
every replica of a source cluster sends its own MACed *share* of the data
and keeps it a while for re-serving; a receiver admits shares only from
members of that cluster, near its own epoch and within a bounded buffer,
keeps one blob per sender and takes the data as certified once ``g + 1``
senders vouch for one digest; a replica that reaches the marker first
blocks on the shares it misses and re-asks for them on a timer.  A subclass
says what a share of its kind looks like and what its marker does: the two
are the replica's cut participants, :class:`~repro.sharding.handoff.RangeHandoffs`
and :class:`~repro.sharding.crossshard.CrossShardOperations`.  A replica is
blocked at most at one marker slot at a time -- being blocked is what stops
it from reaching the next marker -- and everything in flight for that slot
is one :class:`Cut` record on the participant that blocked.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple

from ..net.message import Message
from ..sim.scheduler import Timer
from ..util.ids import NodeId

#: shares are accepted this many partition-map epochs either side of the
#: receiver's own (behind: a late duplicate; ahead: a pre-arrival for a cut
#: not executed yet), and own shares stay re-servable this many epochs
EPOCH_WINDOW = 4

#: cap on buffered *pre-arrival* tallies (shares of cuts this replica is not
#: blocked at); awaited shares are always buffered
PRE_ARRIVAL_CAP = 64

#: cap on own shares kept for re-serving fetches
OUTBOUND_RETENTION = 32

#: an exchanged datum: (key, source shard); ``key[0]`` is the key's epoch
Item = Tuple[Hashable, int]


@dataclass
class Cut:
    """The marker slot a replica is blocked at: everything in flight for it."""

    #: the shares still missing, in fetch order
    awaiting: Dict[Item, None]
    #: called with each item's data as it certifies
    on_share: Callable[[Item, Any], None]
    #: called with the milliseconds spent blocked once the last certified
    on_resolved: Callable[[float], None]
    #: when the replica blocked
    since: float
    #: the one fetch timer
    timer: Optional[Timer] = None
    #: the checkpoint that fell on the slot, taken once the cut resolves
    #: (it covers the state after the cut, never one that depends on timing)
    checkpoint: Optional[int] = None


class ShareExchange:
    """Certified exchange of one kind of share between execution clusters.

    ``node`` is the shard replica a subclass is a cut participant of; its
    ``epoch``, ``shard``, ``shard_execution_ids``, ``crypto``, ``config``
    and its send / timer primitives are what the exchange uses of it.
    """

    #: suffix of the fetch timer's label
    label = "share-fetch"

    def __init__(self, node) -> None:
        self.node = node
        #: shares received: item -> sender -> (digest, blob)
        self.tallies: Dict[Item, Dict[NodeId, Tuple[bytes, Any]]] = {}
        #: own shares kept for re-serving fetches (insertion order)
        self.outbound: Dict[Hashable, Message] = {}
        #: the marker slot this participant blocks the replica at, if any
        self.cut: Optional[Cut] = None
        self.fetches = 0

    @property
    def awaiting(self) -> Dict[Item, None]:
        """The shares the replica is blocked waiting for here (empty while
        this participant does not block it)."""
        return self.cut.awaiting if self.cut is not None else {}

    # ------------------------------------------------------------------ #
    # What a subclass defines.
    # ------------------------------------------------------------------ #

    def parse(self, message: Message) -> Tuple[Hashable, int, Dict[str, Any], Any]:
        """``(key, source shard, MACed payload, blob)`` of a share message."""
        raise NotImplementedError

    def vet(self, message: Message, payload: Dict[str, Any], blob: Any,
            awaited: bool) -> Optional[bytes]:
        """The digest an authenticated, in-window share is tallied under,
        or None to drop it."""
        raise NotImplementedError

    def fetch_for(self, key: Hashable) -> Message:
        """The message asking a source cluster to re-send ``key``'s share."""
        raise NotImplementedError

    def fetch_key(self, message: Message) -> Hashable:
        """The key a received fetch message asks for."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Blocking at a cut.
    # ------------------------------------------------------------------ #

    def block(self, items: Iterable[Item],
              on_share: Callable[[Item, Any], None],
              on_resolved: Callable[[float], None]) -> None:
        """Block the replica on ``items``; :meth:`advance` hands each to
        ``on_share`` as it certifies and calls ``on_resolved`` (with the
        milliseconds spent blocked) after the last."""
        self.cut = Cut(awaiting=dict.fromkeys(items), on_share=on_share,
                       on_resolved=on_resolved, since=self.node.now)

    def advance(self) -> bool:
        """Consume newly certified awaited shares; True once that resolved
        the cut.  While shares are missing the fetch timer runs."""
        cut = self.cut
        if cut is None:
            return False
        for item in list(cut.awaiting):
            blob = self._take_certified(item)
            if blob is not None:
                del cut.awaiting[item]
                cut.on_share(item, blob)
        if cut.awaiting:
            self._arm(cut)
            return False
        self.unblock()
        cut.on_resolved(self.node.now - cut.since)
        return True

    def unblock(self) -> None:
        """Forget the cut and cancel its fetch timer (also how a restored
        checkpoint, which already holds the cut's outcome, drops it)."""
        if self.cut is not None and self.cut.timer is not None:
            self.cut.timer.cancel()
        self.cut = None

    def _arm(self, cut: Cut) -> None:
        if cut.timer is None or not cut.timer.active:
            cut.timer = self.node.set_timer(
                self.node.config.timers.execution_fetch_ms,
                self._on_fetch_timeout,
                label=f"{self.node.node_id}:{self.label}")

    def _on_fetch_timeout(self) -> None:
        for key, shard in self.awaiting:
            self.fetches += 1
            self.node.multicast(self.node.shard_execution_ids[shard],
                                self.fetch_for(key))
        self._arm(self.cut)

    def _take_certified(self, item: Item) -> Optional[Any]:
        """The item's data once ``g + 1`` senders of its cluster sent
        matching shares (its tally is dropped), else None."""
        tally = self.tallies.get(item)
        if not tally:
            return None
        digest, support = Counter(
            seen for seen, _ in tally.values()).most_common(1)[0]
        if support < self.node.config.reply_quorum:
            return None
        del self.tallies[item]
        return next(blob for seen, blob in tally.values() if seen == digest)

    # ------------------------------------------------------------------ #
    # Inbound shares.
    # ------------------------------------------------------------------ #

    def receive(self, sender: NodeId, message: Message) -> bool:
        """Admit one share; True if it was buffered."""
        node = self.node
        key, shard, payload, blob = self.parse(message)
        clusters = node.shard_execution_ids
        if (sender != message.replica or shard == node.shard
                or not 0 <= shard < len(clusters)
                or sender not in clusters[shard]):
            return False
        if message.authenticator is None or not node.crypto.verify_mac(
                payload, message.authenticator):
            return False
        if abs(message.epoch - node.epoch) > EPOCH_WINDOW:
            return False
        item: Item = (key, shard)
        awaited = item in self.awaiting
        digest = self.vet(message, payload, blob, awaited)
        if digest is None:
            return False
        if (not awaited and item not in self.tallies
                and len(self.tallies) >= PRE_ARRIVAL_CAP):
            return False  # the fetch recovers it once this replica blocks
        # One live blob per sender: an equivocating sender varying its share
        # replaces its own entry, never adds one.
        self.tallies.setdefault(item, {})[sender] = (digest, blob)
        return True

    def prune(self, live: Callable[[Hashable], bool]) -> None:
        """Drop buffered shares whose key is not ``live`` (awaited ones stay)."""
        self.tallies = {item: tally for item, tally in self.tallies.items()
                        if item in self.awaiting or live(item[0])}

    # ------------------------------------------------------------------ #
    # Outbound shares.
    # ------------------------------------------------------------------ #

    def publish(self, key: Hashable, message: Message, targets) -> None:
        """Send own share and keep it for re-serving."""
        self.outbound[key] = message
        self.outbound = {kept: stored for kept, stored in self.outbound.items()
                         if kept[0] > key[0] - EPOCH_WINDOW}
        while len(self.outbound) > OUTBOUND_RETENTION:
            del self.outbound[next(iter(self.outbound))]
        self.node.multicast(targets, message)

    def serve(self, sender: NodeId, message: Message) -> None:
        """Re-serve a stored share to a blocked replica that missed it."""
        if sender != message.replica or not any(
                sender in ids for ids in self.node.shard_execution_ids):
            return
        stored = self.outbound.get(self.fetch_key(message))
        if stored is not None:
            self.node.send(sender, stored)

