"""The certified share exchange (``repro.sharding.cut``) in isolation.

No system is built: a toy exchange kind runs against a stub replica, so each
rule of the mechanism -- who counts towards the ``g + 1`` quorum, one live
blob per sender, the epoch window and pre-arrival cap, outbound retention
and re-serving, the fetch timer's lifetime -- is checked on its own.
"""

from types import SimpleNamespace

from repro.sharding.cut import (
    EPOCH_WINDOW,
    OUTBOUND_RETENTION,
    PRE_ARRIVAL_CAP,
    ShareExchange,
)
from repro.util.ids import client_id, execution_id

#: three execution clusters of 2g + 1 = 3 replicas; the stub replica is the
#: first member of cluster 0
CLUSTERS = [[execution_id(3 * shard + j) for j in range(3)]
            for shard in range(3)]


class StubTimer:
    def __init__(self, callback):
        self.callback = callback
        self.active = True

    def cancel(self):
        self.active = False

    def fire(self):
        self.active = False
        self.callback()


class StubNode:
    """Just what :class:`ShareExchange` uses of a shard replica."""

    def __init__(self):
        self.node_id = CLUSTERS[0][0]
        self.shard = 0
        self.epoch = 10
        self.now = 0.0
        self.shard_execution_ids = CLUSTERS
        self.config = SimpleNamespace(
            reply_quorum=2, timers=SimpleNamespace(execution_fetch_ms=50.0))
        self.crypto = SimpleNamespace(
            verify_mac=lambda payload, authenticator: authenticator == "valid")
        self.sent = []
        self.timers = []

    def multicast(self, targets, message):
        self.sent.extend((target, message) for target in targets)

    def send(self, target, message):
        self.sent.append((target, message))

    def set_timer(self, delay, callback, label=""):
        self.timers.append(StubTimer(callback))
        return self.timers[-1]


class ToyExchange(ShareExchange):
    """Shares are namespaces: ``key`` is ``(epoch, name)``, the digest is
    the blob itself."""

    label = "toy-fetch"

    def parse(self, message):
        return message.key, message.shard, {"toy": message.key}, message.blob

    def vet(self, message, payload, blob, awaited):
        return blob.encode()

    def fetch_for(self, key):
        return SimpleNamespace(fetch=key, replica=self.node.node_id)

    def fetch_key(self, message):
        return message.fetch


def share(sender, shard=1, name="x", epoch=10, blob="data",
          authenticator="valid"):
    return SimpleNamespace(key=(epoch, name), shard=shard, epoch=epoch,
                           blob=blob, replica=sender,
                           authenticator=authenticator)


def blocked_exchange(items=(((10, "x"), 1),)):
    exchange = ToyExchange(StubNode())
    delivered, resolved = [], []
    exchange.block(list(items), lambda item, blob: delivered.append((item, blob)),
                   resolved.append)
    return exchange, delivered, resolved


def test_quorum_counts_distinct_members_of_the_source_cluster_only():
    exchange, delivered, resolved = blocked_exchange()
    one, two = CLUSTERS[1][0], CLUSTERS[1][1]
    # Not a member of the cluster the share speaks for; a member of the
    # receiver's own cluster; a relayed share; a client; a bad MAC.
    assert not exchange.receive(CLUSTERS[2][0], share(CLUSTERS[2][0], shard=1))
    assert not exchange.receive(CLUSTERS[0][1], share(CLUSTERS[0][1], shard=0))
    assert not exchange.receive(one, share(two))
    assert not exchange.receive(client_id(0), share(client_id(0)))
    assert not exchange.receive(one, share(one, authenticator="forged"))
    assert not exchange.receive(one, share(one, shard=7))
    assert exchange.tallies == {}
    # The same sender twice is one voucher.
    assert exchange.receive(one, share(one))
    assert exchange.receive(one, share(one))
    assert not exchange.advance() and not delivered
    # A second member with different data does not make a quorum either.
    assert exchange.receive(two, share(two, blob="other"))
    assert not exchange.advance() and not delivered
    assert exchange.receive(CLUSTERS[1][2], share(CLUSTERS[1][2]))
    assert exchange.advance()
    assert delivered == [(((10, "x"), 1), "data")]
    assert len(resolved) == 1
    assert exchange.tallies == {} and not exchange.awaiting


def test_equivocating_sender_never_holds_two_blobs():
    exchange, delivered, _ = blocked_exchange()
    liar = CLUSTERS[1][0]
    for attempt in range(100):
        assert exchange.receive(liar, share(liar, blob=f"lie-{attempt}"))
    tally = exchange.tallies[((10, "x"), 1)]
    assert list(tally) == [liar] and tally[liar] == (b"lie-99", "lie-99")
    for honest in CLUSTERS[1][1:]:
        exchange.receive(honest, share(honest))
    assert exchange.advance()
    assert delivered == [(((10, "x"), 1), "data")]


def test_epoch_window_and_pre_arrival_cap_spare_awaited_shares():
    exchange, _, _ = blocked_exchange()
    sender = CLUSTERS[1][0]
    assert not exchange.receive(
        sender, share(sender, epoch=10 + EPOCH_WINDOW + 1))
    assert not exchange.receive(
        sender, share(sender, epoch=10 - EPOCH_WINDOW - 1))
    assert exchange.receive(sender, share(sender, epoch=10 + EPOCH_WINDOW,
                                          name="edge"))
    for index in range(PRE_ARRIVAL_CAP * 2):
        exchange.receive(sender, share(sender, name=f"flood-{index}"))
    assert len(exchange.tallies) == PRE_ARRIVAL_CAP
    # A buffered tally still takes further senders; the awaited share is
    # admitted although the pre-arrival buffer is full.
    other = CLUSTERS[1][1]
    assert exchange.receive(other, share(other, name="flood-0"))
    assert not exchange.receive(other, share(other, name="one-too-many"))
    assert exchange.receive(sender, share(sender))
    assert ((10, "x"), 1) in exchange.tallies
    # Pruning spares live keys and whatever is awaited.
    exchange.prune(lambda key: key[1] == "edge")
    assert set(exchange.tallies) == {((10 + EPOCH_WINDOW, "edge"), 1),
                                     ((10, "x"), 1)}


def test_outbound_shares_are_bounded_and_re_served_to_cluster_members_only():
    exchange = ToyExchange(StubNode())
    node = exchange.node
    targets = CLUSTERS[1]
    for index in range(OUTBOUND_RETENTION + 5):
        exchange.publish((10, index), f"share-{index}", targets)
    assert len(node.sent) == (OUTBOUND_RETENTION + 5) * len(targets)
    assert len(exchange.outbound) == OUTBOUND_RETENTION
    assert (10, 0) not in exchange.outbound
    # Shares older than the epoch window go regardless of the count.
    exchange.publish((10 + EPOCH_WINDOW, "new"), "share-new", targets)
    assert list(exchange.outbound) == [(10 + EPOCH_WINDOW, "new")]

    node.sent.clear()
    for requester in (CLUSTERS[1][2], CLUSTERS[2][0]):
        exchange.serve(requester, SimpleNamespace(
            fetch=(10 + EPOCH_WINDOW, "new"), replica=requester))
    assert node.sent == [(CLUSTERS[1][2], "share-new"),
                         (CLUSTERS[2][0], "share-new")]
    node.sent.clear()
    outsider = client_id(0)
    exchange.serve(outsider, SimpleNamespace(
        fetch=(10 + EPOCH_WINDOW, "new"), replica=outsider))
    exchange.serve(CLUSTERS[1][0], SimpleNamespace(
        fetch=(10 + EPOCH_WINDOW, "new"), replica=CLUSTERS[1][1]))
    exchange.serve(CLUSTERS[1][0], SimpleNamespace(
        fetch=(3, "unknown"), replica=CLUSTERS[1][0]))
    assert node.sent == []


def test_one_fetch_timer_per_blocked_cut():
    exchange, _, _ = blocked_exchange(items=(((10, "x"), 1), ((10, "y"), 2)))
    node = exchange.node
    assert not exchange.advance()
    assert not exchange.advance()
    assert len(node.timers) == 1 and node.timers[0].active
    node.timers[0].fire()
    # Fetches go to every replica of each missing share's source cluster,
    # and the timer re-arms while the cut stays blocked.
    assert exchange.fetches == 2
    assert [target for target, _ in node.sent] == CLUSTERS[1] + CLUSTERS[2]
    assert len(node.timers) == 2 and node.timers[1].active
    for shard, name in ((1, "x"), (2, "y")):
        for sender in CLUSTERS[shard][:2]:
            exchange.receive(sender, share(sender, shard=shard, name=name))
    assert exchange.advance()
    assert not node.timers[1].active  # cancelled, not left to fire
    assert len(node.timers) == 2


def test_restore_from_checkpoint_clears_the_block_and_the_timer():
    exchange, delivered, resolved = blocked_exchange()
    node = exchange.node
    assert not exchange.advance()
    timer = node.timers[0]
    exchange.unblock()
    assert not exchange.awaiting and not timer.active
    # A late quorum for the forgotten cut is not delivered to anyone.
    for sender in CLUSTERS[1][:2]:
        exchange.receive(sender, share(sender))
    assert not exchange.advance()
    assert delivered == [] and resolved == []


def test_a_blocked_slot_is_one_record():
    """Everything in flight for the blocked marker slot -- what is missing,
    the callbacks, the fetch timer and the checkpoint that fell on the slot
    -- is the exchange's one cut record; resolving drops it whole."""
    exchange, delivered, resolved = blocked_exchange()
    node = exchange.node
    cut = exchange.cut
    assert list(cut.awaiting) == [((10, "x"), 1)] and cut.checkpoint is None
    cut.checkpoint = 40
    node.now = 30.0
    assert not exchange.advance()
    assert cut.timer is node.timers[0]
    for sender in CLUSTERS[1][:2]:
        exchange.receive(sender, share(sender))
    assert exchange.advance()
    assert exchange.cut is None and not exchange.awaiting
    assert resolved == [30.0] and not cut.timer.active
