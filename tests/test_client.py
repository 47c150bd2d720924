"""The one client: every deployment's, with per-log cursors and one
epoch-claim rule.

* ``ClientNode`` is the only client class: no class under ``src/``
  subclasses it, and all five deployments build it;
* with several agreement logs each log keeps its own view cursor, so a
  view change in one log redirects only that log's requests;
* a reply's epoch claim is judged by one rule at all three places it can
  steer the client -- an ordinary reply, an ordinary reply to a multi-shard
  operation whose keys collapsed onto one shard, and ``g + 1`` certified
  cross-shard fragments: an unknown epoch and an agreed epoch naming the
  wrong shard are ignored, a consistent claim is adopted.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from conftest import CHEAP_CRYPTO, FAST_TIMERS, make_config
from repro.apps.kvstore import KeyValueStore, get, multi_get, put
from repro.config import (AuthenticationScheme, CrossShardConfig, PerfConfig,
                          RebalanceConfig, ShardingConfig, SystemConfig)
from repro.core import (ClientNode, CoupledSystem, SeparatedSystem,
                        UnreplicatedSystem)
from repro.crypto.certificate import Certificate
from repro.messages.reply import BatchReplyBody, ClientReply, ReplyBody
from repro.messages.request import RequestEnvelope
from repro.net.network import DROP
from repro.multilog.client import MultiLogClient
from repro.sharding import MapChange, ShardedSystem
from repro.sharding.client import ShardAwareClient
from repro.sharding.messages import CrossShardSubReply, SubReplyBody
from repro.statemachine.interface import OperationResult
from repro.workloads import equal_range_boundaries
from repro.workloads.skew import skew_key

SRC = Path(repro.__file__).resolve().parent
KEY_SPACE = 64


# ---------------------------------------------------------------------- #
# One class.
# ---------------------------------------------------------------------- #


def test_nothing_under_src_subclasses_client_node():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(base) for base in node.bases]
                if any(base.split(".")[-1] in ("ClientNode", "ShardAwareClient",
                                               "MultiLogClient")
                       for base in bases):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                     f"{node.name}")
    assert offenders == []
    assert ShardAwareClient is ClientNode and MultiLogClient is ClientNode


def _multilog_system():
    config = SystemConfig.multilog_sharded(
        num_logs=2, num_shards=4, strategy="range",
        range_boundaries=equal_range_boundaries(KEY_SPACE, 4),
        num_clients=2, pipeline_depth=16, checkpoint_interval=8,
        bundle_size=1, timers=FAST_TIMERS, crypto=CHEAP_CRYPTO,
        cross_shard=CrossShardConfig(enabled=True))
    return ShardedSystem(config, KeyValueStore, seed=33)


DEPLOYMENTS = {
    "separated": lambda: SeparatedSystem(make_config(), KeyValueStore, seed=1),
    "sharded": lambda: ShardedSystem(
        make_config(sharding=ShardingConfig(
            num_shards=2, strategy="range",
            range_boundaries=equal_range_boundaries(KEY_SPACE, 2))),
        KeyValueStore, seed=1),
    "multilog": _multilog_system,
    "coupled": lambda: CoupledSystem(make_config(), KeyValueStore, seed=1),
    "unreplicated": lambda: UnreplicatedSystem(make_config(f=0, g=0, h=0),
                                               KeyValueStore, seed=1),
}


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_every_deployment_builds_the_one_client(deployment):
    system = DEPLOYMENTS[deployment]()
    assert system.clients
    assert all(type(client) is ClientNode for client in system.clients)
    record = system.invoke(put(skew_key(5), "v"))
    assert record.result.error is None
    assert system.invoke(get(skew_key(5))).result.value["value"] == "v"


# ---------------------------------------------------------------------- #
# One view cursor per log.
# ---------------------------------------------------------------------- #


def test_a_view_change_in_one_log_redirects_only_that_logs_requests():
    system = _multilog_system()
    client = system.clients[0]
    log0, log1 = system.log_agreement_ids
    # Shards 0 and 1 belong to log 0, shards 2 and 3 to log 1.
    key0, key1 = skew_key(4), skew_key(52)
    assert system.log_registry.latest.log_of(system.shard_of_key(key0)) == 0
    assert system.log_registry.latest.log_of(system.shard_of_key(key1)) == 1
    system.invoke(put(key0, "a"))
    system.invoke(put(key1, "a"))

    system.crash_agreement(0, log=1)  # log 1's primary
    moved = system.invoke(put(key1, "b"), timeout_ms=20_000.0)
    assert moved.view >= 1
    assert system.log_replicas[0][0].view == 0

    targets = []
    system.network.add_tap(
        lambda src, dst, message: targets.append(dst)
        if src == client.node_id and isinstance(message, RequestEnvelope)
        else None)
    retransmissions = client.retransmissions
    system.invoke(put(key1, "c"))
    assert targets == [log1[moved.view % len(log1)]]
    targets.clear()
    system.invoke(put(key0, "c"))
    assert targets == [log0[0]]
    assert client.retransmissions == retransmissions


# ---------------------------------------------------------------------- #
# One epoch-claim rule, three entry points.
# ---------------------------------------------------------------------- #

#: moves from shard 0 to shard 1 at epoch 1 (the split below)
MOVED = skew_key(16)
#: on shard 1 at both epochs
STAYS = skew_key(40)

#: (label, claimed epoch, claimed shard, adopted?)
CLAIMS = [
    ("unknown-epoch", 7, 1, False),
    ("agreed-epoch-wrong-shard", 1, 0, False),
    ("consistent", 1, 1, True),
]

ENTRY_POINTS = ["ordinary", "collapsed", "fragments"]


@pytest.fixture(scope="module")
def epoch_one_system():
    """A two-shard system whose epoch 1 moved ``MOVED`` to shard 1; one
    fresh client (epoch cursor 0) per table row."""
    system = ShardedSystem(make_config(
        num_clients=len(CLAIMS) * len(ENTRY_POINTS) + 1,
        sharding=ShardingConfig(
            num_shards=2, strategy="range",
            range_boundaries=equal_range_boundaries(KEY_SPACE, 2)),
        per_shard_windows=True, cross_shard=CrossShardConfig(enabled=True),
        rebalance=RebalanceConfig(enabled=True, min_window_requests=10**9)),
        KeyValueStore, seed=21)
    system.invoke(put(MOVED, "v"))
    primary = system.agreement_replicas[0]
    assert primary.proposer.propose_map_change(MapChange(
        kind="split", parent_epoch=0, key=skew_key(8), owner=1))
    system.run(300.0)
    assert system.router.latest_epoch == 1
    assert system.shard_of_key(MOVED, 0) == 0
    assert system.shard_of_key(MOVED, 1) == 1
    return system


def _ordinary_reply(client, timestamp, epoch, shard):
    own = ReplyBody(view=0, seq=1, timestamp=timestamp, client=client.node_id,
                    result=OperationResult(value=None))
    body = BatchReplyBody(view=0, seq=1, replies=(own,), shard=shard,
                          epoch=epoch)
    return ClientReply(Certificate(payload=body,
                                   scheme=AuthenticationScheme.MAC))


def _fragments(system, client, timestamp, epoch, shard):
    """``(sender, fragment)`` from ``g + 1`` of ``shard``'s replicas."""
    body = SubReplyBody(client=client.node_id, timestamp=timestamp,
                        shard=shard, epoch=epoch, view=0, op_seq=5,
                        status="ok", values={})
    fragments = []
    for node in system.execution_cluster(shard)[:system.config.reply_quorum]:
        certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
        certificate.add(node.crypto.mac_authenticator(body, [client.node_id]))
        fragments.append((node.node_id, CrossShardSubReply(
            body=body, certificate=certificate, sender=node.node_id)))
    return fragments


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("label,epoch,shard,adopted", CLAIMS,
                         ids=[claim[0] for claim in CLAIMS])
def test_epoch_claim_rule(epoch_one_system, entry, label, epoch, shard,
                          adopted):
    system = epoch_one_system
    row = ENTRY_POINTS.index(entry) * len(CLAIMS) + [
        claim[0] for claim in CLAIMS].index(label)
    client = system.clients[row + 1]
    assert client.epoch == 0
    # Submitted and answered by hand: the scheduler never runs again.
    if entry == "ordinary":
        timestamp = client.submit(get(MOVED))
        assert client._pending.cross is None
    else:
        timestamp = client.submit(multi_get([MOVED, STAYS]))
        assert client._pending.cross is not None
    assert client._pending.shard == 0
    if entry == "fragments":
        for sender, fragment in _fragments(system, client, timestamp, epoch,
                                           shard):
            client.on_message(sender, fragment)
        assert (len(client.completed) == 1) is adopted
        assert client.invalid_cross_shard_replies == (0 if adopted else 1)
    else:
        sender = system.execution_cluster(shard)[0].node_id
        client.on_message(sender, _ordinary_reply(client, timestamp, epoch,
                                                  shard))
        assert client._pending.shard == (shard if adopted else 0)
    assert client.epoch == (epoch if adopted else 0)
    assert client.epoch_advances == (1 if adopted else 0)


# ---------------------------------------------------------------------- #
# One merge rule: a reply counts only with its sender's own authenticator.
# ---------------------------------------------------------------------- #


def _withheld_replies(seed, **overrides):
    """A separated system whose first write is ordered and executed, with
    every direct reply to the client held back: ``(system, client,
    [(sender, reply), ...])``."""
    system = SeparatedSystem(make_config(**overrides), KeyValueStore, seed=seed)
    held = []

    def hold(source, destination, message):
        if isinstance(message, ClientReply):
            held.append((source, message))
            return DROP
        return None

    system.network.add_tap(hold)
    client = system.clients[0]
    client.submit(put("k", "v"))
    system.run(50.0)
    assert len(held) >= 2 and not client.completed
    return system, client, held


def _executor(system, node_id):
    return next(node for node in system.execution_nodes if node.node_id == node_id)


class TestOneMergeRule:
    def test_a_partial_of_another_scheme_is_dropped_not_raised(self):
        """One execution replica's reply whose certificate carries a
        signature in a MAC deployment used to raise out of the client's
        handler (``Certificate.add``) once another reply had opened the
        collector, stopping the run.  It is dropped and counted."""
        system, client, held = _withheld_replies(seed=61)
        (first, reply), (second, genuine) = held[:2]
        client.on_message(first, reply)
        payload = genuine.certificate.payload
        odd = ClientReply(Certificate(
            payload=payload, scheme=AuthenticationScheme.MAC,
            authenticators={second: _executor(system, second).crypto.sign(payload)}))
        client.on_message(second, odd)
        assert client.crypto.dropped_authenticators == 1
        assert not client.completed
        client.on_message(second, genuine)
        assert len(client.completed) == 1

    def test_a_forged_authenticator_cannot_overwrite_another_signers(self):
        """A replica's partial carrying, besides its own authenticator, a
        forged one under another replica's name merges only its own: the
        other replica's valid authenticator stays, and the quorum is
        reached at once (checked with no verification cache, which would
        otherwise remember the overwritten fact)."""
        system, client, held = _withheld_replies(
            seed=62, perf=PerfConfig(verified_cert_cache=False))
        (first, reply), (second, genuine) = held[:2]
        client.on_message(first, reply)
        forged = dict(genuine.certificate.authenticators)
        forged[first] = dataclasses.replace(
            reply.certificate.authenticators[first],
            token={name: b"\x00" * 32 for name in
                   reply.certificate.authenticators[first].token})
        client.on_message(second, ClientReply(Certificate(
            payload=genuine.certificate.payload,
            scheme=AuthenticationScheme.MAC, authenticators=forged)))
        assert len(client.completed) == 1
        assert client.crypto.dropped_authenticators == 1


# ---------------------------------------------------------------------- #
# Digest replies: g of the 2g + 1 partials name the reply by its digest.
# ---------------------------------------------------------------------- #

_DIGEST_SYSTEMS = {}


def _digest_system(g):
    """One separated system per ``g``, its client answered by hand."""
    if g not in _DIGEST_SYSTEMS:
        _DIGEST_SYSTEMS[g] = SeparatedSystem(make_config(g=g), KeyValueStore,
                                             seed=71)
    return _DIGEST_SYSTEMS[g]


def _partial(node, body, payload):
    """``node``'s own partial certificate over ``body``, carrying
    ``payload`` (a view of it)."""
    certificate = Certificate(payload=payload, scheme=AuthenticationScheme.MAC)
    certificate.add(node.crypto.mac_authenticator(body, node.agreement_ids + [
        reply.client for reply in body.replies]))
    return ClientReply(certificate)


@st.composite
def _arrivals(draw):
    """``(g, kinds, order)``: each replica's partial -- ``carried``,
    ``bodiless``, a re-signed carried ``lie`` (at most one) or ``lost``
    (at most one) -- and the order the delivered ones arrive in."""
    g = draw(st.sampled_from([1, 2]))
    size = 2 * g + 1
    kinds = draw(st.lists(st.sampled_from(["carried", "bodiless"]),
                          min_size=size, max_size=size))
    slots = draw(st.permutations(range(size)))
    if draw(st.booleans()):
        kinds[slots[0]] = "lie"
    if draw(st.booleans()):
        kinds[slots[1]] = "lost"
    delivered = [index for index in range(size) if kinds[index] != "lost"]
    return g, kinds, draw(st.permutations(delivered))


@settings(max_examples=150, deadline=None)
@given(_arrivals())
def test_a_client_completes_on_g_plus_1_genuine_partials_one_carried(arrivals):
    """The client completes with the genuine result exactly when ``g + 1``
    genuine partials, at least one of them carried, have arrived; a
    bodiless partial counts only towards a collector a carried reply
    opened, and the lie is never the result."""
    g, kinds, order = arrivals
    system = _digest_system(g)
    client, other = system.clients[0], system.clients[1]
    nodes = system.execution_nodes
    timestamp = client.submit(get("k"))
    seq = timestamp

    def reply(result, who=client, stamp=timestamp):
        return ReplyBody(view=0, seq=seq, timestamp=stamp, client=who.node_id,
                         result=OperationResult(value=result))

    sibling = reply("sibling", other, 1)
    genuine = BatchReplyBody(view=0, seq=seq,
                             replies=(reply("genuine"), sibling))
    lie = BatchReplyBody(view=0, seq=seq, replies=(reply("LIE"), sibling))
    partials = {
        "carried": lambda node: _partial(node, genuine,
                                         genuine.view_for(client.node_id)),
        "bodiless": lambda node: _partial(node, genuine, genuine.view_for(None)),
        "lie": lambda node: _partial(node, lie, lie.view_for(client.node_id)),
    }
    done = len(client.completed)
    arrived = {"carried": 0, "bodiless": 0}
    try:
        for index in order:
            kind = kinds[index]
            client.on_message(nodes[index].node_id, partials[kind](nodes[index]))
            if kind in arrived:
                arrived[kind] += 1
            expected = (arrived["carried"] >= 1
                        and arrived["carried"] + arrived["bodiless"] >= g + 1)
            assert (len(client.completed) > done) is expected
            if expected:
                record = client.completed[-1]
                assert record.timestamp == timestamp
                assert record.result.value == "genuine"
                break
    finally:
        client._pending = None   # the next example submits afresh
