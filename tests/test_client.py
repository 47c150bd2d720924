"""The one client: every deployment's, with per-log cursors and one
epoch-claim rule.

* ``ClientNode`` is the only client class: no class under ``src/``
  subclasses it, and all five deployments build it;
* with several agreement logs each log keeps its own view cursor, so a
  view change in one log redirects only that log's requests;
* a reply's epoch claim is judged by one rule at all three places it can
  steer the client -- an ordinary reply, an ordinary reply to a multi-shard
  operation whose keys collapsed onto one shard, and an assembled
  cross-shard reply: an unknown epoch and an agreed epoch naming the wrong
  shard are ignored, a consistent claim is adopted.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from conftest import CHEAP_CRYPTO, FAST_TIMERS, make_config
from repro.apps.kvstore import KeyValueStore, get, multi_get, put
from repro.config import (AuthenticationScheme, CrossShardConfig,
                          RebalanceConfig, ShardingConfig, SystemConfig)
from repro.core import (ClientNode, CoupledSystem, SeparatedSystem,
                        UnreplicatedSystem)
from repro.crypto.certificate import Certificate
from repro.messages.reply import BatchReplyBody, ClientReply, ReplyBody
from repro.messages.request import RequestEnvelope
from repro.multilog.client import MultiLogClient
from repro.sharding import MapChange, ShardedSystem
from repro.sharding.client import ShardAwareClient
from repro.sharding.messages import CrossShardReply, SubReplyBody
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
    assert system.log_registry.log_of(system.shard_of_key(key0)) == 0
    assert system.log_registry.log_of(system.shard_of_key(key1)) == 1
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

ENTRY_POINTS = ["ordinary", "collapsed", "assembled"]


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


def _assembled_reply(system, client, timestamp, epoch, shard):
    """A collator's reply certified by ``g + 1`` of ``shard``'s replicas."""
    body = SubReplyBody(client=client.node_id, timestamp=timestamp,
                        shard=shard, epoch=epoch, view=0, op_seq=5,
                        status="ok", values={})
    certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
    for node in system.execution_cluster(shard)[:system.config.reply_quorum]:
        certificate.add(node.crypto.mac_authenticator(body, [client.node_id]))
    return CrossShardReply(client=client.node_id, timestamp=timestamp,
                           status="ok", epoch=epoch, collator_shard=shard,
                           sub_certificates=(certificate,), assembled={},
                           sender=system.execution_cluster(shard)[0].node_id)


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
    sender = system.execution_cluster(shard)[0].node_id
    if entry == "assembled":
        client.on_message(sender, _assembled_reply(system, client, timestamp,
                                                   epoch, shard))
        assert (len(client.completed) == 1) is adopted
        assert client.invalid_cross_shard_replies == (0 if adopted else 1)
    else:
        client.on_message(sender, _ordinary_reply(client, timestamp, epoch,
                                                  shard))
        assert client._pending.shard == (shard if adopted else 0)
    assert client.epoch == (epoch if adopted else 0)
    assert client.epoch_advances == (1 if adopted else 0)
