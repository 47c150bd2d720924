"""Structure bounds on the source tree.

No class under ``src/`` is longer than 600 lines.  The classes already
over the bound are listed with their size as a ceiling: they may shrink,
never grow, and a class that drops under 600 lines leaves the list.

Each certificate rule has one home, ``crypto/provider.py``: the
domain-separation prefixes of the simulated signatures and the batch-digest
formula appear nowhere else, nothing outside ``crypto/`` combines threshold
shares or adds an authenticator to a certificate, and the old per-queue
quorum collector does not come back.

Each routing rule has one home, ``sharding/router.py``: what a batch is
and what each shard owns of it is asked of the router, never re-derived
from the batch's shape or the request's keys elsewhere.

There is one deployment: the paper's separated system is the one-shard
``ShardedSystem``, nothing subclasses its execution replica or its router
queue, and the old names the frozen performance ledger resolves are the
classes themselves.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import repro
from conftest import make_config
from repro.apps.kvstore import KeyValueStore, multi_get, put
from repro.config import AuthenticationScheme, CrossShardConfig, ShardingConfig
from repro.core import SeparatedSystem
from repro.crypto.certificate import Certificate
from repro.sharding import ExecutionNode, ShardedSystem
from repro.sharding.queue import ShardRouterQueue

SRC = Path(repro.__file__).resolve().parent
MAX_CLASS_LINES = 600
#: ``path:class`` -> the most lines it may have
CEILINGS = {
    "net/codec.py:Codec": 785,
    "agreement/replica.py:AgreementReplica": 723,
}
PROVIDER = "crypto/provider.py"
ROUTER = "sharding/router.py"
#: the batch-shape helpers and the router's per-request classification:
#: only the router calls (or defines) them
ROUTING_RULES = {
    "map_change_of", "config_op_of", "cross_shard_request_of",
    "log_map_change_of", "is_cross_shard", "shards_of_operation_keys",
    "shards_of_certificates", "shards_of_requests", "shard_of_request",
    "request_owners", "_cross_shard_marker_of", "_cross_touched",
    "_owned_requests",
}


def modules():
    """``(path relative to src/repro, parsed module)`` for every source file."""
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def class_sizes():
    """``path:class`` -> lines from its ``class`` line to its last line."""
    sizes = {}
    for path, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                sizes[f"{path}:{node.name}"] = node.end_lineno - node.lineno + 1
    return sizes


def test_no_class_is_longer_than_600_lines():
    sizes = class_sizes()
    over = {name: size for name, size in sizes.items()
            if size > CEILINGS.get(name, MAX_CLASS_LINES)}
    assert over == {}
    # A listed class that shrank under the bound no longer needs a ceiling.
    assert all(sizes.get(name, 0) > MAX_CLASS_LINES for name in CEILINGS)


def test_every_certificate_rule_has_one_home():
    prefixes, batch_digests, combiners, collectors = [], [], [], []
    for path, tree in modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and node.value in (b"sig:", b"share:", b"combined:")):
                prefixes.append(path)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "digest" and any(
                        isinstance(arg, ast.Dict) and any(
                            isinstance(key, ast.Constant) and key.value == "batch"
                            for key in arg.keys)
                        for arg in node.args):
                    batch_digests.append(path)
                elif name == "threshold_combine" and not path.startswith("crypto/"):
                    combiners.append(path)
            elif ((isinstance(node, ast.Name) and node.id == "QuorumCollector")
                  or (isinstance(node, ast.ClassDef)
                      and node.name == "QuorumCollector")):
                collectors.append(path)
    assert prefixes == [PROVIDER] * 3
    assert batch_digests == [PROVIDER]
    assert combiners == []
    assert collectors == []


def test_certificates_are_filled_only_inside_crypto(monkeypatch):
    """Quorums are assembled by one merge rule
    (``CryptoProvider.assemble``): every call that adds an authenticator
    to a certificate comes from ``crypto/`` -- for a client's replies, a
    queue's, a firewall filter's shares and a client's cross-shard
    fragments -- and there is no other way to merge two certificates."""
    callers = set()
    add = Certificate.add

    def recording(certificate, authenticator):
        caller = Path(sys._getframe(1).f_code.co_filename).resolve()
        callers.add(caller.relative_to(SRC).parts[0])
        add(certificate, authenticator)

    monkeypatch.setattr(Certificate, "add", recording)
    separated = SeparatedSystem(make_config(), KeyValueStore, seed=1)
    firewall = SeparatedSystem(make_config(
        authentication=AuthenticationScheme.THRESHOLD, use_privacy_firewall=True),
        KeyValueStore, seed=1)
    sharded = ShardedSystem(make_config(
        sharding=ShardingConfig(num_shards=2, strategy="range",
                                range_boundaries=("k5",)),
        cross_shard=CrossShardConfig(enabled=True)), KeyValueStore, seed=1)
    for system in (separated, firewall, sharded):
        system.invoke(put("k1", "v"))
    sharded.invoke(multi_get(["k1", "k7"]))
    assert callers == {"crypto"}
    assert not hasattr(Certificate, "merge")


def test_every_routing_rule_has_one_home():
    elsewhere = set()
    for path, tree in modules():
        if path == ROUTER:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
            elif isinstance(node, ast.FunctionDef):
                name = node.name
            else:
                continue
            if name in ROUTING_RULES:
                elsewhere.add(f"{path}:{name}")
    assert sorted(elsewhere) == []


def test_the_separated_system_is_the_one_shard_sharded_system():
    system = SeparatedSystem(make_config(), KeyValueStore, seed=1)
    assert isinstance(system, ShardedSystem)
    assert (system.num_shards, system.num_logs) == (1, 1)
    assert system.execution_nodes == system.shard_execution_nodes[0]
    assert [type(node) for node in system.execution_nodes] == [ExecutionNode] * 3
    assert {type(queue) for queue in system.message_queues} == {ShardRouterQueue}


def test_nothing_subclasses_the_execution_replica_or_the_router_queue():
    bases = {"ExecutionNode", "ShardExecutionNode", "ShardRouterQueue",
             "MultiLogRouterQueue", "MessageQueue"}
    offenders = [f"{path}:{node.lineno} {node.name}"
                 for path, tree in modules() for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) and any(
                     ast.unparse(base).split(".")[-1] in bases
                     for base in node.bases)]
    assert offenders == []


#: (module, old name) the frozen ledger (benchmarks/ledger/spans.py,
#: workloads.py) resolves -> the class it stands for
LEDGER_ALIASES = {
    ("repro.core.message_queue", "MessageQueue"): ShardRouterQueue,
    ("repro.multilog.queue", "MultiLogRouterQueue"): ShardRouterQueue,
    ("repro.core.execution", "ExecutionNode"): ExecutionNode,
    ("repro.sharding.execution", "ShardExecutionNode"): ExecutionNode,
    ("repro.core.system", "SeparatedSystem"): SeparatedSystem,
    ("repro.multilog", "MultiLogSystem"): ShardedSystem,
}


def test_each_ledger_alias_is_the_class_it_names():
    for (module, name), cls in LEDGER_ALIASES.items():
        assert getattr(importlib.import_module(module), name) is cls
