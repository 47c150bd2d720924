#!/usr/bin/env python3
"""Sharded key-value store: one agreement cluster, two execution clusters.

Builds the sharded architecture (``repro.sharding``): 4 agreement replicas
order every request, a deterministic hash partitioner routes each ordered
request to the execution cluster owning its key, and each shard's 3 replicas
execute, checkpoint, and answer independently.  The demo stores keys across
both shards, shows that each shard holds only its own slice of the state,
crashes one execution replica *in each shard* (within the per-shard ``g = 1``
bound), and shows the service still answering correctly.

The second act switches to range partitioning with **dynamic rebalancing**:
a hot key range saturates one cluster, the primary's rebalancer notices in
its per-shard load counters and splits the hot range through the agreement
log, and the partition-map epoch advances while the service keeps answering
-- every step observable in the printed load counters and epoch.  With
cross-shard operations enabled, a multi-key snapshot read then spans the
freshly split ranges at a consistent cut: one marker in the agreed order,
one certified fragment per touched cluster, one assembled reply.

The third act builds the *same* system class with two agreement logs
(``multilog.num_logs = 2``): each log orders its own group of shards, a
write-only transaction spanning both groups is released at one cross-log
cut, and a shard is moved from one log to the other while the service keeps
answering.

Run with:  python examples/sharded_kvstore.py
"""

from repro import ShardedSystem, SystemConfig
from repro.apps.kvstore import KeyValueStore, get, multi_get, put, transaction
from repro.config import CrossShardConfig, RebalanceConfig
from repro.workloads import equal_range_boundaries
from repro.workloads.skew import skew_key


def rebalancing_demo() -> None:
    key_space, num_shards = 64, 2
    config = SystemConfig.sharded(
        num_shards=num_shards, strategy="range",
        range_boundaries=equal_range_boundaries(key_space, num_shards),
        num_clients=4, checkpoint_interval=16,
        rebalance=RebalanceConfig(enabled=True, check_interval_ms=50.0,
                                  cooldown_ms=150.0, hot_ratio=1.5,
                                  min_window_requests=16),
        cross_shard=CrossShardConfig(enabled=True))
    system = ShardedSystem(config, KeyValueStore, seed=7)

    print("Dynamic rebalancing (range partitioning, load-triggered splits):")
    print(f"  epoch {system.partition_epoch()}: {system.partition_map().describe()}")
    print("Hammering the hottest quarter of the key space "
          "(all on shard 0's range)...")
    for i in range(96):
        system.invoke(put(skew_key(i % 16), f"v{i}"), client_index=i % 4)
        if i in (31, 63, 95):
            window = system.shard_load_window()
            print(f"  after {i + 1:3d} requests: epoch "
                  f"{system.partition_epoch()}, load window {window}, "
                  f"total routed {system.shard_load_total()}")
    print(f"  final map (epoch {system.partition_epoch()}, "
          f"{system.epoch_cuts()} cuts applied):")
    print(f"    {system.partition_map().describe()}")
    record = system.invoke(get(skew_key(3)))
    owner = system.shard_of_key(skew_key(3))
    print(f"  get {skew_key(3)} -> {record.result.value['value']!r} "
          f"served by shard {owner} after the cut(s)")

    # A multi-key snapshot read across the live split: the keys now live on
    # different clusters, so the read is ordered as one consistent-cut
    # marker and every touched cluster contributes a g+1-certified fragment.
    keys = [skew_key(3), skew_key(12), skew_key(40)]
    owners = sorted({system.shard_of_key(key) for key in keys})
    record = system.invoke(multi_get(keys))
    values = record.result.value["values"]
    print(f"  multi_get across shards {owners} at one consistent cut:")
    for key in keys:
        print(f"    {key} (shard {system.shard_of_key(key)}) -> {values[key]!r}")
    client = system.clients[0]
    assert len(owners) > 1, "expected the split to spread the demo keys"
    assert client.cross_shard_completed >= 1
    print(f"  cross-shard markers ordered: "
          f"{system.message_queues[0].cross_shard_markers}, client epoch "
          f"cursor: {client.epoch}")


def multi_log_demo() -> None:
    key_space, num_logs, num_shards = 64, 2, 4
    config = SystemConfig.multilog_sharded(
        num_logs=num_logs, num_shards=num_shards, strategy="range",
        range_boundaries=equal_range_boundaries(key_space, num_shards),
        num_clients=2, checkpoint_interval=16,
        cross_shard=CrossShardConfig(enabled=True))
    system = ShardedSystem(config, KeyValueStore, seed=3)
    print(f"Two agreement logs over {num_shards} shards (same builder, "
          f"multilog.num_logs={num_logs}):")
    print(f"  log map: {system.log_registry.latest.assignment}")
    keys = [skew_key(index) for index in (4, 20, 36, 52)]  # one per shard
    record = system.invoke(transaction(
        reads={}, writes={key: "stamped" for key in keys}))
    assert record.result.value["committed"]
    print(f"  write-only txn over shards "
          f"{[system.shard_of_key(key) for key in keys]} committed at one "
          f"cross-log cut ({system.message_queues[0].cross_log_markers} "
          f"marker held for its cut)")
    moving = 1
    assert system.propose_log_map_change(shard=moving, target_log=1)
    system.run_until(lambda: system.log_registry.latest_epoch == 1, 10_000.0,
                     "the log-map cut")
    record = system.invoke(get(keys[moving]))
    assert record.result.value["value"] == "stamped"
    print(f"  shard {moving} moved to log {system.log_registry.latest.log_of(moving)}; "
          f"log map: {system.log_registry.latest.assignment}; "
          f"get {keys[moving]} -> {record.result.value['value']!r}")


def main() -> None:
    config = SystemConfig.sharded(num_shards=2, num_clients=2,
                                  checkpoint_interval=8)
    system = ShardedSystem(config, KeyValueStore, seed=1)

    print("Deployment:")
    print(f"  agreement replicas : {config.num_agreement_nodes}  (3f+1, f={config.f})")
    print(f"  execution clusters : {config.num_execution_clusters} shards "
          f"x {config.num_execution_nodes} replicas  (2g+1, g={config.g})")
    print(f"  partitioning       : {config.sharding.strategy}")
    print()

    cities = {"lisbon": "PT", "austin": "US", "nagoya": "JP",
              "bergen": "NO", "quito": "EC", "dakar": "SN"}
    print("Storing six keys (the router picks each key's shard):")
    for key, value in cities.items():
        record = system.invoke(put(key, value))
        print(f"  put {key:<8} -> shard {system.shard_of_key(key)}   "
              f"latency={record.latency_ms:.2f} virtual ms")

    print()
    print("Each shard executed only its own slice of the agreed sequence:")
    for shard, executed in enumerate(system.requests_executed_by_shard()):
        replica = system.execution_node(shard, 0)
        keys = sorted(replica.app.snapshot())
        print(f"  shard {shard}: {executed} requests executed, state keys = {keys}")

    print()
    print("Crashing one execution replica in each shard (per-shard g=1 bound)...")
    system.crash_execution(0, 0)
    system.crash_execution(1, 2)
    for key, value in cities.items():
        record = system.invoke(get(key))
        assert record.result.value["value"] == value
        print(f"  get {key:<8} -> {record.result.value['value']}   "
              f"latency={record.latency_ms:.2f} virtual ms")

    print()
    print(f"All replies correct with one replica down per shard; "
          f"total requests executed: {system.total_requests_executed()}.")
    print(f"Per-shard load counters: {system.shard_load_total()}   "
          f"partition-map epoch: {system.partition_epoch()} "
          f"(hash partitioning never rebalances)")

    print()
    rebalancing_demo()
    print()
    multi_log_demo()


if __name__ == "__main__":
    main()
