"""Tests for the cryptographic substrate: digests, keys, MACs, signatures,
threshold signatures, and authentication certificates."""

import dataclasses
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import AuthenticationScheme, CryptoCosts
from repro.crypto.certificate import Certificate
from repro.crypto.digest import combine_digests, digest, digest_hex
from repro.crypto.keys import Keystore
from repro.crypto.provider import CryptoProvider
from repro.errors import CertificateError, CryptoError, UnknownKeyError, VerificationError
from repro.messages.request import ClientRequest
from repro.statemachine.interface import Operation
from repro.util.ids import agreement_id, client_id, execution_id, firewall_id


@pytest.fixture
def keystore():
    return Keystore()


def provider(keystore, node):
    return CryptoProvider(node, keystore)


def sample_request(tag=0):
    return ClientRequest(operation=Operation(kind="null", args={"tag": tag}),
                         timestamp=1, client=client_id(0))


class TestDigest:
    def test_fixed_length(self):
        assert len(digest(b"hello")) == 32
        assert len(digest({"a": 1})) == 32

    def test_deterministic_and_distinct(self):
        assert digest({"a": 1}) == digest({"a": 1})
        assert digest({"a": 1}) != digest({"a": 2})

    def test_hex_form(self):
        assert digest_hex(b"x") == digest(b"x").hex()

    def test_combine_digests_order_sensitive(self):
        a, b = digest(b"a"), digest(b"b")
        assert combine_digests(a, b) != combine_digests(b, a)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_collision_free_on_samples(self, x, y):
        if x != y:
            assert digest(x) != digest(y)


class TestKeystore:
    def test_register_is_idempotent(self, keystore):
        node = client_id(0)
        keystore.register_node(node)
        key1 = keystore.private_key(node)
        keystore.register_node(node)
        assert keystore.private_key(node) == key1

    def test_unknown_key_raises(self, keystore):
        with pytest.raises(UnknownKeyError):
            keystore.private_key(client_id(9))

    def test_distinct_nodes_have_distinct_keys(self, keystore):
        keystore.register_node(client_id(0))
        keystore.register_node(client_id(1))
        assert keystore.private_key(client_id(0)) != keystore.private_key(client_id(1))

    def test_pair_secret_symmetric(self, keystore):
        a, b = client_id(0), agreement_id(1)
        keystore.register_node(a)
        keystore.register_node(b)
        assert keystore.pair_secret(a, b) == keystore.pair_secret(b, a)

    def test_pair_secret_distinct_pairs(self, keystore):
        nodes = [client_id(0), agreement_id(0), agreement_id(1)]
        for node in nodes:
            keystore.register_node(node)
        assert keystore.pair_secret(nodes[0], nodes[1]) != keystore.pair_secret(nodes[0], nodes[2])

    def test_threshold_group_creation(self, keystore):
        members = [execution_id(i) for i in range(3)]
        group = keystore.create_threshold_group("g", members, 2)
        assert group.threshold == 2
        assert set(group.members) == set(members)
        assert keystore.create_threshold_group("g", members, 2) is group

    def test_threshold_group_conflicting_parameters_rejected(self, keystore):
        members = [execution_id(i) for i in range(3)]
        keystore.create_threshold_group("g", members, 2)
        with pytest.raises(CryptoError):
            keystore.create_threshold_group("g", members, 3)

    def test_threshold_bounds_validated(self, keystore):
        members = [execution_id(i) for i in range(3)]
        with pytest.raises(CryptoError):
            keystore.create_threshold_group("bad", members, 0)
        with pytest.raises(CryptoError):
            keystore.create_threshold_group("bad", members, 4)

    def test_share_key_only_for_members(self, keystore):
        group = keystore.create_threshold_group("g", [execution_id(0), execution_id(1)], 2)
        with pytest.raises(UnknownKeyError):
            group.share_key(execution_id(2))


class TestMacAuthenticators:
    def test_round_trip(self, keystore):
        signer = provider(keystore, client_id(0))
        verifier = provider(keystore, agreement_id(0))
        request = sample_request()
        auth = signer.mac_authenticator(request, [agreement_id(0), agreement_id(1)])
        assert verifier.verify_mac(request, auth)

    def test_wrong_payload_fails(self, keystore):
        signer = provider(keystore, client_id(0))
        verifier = provider(keystore, agreement_id(0))
        auth = signer.mac_authenticator(sample_request(0), [agreement_id(0)])
        assert not verifier.verify_mac(sample_request(1), auth)

    def test_unaddressed_destination_fails(self, keystore):
        signer = provider(keystore, client_id(0))
        other = provider(keystore, agreement_id(3))
        auth = signer.mac_authenticator(sample_request(), [agreement_id(0)])
        assert not other.verify_mac(sample_request(), auth)


class TestSignatures:
    def test_round_trip(self, keystore):
        signer = provider(keystore, execution_id(0))
        verifier = provider(keystore, client_id(0))
        request = sample_request()
        auth = signer.sign(request)
        assert verifier.verify_signature(request, auth)

    def test_tampered_payload_fails(self, keystore):
        signer = provider(keystore, execution_id(0))
        verifier = provider(keystore, client_id(0))
        auth = signer.sign(sample_request(0))
        assert not verifier.verify_signature(sample_request(1), auth)


class TestThresholdSignatures:
    def _group(self, keystore, threshold=2, size=3):
        members = [execution_id(i) for i in range(size)]
        keystore.create_threshold_group("exec", members, threshold)
        return members

    def test_combine_with_quorum(self, keystore):
        members = self._group(keystore)
        request = sample_request()
        shares = [provider(keystore, m).threshold_share(request, "exec")
                  for m in members[:2]]
        combiner = provider(keystore, agreement_id(0))
        signature = combiner.threshold_combine(request, "exec", shares)
        assert provider(keystore, client_id(0)).verify_threshold_signature(
            request, signature, "exec")

    def test_combine_without_quorum_fails(self, keystore):
        members = self._group(keystore)
        request = sample_request()
        shares = [provider(keystore, members[0]).threshold_share(request, "exec")]
        with pytest.raises(VerificationError):
            provider(keystore, agreement_id(0)).threshold_combine(request, "exec", shares)

    def test_duplicate_shares_do_not_count_twice(self, keystore):
        members = self._group(keystore)
        request = sample_request()
        share = provider(keystore, members[0]).threshold_share(request, "exec")
        with pytest.raises(VerificationError):
            provider(keystore, agreement_id(0)).threshold_combine(
                request, "exec", [share, share])

    def test_combined_value_independent_of_share_subset(self, keystore):
        """The paper relies on threshold signatures being deterministic so the
        certificate encoding cannot leak which replicas contributed."""
        members = self._group(keystore, threshold=2, size=3)
        request = sample_request()
        combiner = provider(keystore, agreement_id(0))
        shares_a = [provider(keystore, m).threshold_share(request, "exec")
                    for m in members[:2]]
        shares_b = [provider(keystore, m).threshold_share(request, "exec")
                    for m in members[1:]]
        assert combiner.threshold_combine(request, "exec", shares_a) == \
            combiner.threshold_combine(request, "exec", shares_b)

    def test_share_from_non_member_rejected(self, keystore):
        self._group(keystore)
        request = sample_request()
        outsider = provider(keystore, agreement_id(0))
        with pytest.raises(UnknownKeyError):
            outsider.threshold_share(request, "exec")

    def test_wrong_payload_signature_fails(self, keystore):
        members = self._group(keystore)
        combiner = provider(keystore, agreement_id(0))
        shares = [provider(keystore, m).threshold_share(sample_request(0), "exec")
                  for m in members[:2]]
        signature = combiner.threshold_combine(sample_request(0), "exec", shares)
        assert not combiner.verify_threshold_signature(sample_request(1), signature, "exec")


class TestCertificates:
    def test_mac_certificate_quorum(self, keystore):
        execs = [execution_id(i) for i in range(3)]
        request = sample_request()
        cert = Certificate(payload=request, scheme=AuthenticationScheme.MAC)
        for node in execs[:2]:
            provider(keystore, node).authenticate(cert, [client_id(0)])
        client = provider(keystore, client_id(0))
        assert client.verify_certificate(cert, 2, execs)
        assert not client.verify_certificate(cert, 3, execs)

    def test_signers_outside_universe_do_not_count(self, keystore):
        request = sample_request()
        cert = Certificate(payload=request, scheme=AuthenticationScheme.MAC)
        provider(keystore, agreement_id(0)).authenticate(cert, [client_id(0)])
        provider(keystore, execution_id(0)).authenticate(cert, [client_id(0)])
        client = provider(keystore, client_id(0))
        assert not client.verify_certificate(cert, 2, [execution_id(i) for i in range(3)])

    def test_duplicate_signer_counts_once(self, keystore):
        request = sample_request()
        cert = Certificate(payload=request, scheme=AuthenticationScheme.MAC)
        signer = provider(keystore, execution_id(0))
        signer.authenticate(cert, [client_id(0)])
        signer.authenticate(cert, [client_id(0)])
        assert cert.count() == 1

    def test_scheme_mismatch_rejected(self, keystore):
        request = sample_request()
        cert = Certificate(payload=request, scheme=AuthenticationScheme.MAC)
        auth = provider(keystore, execution_id(0)).sign(request)
        with pytest.raises(CertificateError):
            cert.add(auth)

    def test_require_certificate_raises(self, keystore):
        request = sample_request()
        cert = Certificate(payload=request, scheme=AuthenticationScheme.MAC)
        client = provider(keystore, client_id(0))
        with pytest.raises(VerificationError):
            client.require_certificate(cert, 1, [execution_id(0)])

    def test_threshold_certificate_with_signature_verifies(self, keystore):
        members = [execution_id(i) for i in range(3)]
        keystore.create_threshold_group("exec", members, 2)
        request = sample_request()
        cert = Certificate(payload=request, scheme=AuthenticationScheme.THRESHOLD,
                           threshold_group="exec")
        shares = [provider(keystore, m).threshold_share(request, "exec") for m in members[:2]]
        for share in shares:
            cert.add(share)
        combiner = provider(keystore, agreement_id(0))
        cert.threshold_signature = combiner.threshold_combine(request, "exec", shares)
        assert provider(keystore, client_id(1)).verify_certificate(cert, 2)


class TestCostAccounting:
    def test_operations_charge_costs(self, keystore):
        charges = []
        ops = []
        prov = CryptoProvider(execution_id(0), keystore, CryptoCosts(),
                              charge=charges.append, record=ops.append)
        members = [execution_id(i) for i in range(3)]
        keystore.create_threshold_group("exec", members, 2)
        request = sample_request()
        prov.mac_authenticator(request, [client_id(0)])
        prov.threshold_share(request, "exec")
        assert "mac_sign" in ops
        assert "threshold_share" in ops
        # The threshold share must be the dominant cost (15 ms by default).
        assert max(charges) == pytest.approx(15.0)


#: key material and tokens computed at the commit before the key schedule was
#: memoised and the MAC primitive became ``hmac.digest``: same bytes, fewer calls
GOLDEN_PAIR_SECRETS = {
    (client_id(3), agreement_id(0)):
        "d5c1d0876f14cf0c8e995c76948bec28ca6321b2dc8955a0ca8bbd0d4e7b9475",
    (execution_id(2), agreement_id(1)):
        "e1a2567fcfe29d60be7adbfd9ab3e55bf28fce7d292a22780dbbb2a3bb193063",
    (firewall_id(1, 0), execution_id(0)):
        "02d74f12d0a276c7a52f4af81b6362fea65c605cacb36b6385cb6c53fe7b60ab",
}
GOLDEN_PAYLOAD = {"op": "put", "key": "k", "value": b"v", "n": 7}


@pytest.fixture
def counted_macs(monkeypatch):
    """Calls of the one MAC primitive, whoever makes them."""
    calls = []
    real = hmac.digest

    def counting(key, data, algorithm):
        calls.append(data)
        return real(key, data, algorithm)

    monkeypatch.setattr(hmac, "digest", counting)
    return calls


class TestGoldenKeysAndTokens:
    def _exec_group(self, keystore):
        return keystore.create_threshold_group(
            "exec", [execution_id(i) for i in range(4)], 2)

    @pytest.mark.parametrize("pair", list(GOLDEN_PAIR_SECRETS),
                             ids=lambda pair: f"{pair[0].name}-{pair[1].name}")
    def test_pair_secrets(self, keystore, pair):
        a, b = pair
        assert not keystore.is_registered(a) and not keystore.is_registered(b)
        assert keystore.pair_secret(a, b).hex() == GOLDEN_PAIR_SECRETS[pair]
        assert keystore.pair_secret(b, a).hex() == GOLDEN_PAIR_SECRETS[pair]
        assert keystore.is_registered(a) and keystore.is_registered(b)

    def test_private_share_and_group_keys(self, keystore):
        group = self._exec_group(keystore)
        assert group.group_key.hex() == (
            "6295e45033add65512a6374c43feef2493351498efbb6f2c6fb64dde38bc1877")
        assert group.share_key(execution_id(1)).hex() == (
            "b7757c62a466c5980c5aa746df05a0256457d11c1f0e68f9aa85e953063d0fe5")
        keystore.register_node(agreement_id(0))
        assert keystore.private_key(agreement_id(0)).hex() == (
            "b652e01b48a4bd852dafea3fc7e3dde372d1f9f6eeb2051883b8eb99bdbb51c3")

    def test_tokens(self, keystore):
        self._exec_group(keystore)
        node = provider(keystore, execution_id(1))
        auth = node.mac_authenticator(GOLDEN_PAYLOAD, [agreement_id(0), client_id(3)])
        assert node.payload_digest(GOLDEN_PAYLOAD).hex() == (
            "748145a4f5640eb15a5e2eec88a1797db04feb26fafdca8a426b359e15d99701")
        assert {name: token.hex() for name, token in auth.token.items()} == {
            "A0": "452140b7ade72b7f25bcff7a2931e8431d883c9de31fa03df56f9f24faff8165",
            "C3": "93b78f8d3f7a68f6e2a52affeee0ac6c908a76ba3049d174d4086c7f53fd7142",
        }
        assert list(auth.token) == ["A0", "C3"]
        assert node.sign(GOLDEN_PAYLOAD).token.hex() == (
            "8c3f7a56d538afd524c1822dbf0d9dadbe132b8d00d6e29b386c1c42ada5ee5d")
        assert node.threshold_share(GOLDEN_PAYLOAD, "exec").token.hex() == (
            "f12775e3f2ef15fbedc2959f0ced15c622763db39629c2fea9ee6d2b8530a1a3")
        shares = [provider(keystore, execution_id(i)).threshold_share(GOLDEN_PAYLOAD, "exec")
                  for i in (0, 1)]
        assert node.threshold_combine(GOLDEN_PAYLOAD, "exec", shares).hex() == (
            "24e09ca7703931589d6023123eac86f998820339eda8b28552dc6f79e0d53530")


class TestKeysAreDerivedOnce:
    """Counts, not timings: what a message costs in MACs once the deployment's
    keys have been asked for once."""

    def test_repeated_pair_costs_no_mac(self, keystore, counted_macs):
        a, b = client_id(0), agreement_id(1)
        secret = keystore.pair_secret(a, b)
        # one MAC per label: node/<name> twice, then pair/<first>/<second>
        assert len(counted_macs) == 2 + 2 + 3
        assert keystore.pair_secret(a, b) is secret
        assert keystore.pair_secret(b, a) is secret
        assert len(counted_macs) == 7

    def test_share_and_group_keys_cost_no_mac_when_repeated(self, keystore, counted_macs):
        members = [execution_id(i) for i in range(3)]
        group = keystore.create_threshold_group("g", members, 2)
        share = group.share_key(members[0])
        derived = len(counted_macs)
        assert keystore.create_threshold_group("g", members, 2) is group
        assert group.share_key(members[0]) is share
        assert len(counted_macs) == derived

    def test_mac_authenticator_costs_one_mac_per_destination(self, keystore, counted_macs):
        signer = provider(keystore, client_id(0))
        verifier = provider(keystore, agreement_id(2))
        destinations = [agreement_id(i) for i in range(4)]
        signer.mac_authenticator(sample_request(0), destinations)
        del counted_macs[:]
        request = sample_request(1)
        auth = signer.mac_authenticator(request, destinations)
        assert counted_macs == [digest(request)] * 4
        del counted_macs[:]
        assert verifier.verify_mac(request, auth)
        assert counted_macs == [digest(request)]
        assert verifier.verify_mac(request, auth)   # a proven fact: no MAC at all
        assert len(counted_macs) == 1

    def test_reply_mac_vector_addresses_the_bundle_not_the_deployment(self, counted_macs):
        """A one-request reply bundle is MACed for the 3f + 1 agreement
        nodes and the one client it answers -- 5 HMACs, however many clients
        the deployment has (it used to be 4 + num_clients)."""
        from conftest import make_config
        from repro.apps.counter import CounterService, increment
        from repro.core import SeparatedSystem

        system = SeparatedSystem(make_config(num_clients=8), CounterService, seed=5)
        system.invoke(increment(1))
        node = system.execution_nodes[0]
        last = node.reply_table[system.clients[0].node_id]
        body = node._make_reply_body(last.view, last.seq, (last,))
        del counted_macs[:]
        sent = node._send_reply(body)
        (authenticator,) = sent.certificate.authenticators.values()
        assert counted_macs == [digest(sent.certificate.payload)] * 5
        assert sorted(authenticator.token) == ["A0", "A1", "A2", "A3", "C0"]


def _agreement_vectors(deployment):
    """A system of ``deployment`` after two commits, and the agreement-
    certificate authenticators its commits carried on the wire."""
    from conftest import make_config
    from repro.apps.counter import CounterService, increment
    from repro.config import ShardingConfig
    from repro.core import CoupledSystem, SeparatedSystem
    from repro.messages.agreement import CommitMsg
    from repro.sharding import ShardedSystem

    overrides = {"firewall": dict(use_privacy_firewall=True,
                                  authentication=AuthenticationScheme.THRESHOLD),
                 "sharded": dict(sharding=ShardingConfig(num_shards=2))}
    config = make_config(checkpoint_interval=1_000, **overrides.get(deployment, {}))
    build = {"separated": SeparatedSystem, "firewall": SeparatedSystem,
             "sharded": ShardedSystem, "base": CoupledSystem}[deployment]
    system = build(config, CounterService, seed=5)
    carried = []

    def tap(src, dst, message):
        if isinstance(message, CommitMsg):
            carried.append(message.cert_authenticator)

    system.network.add_tap(tap)
    for _ in range(2):
        system.invoke(increment(1))
    return system, carried


def _wire_frames(lose_direct_replies=False):
    """A separated system after one commit (its warm-up excluded), and
    ``(source, destination, message)`` of every frame the commit sent;
    with ``lose_direct_replies`` the replicas' replies to the client are
    dropped, so it retransmits and the queues pass the request on."""
    from conftest import make_config
    from repro.apps.counter import CounterService, increment
    from repro.core import SeparatedSystem
    from repro.net.network import DROP

    system = SeparatedSystem(make_config(checkpoint_interval=1_000),
                             CounterService, seed=5)
    system.invoke(increment(1))
    system.run(50.0)
    frames = []

    def tap(src, dst, message):
        if (lose_direct_replies and src in system.execution_ids
                and type(message).__name__ == "ClientReply"):
            return DROP
        frames.append((src, dst, message))
        return None

    system.network.add_tap(tap)
    system.invoke(increment(1))
    system.run(50.0)
    return system, frames


def _bodiless_reply(system):
    """Execution replica 0's bodiless ``BatchReply`` over the client's last
    reply, its MAC vector whole."""
    from repro.messages.reply import BatchReply

    node = system.execution_nodes[0]
    last = node.reply_table[system.clients[0].node_id]
    body = node._make_reply_body(last.view, last.seq, (last,))
    return BatchReply(seq=body.seq, sender=node.node_id,
                      certificate=node._partial_certificate(body).with_payload(
                          body.view_for(None)))


def _names(carrier):
    """Every node name the MAC vectors of ``carrier`` (a certificate, or a
    reply message's) carry an entry for, sorted."""
    certificate = getattr(carrier, "certificate", carrier)
    names = {name for authenticator in certificate.authenticators.values()
             for name in authenticator.token}
    return sorted(names)


class TestWhoEachVectorAddresses:
    """An agreement certificate is checked where a batch is executed or
    filtered (``agreed_batch``), so a commit's authenticator addresses the
    execution replicas, and the filter nodes behind a firewall -- never the
    agreement nodes, which only count the commits."""

    def test_a_separated_commit_costs_one_mac_per_execution_replica(self, counted_macs):
        system, carried = _agreement_vectors("separated")
        assert carried and all(sorted(auth.token) == ["E0", "E1", "E2"]
                               for auth in carried)
        replica = system.agreement_replicas[1]
        body = replica._cert_body(replica.log.existing_entry(0, 1))
        del counted_macs[:]
        authenticator = replica._make_cert_authenticator(body)
        assert counted_macs == [digest(body)] * 3
        assert sorted(authenticator.token) == ["E0", "E1", "E2"]

    @pytest.mark.parametrize("deployment", ["firewall", "sharded"])
    def test_a_commit_names_the_nodes_that_check_agreement(self, deployment):
        system, carried = _agreement_vectors(deployment)
        checkers = system.execution_ids + (
            system.firewall_ids if deployment == "firewall" else [])
        assert carried and all(
            sorted(auth.token) == sorted(node.name for node in checkers)
            for auth in carried)

    def test_a_base_commit_carries_no_authenticator(self):
        system, carried = _agreement_vectors("base")
        assert len(carried) == 2 * 12 and set(carried) == {None}

    def test_a_map_change_still_names_the_agreement_nodes_and_commits(self):
        from conftest import make_config
        from repro.apps.kvstore import KeyValueStore
        from repro.config import RebalanceConfig, ShardingConfig
        from repro.messages.agreement import PrePrepare
        from repro.sharding import MapChange, ShardedSystem

        config = make_config(
            sharding=ShardingConfig(num_shards=2, strategy="range",
                                    range_boundaries=("m",)),
            rebalance=RebalanceConfig(enabled=True, min_window_requests=10**9))
        system = ShardedSystem(config, KeyValueStore, seed=21)
        proposed = []

        def tap(src, dst, message):
            if isinstance(message, PrePrepare):
                proposed.extend(message.requests)

        system.network.add_tap(tap)
        primary = system.agreement_replicas[0]
        assert primary.proposer.propose_map_change(
            MapChange(kind="split", parent_epoch=0, key="f", owner=1))
        system.run(300.0)
        assert system.partition_epoch() == 1
        (certificate,) = {id(cert): cert for cert in proposed}.values()
        (authenticator,) = certificate.authenticators.values()
        assert sorted(authenticator.token) == sorted(
            node.name for node in system.agreement_ids + system.execution_ids)

    # A frame carries its receiver's entry and those of the nodes it relays
    # to: checked on the frames of a fault-free commit and of a
    # retransmission the queues pass on (every direct reply lost).

    def test_a_batch_reply_names_only_the_agreement_node_it_goes_to(self):
        """Each replica's bodiless partial goes to the primary alone and
        names it and the backups it relays the certificate to; each relay
        carries the g + 1 authenticators, naming the backup it goes to.
        (Before the primary relayed, each of the 3 x 4 upstream frames
        named its receiver alone.)"""
        system, frames = _wire_frames()
        primary = system.agreement_ids[0]
        replies = [(src, dst, msg) for src, dst, msg in frames
                   if type(msg).__name__ == "BatchReply"]
        upstream = [(dst, msg) for src, dst, msg in replies
                    if src in system.execution_ids]
        relayed = [(dst, msg) for src, dst, msg in replies if src == primary]
        assert len(upstream) == 3 and len(relayed) == 3 == len(replies) - 3
        everyone = sorted(node.name for node in system.agreement_ids)
        assert all(dst == primary and _names(msg) == everyone
                   for dst, msg in upstream)
        assert sorted(dst for dst, _ in relayed) == system.agreement_ids[1:]
        assert all(_names(msg) == [dst.name]
                   and len(msg.certificate.authenticators) == system.config.reply_quorum
                   for dst, msg in relayed)

    def test_a_client_reply_names_only_its_client(self):
        system, frames = _wire_frames()
        replies = [(dst, msg) for _, dst, msg in frames
                   if type(msg).__name__ == "ClientReply"]
        assert len(replies) == 3
        assert all(_names(msg) == [dst.name] for dst, msg in replies)

    def test_a_retry_answer_names_the_queue_and_the_client(self):
        system, frames = _wire_frames(lose_direct_replies=True)
        client = system.clients[0].node_id
        answers = [(dst, msg) for src, dst, msg in frames
                   if type(msg).__name__ == "BatchReply" and msg.body.carried]
        assert answers and all(_names(msg) == sorted([dst.name, client.name])
                               for dst, msg in answers)
        relayed = [(dst, msg) for src, dst, msg in frames
                   if type(msg).__name__ == "ClientReply"
                   and src in system.agreement_ids]
        assert len(relayed) == len(system.agreement_ids)
        assert all(len(msg.certificate.authenticators) == system.config.reply_quorum
                   and _names(msg) == [client.name] for _, msg in relayed)

    def test_a_downstream_request_certificate_names_no_agreement_node(self):
        system, frames = _wire_frames()
        batches = [msg for _, _, msg in frames
                   if type(msg).__name__ == "OrderedBatch"]
        assert batches and all(
            _names(certificate) == ["E0", "E1", "E2"]
            for batch in batches for certificate in batch.request_certificates)

    def test_pre_prepare_and_commit_vectors_stay_whole(self):
        """A backup re-validates a re-proposed request after a view change,
        so a PRE-PREPARE's request certificates keep the agreement nodes'
        entries; a backup that retransmits a batch assembles the agreement
        certificate itself, so every COMMIT carries every execution
        replica's entry -- neither is cut per receiver."""
        system, frames = _wire_frames()
        requests = [certificate for _, _, msg in frames
                    if type(msg).__name__ == "PrePrepare"
                    for certificate in msg.requests]
        commits = [msg for _, _, msg in frames if type(msg).__name__ == "CommitMsg"]
        verifiers = sorted(node.name for node in system.clients[0].request_verifiers)
        assert requests and all(_names(cert) == verifiers for cert in requests)
        assert len(commits) == 12 and all(
            sorted(msg.cert_authenticator.token) == ["E0", "E1", "E2"]
            for msg in commits)

    def test_a_cut_keeps_the_named_entries_and_shares_the_payload(self, keystore):
        """``addressed_to`` keeps each MAC vector's entries for the nodes it
        names, leaves a vector it need not cut (and a signature) as the
        very object it was, and attaches the same payload object."""
        request = sample_request(0)
        nodes = [agreement_id(0), agreement_id(1), execution_id(0)]
        certificate = provider(keystore, client_id(0)).new_certificate(
            request, AuthenticationScheme.MAC, nodes)
        whole = certificate.authenticators[client_id(0)]
        cut = certificate.addressed_to((execution_id(0), client_id(3)))
        assert cut.payload is request and cut is not certificate
        assert cut.authenticators[client_id(0)].token == {"E0": whole.token["E0"]}
        assert certificate.authenticators[client_id(0)] is whole
        assert certificate.addressed_to(nodes).authenticators[client_id(0)] is whole
        signed = provider(keystore, agreement_id(2)).new_certificate(
            request, AuthenticationScheme.SIGNATURE, [])
        assert (signed.addressed_to(nodes[:1]).authenticators[agreement_id(2)]
                is signed.authenticators[agreement_id(2)])

    @pytest.mark.parametrize("token", [
        "lacking", "short-mac", "not-a-vector"])
    def test_frames_of_other_shapes_are_each_encoded(self, token):
        """Where the cut vectors differ in length, or the codec carries one
        in the tagged form, each frame is still cut and sized as its own
        encoding (the relay's frames on the wire:
        ``test_codec.py::TestRelayedReplyFrames``)."""
        from conftest import make_config
        from repro.apps.counter import CounterService, increment
        from repro.core import SeparatedSystem
        from repro.crypto.certificate import Authenticator
        from repro.util.encoding import canonical_encode

        system = SeparatedSystem(make_config(), CounterService, seed=5)
        system.invoke(increment(1))
        whole = _bodiless_reply(system)
        (signer, own), = whole.certificate.authenticators.items()
        last = system.agreement_ids[-1].name
        vector = dict(own.token)
        if token == "lacking":
            del vector[last]
        elif token == "short-mac":
            vector[last] = vector[last][:8]
        else:
            vector = b"share"
        whole.certificate.authenticators[signer] = Authenticator(
            signer, own.scheme, vector)
        frames = whole.addressed_to_each(system.agreement_ids)
        assert all(getattr(frame, "_wire", None) is None for frame in frames)
        assert all(frame.wire_size() == len(canonical_encode(frame))
                   for frame in frames)

    def test_cert_facts_hold_ids_and_share_their_sets(self, keystore):
        client = provider(keystore, client_id(0))
        execs = [execution_id(i) for i in range(3)]
        certificates = []
        for tag in range(2):
            cert = Certificate(payload=sample_request(tag), scheme=AuthenticationScheme.MAC)
            for node in execs[:2]:
                provider(keystore, node).authenticate(cert, [client_id(0)])
            assert client.verify_certificate(cert, 2, execs)
            certificates.append(cert)
        hits = client.cache.hits
        assert client.verify_certificate(certificates[0], 2, list(execs))
        assert client.cache.hits == hits + 1
        facts = [key for key in client.cache._facts if key[0] == "cert"]
        assert len(facts) == 2
        (_, _, _, signers_a, _, universe_a), (_, _, _, signers_b, _, universe_b) = facts
        assert signers_a == frozenset(execs[:2]) and universe_a == frozenset(execs)
        assert signers_a is signers_b and universe_a is universe_b
        assert all(node.name is node.name for node in signers_a)


MALFORMED_TOKENS = [b"raw", ["A0"], {"A0": "str"}, {"A0": 7}, "str", 7, None]


class TestMalformedTokens:
    """A token of the wrong shape is a failed verification, not an exception
    out of the node's handler (every provider here has a cold cache)."""

    @pytest.mark.parametrize("token", MALFORMED_TOKENS, ids=repr)
    def test_verify_mac(self, keystore, token):
        request = sample_request()
        auth = provider(keystore, client_id(0)).mac_authenticator(request, [agreement_id(0)])
        forged = dataclasses.replace(auth, token=token)
        assert not provider(keystore, agreement_id(0)).verify_mac(request, forged)

    @pytest.mark.parametrize("token", MALFORMED_TOKENS[1:], ids=repr)
    def test_verify_signature(self, keystore, token):
        request = sample_request()
        auth = provider(keystore, execution_id(0)).sign(request)
        forged = dataclasses.replace(auth, token=token)
        assert not provider(keystore, client_id(0)).verify_signature(request, forged)

    @pytest.mark.parametrize("token", MALFORMED_TOKENS[1:], ids=repr)
    def test_verify_threshold_share_and_signature(self, keystore, token):
        members = [execution_id(i) for i in range(3)]
        keystore.create_threshold_group("exec", members, 2)
        request = sample_request()
        share = provider(keystore, members[0]).threshold_share(request, "exec")
        forged = dataclasses.replace(share, token=token)
        verifier = provider(keystore, agreement_id(0))
        assert not verifier.verify_threshold_share(request, forged, "exec")
        assert not verifier.verify_threshold_signature(request, token, "exec")
        with pytest.raises(VerificationError):
            verifier.threshold_combine(request, "exec", [forged, forged])

    @pytest.mark.parametrize("token", MALFORMED_TOKENS, ids=repr)
    def test_certificate_does_not_verify(self, keystore, token):
        request = sample_request()
        signer = provider(keystore, client_id(0))
        keystore.create_threshold_group("exec", [client_id(0)], 1)
        for scheme in AuthenticationScheme:
            cert = signer.new_certificate(request, scheme, [agreement_id(0)],
                                          threshold_group="exec")
            assert provider(keystore, agreement_id(0)).verify_certificate(
                cert, 1, [client_id(0)])
            (auth,) = cert.authenticators.values()
            cert.authenticators[auth.signer] = dataclasses.replace(auth, token=token)
            if scheme is AuthenticationScheme.THRESHOLD:
                cert.threshold_signature = token
            assert not provider(keystore, agreement_id(0)).verify_certificate(
                cert, 1, [client_id(0)])
