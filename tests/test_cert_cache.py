"""Tests for the verified-certificate cache (the verification fast path).

Covers the satellite requirements: hit/miss accounting, charge-only-on-miss,
no cross-node leakage, Byzantine forgeries still rejected after a legitimate
certificate over the same statement was cached, and crypto-op counters
reflecting cached hits -- plus an end-to-end equivalence check that the fast
path changes no observable protocol result.
"""

import pytest

from conftest import CHEAP_CRYPTO, make_config
from repro.apps.kvstore import KeyValueStore, get as kv_get, put as kv_put
from repro.config import AuthenticationScheme, PerfConfig
from repro.crypto.cache import VerifiedCertificateCache
from repro.crypto.certificate import Authenticator, Certificate
from repro.crypto.keys import Keystore
from repro.crypto.provider import CryptoProvider
from repro.messages.request import ClientRequest
from repro.sharding import ShardedSystem
from repro.statemachine.interface import Operation
from repro.util.ids import agreement_id, client_id, execution_id


def sample_request(tag=0):
    return ClientRequest(operation=Operation(kind="null", args={"tag": tag}),
                         timestamp=1, client=client_id(0))


def recording_provider(keystore, node, perf=None):
    charges, ops = [], []
    provider = CryptoProvider(node, keystore, CHEAP_CRYPTO,
                              charge=charges.append, record=ops.append,
                              perf=perf)
    return provider, charges, ops


class TestCacheUnit:
    def test_bounded_lru_eviction(self):
        cache = VerifiedCertificateCache(capacity=2)
        cache.add(("a",))
        cache.add(("b",))
        cache.add(("c",))
        assert len(cache) == 2
        assert not cache.seen(("a",))
        assert cache.seen(("c",))

    def test_hit_miss_counters(self):
        cache = VerifiedCertificateCache()
        assert not cache.seen(("x",))
        cache.add(("x",))
        assert cache.seen(("x",))
        assert cache.hits == 1
        assert cache.misses == 1


class TestHitMissAccounting:
    def test_repeat_authenticator_verification_hits(self, keystore):
        signer, _, _ = recording_provider(keystore, client_id(0))
        verifier, charges, ops = recording_provider(keystore, agreement_id(0))
        request = sample_request()
        auth = signer.mac_authenticator(request, [agreement_id(0)])

        assert verifier.verify_mac(request, auth)
        assert ops.count("mac_verify") == 1
        charges_after_miss = list(charges)

        assert verifier.verify_mac(request, auth)
        # The hit is recorded but charges no virtual time at all (the digest
        # is memoised too, so not even hashing time is re-charged).
        assert ops.count("mac_verify") == 1
        assert ops.count("mac_verify_cached") == 1
        assert charges == charges_after_miss
        assert verifier.cache.hits == 1

    def test_repeat_certificate_verification_hits(self, keystore):
        signer, _, _ = recording_provider(keystore, client_id(0))
        verifier, charges, ops = recording_provider(keystore, agreement_id(1))
        request = sample_request()
        certificate = signer.new_certificate(
            request, AuthenticationScheme.MAC, [agreement_id(1)])

        assert verifier.verify_certificate(certificate, 1, [client_id(0)])
        charges_after_miss = list(charges)
        assert verifier.verify_certificate(certificate, 1, [client_id(0)])
        assert "certificate_cached" in ops
        assert charges == charges_after_miss

    def test_cache_disabled_recharges(self, keystore):
        signer, _, _ = recording_provider(keystore, client_id(0))
        verifier, _, ops = recording_provider(
            keystore, agreement_id(0),
            perf=PerfConfig(verified_cert_cache=False, digest_memo=False))
        assert verifier.cache is None
        request = sample_request()
        auth = signer.mac_authenticator(request, [agreement_id(0)])
        assert verifier.verify_mac(request, auth)
        assert verifier.verify_mac(request, auth)
        assert ops.count("mac_verify") == 2
        assert "mac_verify_cached" not in ops


class TestEverySchemeCaches:
    """Every kind of fact a node checks -- a MAC, a signature, a threshold
    share and a combined group signature -- is charged the first time the
    node checks it and read from its cache after."""

    FACT_OPS = {AuthenticationScheme.MAC: "mac_verify",
                AuthenticationScheme.SIGNATURE: "signature_verify",
                AuthenticationScheme.THRESHOLD: "threshold_share_verify"}

    @staticmethod
    def _group(keystore):
        members = [execution_id(i) for i in range(3)]
        keystore.create_threshold_group("exec", members, 2)
        return members

    @pytest.mark.parametrize("scheme", list(AuthenticationScheme),
                             ids=lambda scheme: scheme.value)
    def test_each_authenticator_is_charged_once(self, keystore, scheme):
        members = self._group(keystore)
        first, second = (recording_provider(keystore, member)[0]
                         for member in members[:2])
        certificate = first.new_certificate(sample_request(), scheme,
                                            [agreement_id(0)], threshold_group="exec")
        second.authenticate(certificate, [agreement_id(0)])
        verifier, charges, ops = recording_provider(keystore, agreement_id(0))
        op = self.FACT_OPS[scheme]

        assert sorted(verifier.valid_signers(certificate)) == members[:2]
        assert ops.count(op) == 2 and charges
        del charges[:], ops[:]
        assert sorted(verifier.valid_signers(certificate)) == members[:2]
        assert charges == []
        assert [name for name in ops if name != "digest_cached"] == [op + "_cached"] * 2

    def test_a_combined_signature_is_charged_once_and_a_forged_one_never_hits(
            self, keystore):
        members = self._group(keystore)
        request = sample_request()
        sharers = [recording_provider(keystore, member)[0] for member in members[:2]]
        shares = [sharer.threshold_share(request, "exec") for sharer in sharers]
        signature = sharers[0].threshold_combine(request, "exec", shares)
        verifier, charges, ops = recording_provider(keystore, client_id(1))

        assert verifier.verify_threshold_signature(request, signature, "exec")
        charged = list(charges)
        assert verifier.verify_threshold_signature(request, signature, "exec")
        assert ops.count("threshold_verify") == 1
        assert ops.count("threshold_verify_cached") == 1
        assert charges == charged
        # the fact names the signature bytes: a forgery checks, and fails
        assert not verifier.verify_threshold_signature(
            request, bytes(len(signature)), "exec")
        assert ops.count("threshold_verify") == 2
        assert len(charges) > len(charged)

    def test_certificates_of_every_scheme_recheck_for_free(self, keystore):
        """A MAC, a signature and a threshold certificate, each checked
        whole and signer by signer: the second round charges nothing and
        records only cached operations, of all four kinds."""
        members = self._group(keystore)
        verifier_id = agreement_id(0)
        mac_cert = recording_provider(keystore, client_id(0))[0].new_certificate(
            sample_request(0), AuthenticationScheme.MAC, [verifier_id])
        sig_cert = recording_provider(keystore, agreement_id(1))[0].new_certificate(
            sample_request(1), AuthenticationScheme.SIGNATURE, [])
        sharers = [recording_provider(keystore, member)[0] for member in members[:2]]
        tsig_cert = sharers[0].new_certificate(
            sample_request(2), AuthenticationScheme.THRESHOLD, [],
            threshold_group="exec")
        sharers[1].authenticate(tsig_cert, [])
        tsig_cert.threshold_signature = sharers[1].threshold_combine(
            tsig_cert.payload, "exec", tsig_cert.authenticator_list())
        verifier, charges, ops = recording_provider(keystore, verifier_id)

        def check_all():
            assert verifier.verify_certificate(mac_cert, 1, [client_id(0)])
            assert verifier.verify_certificate(sig_cert, 1, [agreement_id(1)])
            assert verifier.verify_certificate(tsig_cert, 2)
            for certificate in (mac_cert, sig_cert, tsig_cert):
                assert len(verifier.valid_signers(certificate)) == len(
                    certificate.authenticators)

        check_all()
        assert charges
        del charges[:], ops[:]
        check_all()
        assert charges == []
        assert ops and all(name.endswith("_cached") for name in ops)
        assert {"mac_verify_cached", "signature_verify_cached",
                "threshold_share_verify_cached",
                "threshold_verify_cached"} <= set(ops)


class TestNoCrossNodeLeakage:
    def test_each_node_pays_for_its_own_first_verification(self, keystore):
        """A node must not benefit from another node's verification."""
        signer, _, _ = recording_provider(keystore, client_id(0))
        node_a, _, ops_a = recording_provider(keystore, agreement_id(0))
        node_b, _, ops_b = recording_provider(keystore, agreement_id(1))
        request = sample_request()
        auth = signer.mac_authenticator(request, [agreement_id(0), agreement_id(1)])

        assert node_a.verify_mac(request, auth)
        assert node_a.verify_mac(request, auth)
        # B's cache is empty even though A has verified the same authenticator.
        assert node_b.cache.hits == 0
        assert node_b.verify_mac(request, auth)
        assert ops_b.count("mac_verify") == 1
        assert "mac_verify_cached" not in ops_b
        # And B pays its own digest charge despite A having hashed the message.
        assert ops_b.count("digest") == 1


class TestByzantineForgery:
    def test_forged_authenticator_rejected_after_legitimate_cache(self, keystore):
        """Caching a legitimate certificate must not admit a forgery over the
        same statement claiming a *different* signer."""
        signer, _, _ = recording_provider(keystore, client_id(0))
        verifier, _, _ = recording_provider(keystore, agreement_id(0))
        request = sample_request()
        legit = signer.new_certificate(request, AuthenticationScheme.MAC,
                                       [agreement_id(0)])
        assert verifier.verify_certificate(legit, 1, [client_id(0)])

        forged = Certificate(payload=request, scheme=AuthenticationScheme.MAC)
        forged.add(Authenticator(
            signer=client_id(1), scheme=AuthenticationScheme.MAC,
            token={agreement_id(0).name: b"\x00" * 32}))
        assert not verifier.verify_certificate(forged, 1, [client_id(1)])
        # Repeating the forgery still fails: failures are never cached.
        assert not verifier.verify_certificate(forged, 1, [client_id(1)])

    def test_forgery_cannot_raise_quorum_count(self, keystore):
        signer, _, _ = recording_provider(keystore, client_id(0))
        verifier, _, _ = recording_provider(keystore, execution_id(0))
        request = sample_request()
        certificate = signer.new_certificate(request, AuthenticationScheme.MAC,
                                             [execution_id(0)])
        assert verifier.verify_certificate(certificate, 1)
        # Add a forged second authenticator: the cached fact for the first
        # signer must not make the forged one count toward a 2-quorum.
        certificate.add(Authenticator(
            signer=client_id(1), scheme=AuthenticationScheme.MAC,
            token={execution_id(0).name: b"\x01" * 32}))
        assert not verifier.verify_certificate(certificate, 2)

    def test_forged_different_payload_rejected(self, keystore):
        signer, _, _ = recording_provider(keystore, client_id(0))
        verifier, _, _ = recording_provider(keystore, agreement_id(0))
        auth = signer.mac_authenticator(sample_request(0), [agreement_id(0)])
        assert verifier.verify_mac(sample_request(0), auth)
        # Same signer, cached success -- but a different payload misses.
        assert not verifier.verify_mac(sample_request(1), auth)

    @pytest.mark.parametrize("scheme", list(AuthenticationScheme),
                             ids=lambda scheme: scheme.value)
    def test_an_authenticator_over_another_payload_fails(self, keystore, scheme):
        """An authenticator names no digest, so its token alone must refuse
        a payload it was not made over: one made over P and attached to a
        certificate over P' fails, and caches no fact."""
        keystore.create_threshold_group(
            "exec", [execution_id(i) for i in range(3)], 2)
        signer, _, _ = recording_provider(keystore, execution_id(0))
        verifier, _, _ = recording_provider(keystore, agreement_id(0))
        original = signer.new_certificate(sample_request(0), scheme,
                                          [agreement_id(0)], threshold_group="exec")
        moved = original.with_payload(sample_request(1))

        assert not verifier.verify_certificate(moved, 1, [execution_id(0)])
        assert len(verifier.cache) == 0
        assert not verifier.verify_certificate(moved, 1, [execution_id(0)])
        # the same authenticator over its own payload is genuine
        assert verifier.verify_certificate(original, 1, [execution_id(0)])


class TestEndToEndEquivalence:
    @staticmethod
    def _run(perf: PerfConfig):
        from repro.config import ShardingConfig

        config = make_config(num_clients=2, perf=perf,
                             sharding=ShardingConfig(num_shards=2))
        system = ShardedSystem(config, KeyValueStore, seed=11)
        operations = [kv_put("alpha", "1"), kv_put("beta", "2"),
                      kv_get("alpha"), kv_get("beta"), kv_get("missing")]
        results = [system.invoke(op, client_index=i % 2).result.value
                   for i, op in enumerate(operations)]
        return system, results

    def test_fast_path_changes_no_results_and_hits(self):
        fast_system, fast_results = self._run(PerfConfig())
        slow_system, slow_results = self._run(
            PerfConfig(verified_cert_cache=False, digest_memo=False,
                       shard_verify_owned_only=False))
        assert fast_results == slow_results
        hits = sum(replica.crypto.cache.hits
                   for replica in fast_system.agreement_replicas)
        assert hits > 0
        # The cached hits show up in the crypto-op counters.
        totals = fast_system.crypto_op_totals()
        assert any(op.endswith("_cached") for op in totals)


class TestColocatedCacheSharing:
    """Deployment.SAME shares one cache between co-located roles: a machine
    trusts its own verifications, so a fact proven while playing the
    agreement role is a hit when the same machine's execution role checks
    the same certificate."""

    def test_cross_role_hit_with_shared_cache(self, keystore):
        signer, _, _ = recording_provider(keystore, client_id(0))
        agreement_role, _, agreement_ops = recording_provider(
            keystore, agreement_id(0))
        execution_role, execution_charges, execution_ops = recording_provider(
            keystore, execution_id(0))
        execution_role.cache = agreement_role.cache  # one machine, one cache

        request = sample_request()
        certificate = signer.new_certificate(
            request, AuthenticationScheme.MAC, [agreement_id(0), execution_id(0)])
        assert agreement_role.verify_certificate(certificate, 1, [client_id(0)])
        assert agreement_ops.count("mac_verify") == 1

        charges_before = list(execution_charges)
        assert execution_role.verify_certificate(certificate, 1, [client_id(0)])
        # The execution role never re-ran the MAC check: the whole-certificate
        # fact proven by the co-located agreement role was a cache hit (the
        # per-authenticator facts are shared the same way).  Only its one-time
        # digest of the payload is charged, never the MAC cost.
        assert execution_ops.count("mac_verify") == 0
        assert execution_ops.count("certificate_cached") == 1
        new_charges = execution_charges[len(charges_before):]
        assert sum(new_charges) < CHEAP_CRYPTO.mac_ms

    def test_separate_caches_pay_twice(self, keystore):
        signer, _, _ = recording_provider(keystore, client_id(0))
        agreement_role, _, _ = recording_provider(keystore, agreement_id(0))
        execution_role, _, execution_ops = recording_provider(
            keystore, execution_id(0))

        request = sample_request()
        certificate = signer.new_certificate(
            request, AuthenticationScheme.MAC, [agreement_id(0), execution_id(0)])
        assert agreement_role.verify_certificate(certificate, 1, [client_id(0)])
        assert execution_role.verify_certificate(certificate, 1, [client_id(0)])
        assert execution_ops.count("mac_verify") == 1  # paid its own check

    def test_same_deployment_shares_and_different_does_not(self):
        from repro.config import Deployment
        from repro.core import SeparatedSystem

        same = SeparatedSystem(make_config(deployment=Deployment.SAME),
                               KeyValueStore, seed=21)
        for replica, node in zip(same.agreement_replicas, same.execution_nodes):
            assert node.crypto.cache is replica.crypto.cache
        same.invoke(kv_put("k", "v"))
        # The execution roles benefited from agreement-role verifications.
        cached_ops = sum(
            node.stats.crypto_ops.get("mac_verify_cached", 0)
            + node.stats.crypto_ops.get("certificate_cached", 0)
            for node in same.execution_nodes)
        assert cached_ops > 0

        different = SeparatedSystem(make_config(), KeyValueStore, seed=21)
        for replica, node in zip(different.agreement_replicas,
                                 different.execution_nodes):
            assert node.crypto.cache is not replica.crypto.cache
