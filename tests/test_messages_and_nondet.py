"""Tests for message formats, encrypted bodies, and nondeterminism handling."""

import dataclasses
import gc
import weakref
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import AuthenticationScheme
from repro.crypto.certificate import Certificate
from repro.crypto.digest import digest
from repro.crypto.keys import Keystore
from repro.crypto.provider import CryptoProvider
from repro.errors import FirewallError, ProtocolError
from repro.messages.agreement import (
    AgreementCertBody,
    AgreementCheckpoint,
    CommitMsg,
    NewView,
    OrderedBatch,
    Prepare,
    PreparedProof,
    PrePrepare,
    RoutedCertBody,
    ViewChange,
)
from repro.messages.checkpoint import (
    BatchTransfer,
    ExecCheckpointProof,
    ExecCheckpointShare,
    FetchBatch,
    StateTransfer,
    checkpoint_payload,
)
from repro.messages.reply import BatchReply, BatchReplyBody, ClientReply, ReplyBody
from repro.messages.request import ClientRequest, EncryptedBody, RequestEnvelope
from repro.net.codec import default_codec
from repro.multilog.messages import (
    CrossLogBinding,
    CrossLogBindingBody,
    CrossLogBindingFetch,
    LogMapChange,
)
from repro.sharding.messages import (
    CrossShardSubReply,
    CrossShardVote,
    CrossShardVoteFetch,
    MapChange,
    RangeFetch,
    RangeHandoff,
    ShardLocalBatch,
    SubReplyBody,
    vote_payload,
)
from repro.statemachine.interface import Operation, OperationResult
from repro.statemachine.nondet import AbstractionLayer, NonDeterminismResolver, NonDetInput
from repro.util.encoding import canonical_encode
from repro.util.ids import Role, agreement_id, client_id, execution_id
from repro.util.wirecache import WIRE_CACHE, wire_memo


def make_request(encrypted=False, timestamp=1, tag=0):
    operation = Operation(kind="put", args={"key": "secret", "tag": tag}, body_size=128)
    body = operation
    if encrypted:
        body = EncryptedBody(operation, readers=frozenset({Role.CLIENT, Role.EXECUTION}))
    return ClientRequest(operation=body, timestamp=timestamp, client=client_id(0))


class TestEncryptedBody:
    def test_authorized_roles_can_open(self):
        body = EncryptedBody(Operation(kind="x"),
                             readers=frozenset({Role.CLIENT, Role.EXECUTION}))
        assert body.open(Role.CLIENT).kind == "x"
        assert body.open(Role.EXECUTION).kind == "x"

    def test_unauthorized_roles_raise(self):
        body = EncryptedBody(Operation(kind="x"),
                             readers=frozenset({Role.CLIENT, Role.EXECUTION}))
        for role in (Role.AGREEMENT, Role.FIREWALL):
            with pytest.raises(FirewallError):
                body.open(role)

    def test_a_received_body_still_opens_for_its_readers_only(self):
        secret = Operation(kind="put", args={"password": "hunter2"})
        body = EncryptedBody(secret, readers=frozenset({Role.CLIENT}))
        codec = default_codec()
        received = codec.decode(Any, codec.encode(Any, body))
        assert received.open(Role.CLIENT) == secret
        with pytest.raises(FirewallError):
            received.open(Role.AGREEMENT)
        assert received.ciphertext_digest == body.ciphertext_digest

    def test_same_plaintext_same_digest(self):
        a = EncryptedBody(Operation(kind="x", args={"v": 1}))
        b = EncryptedBody(Operation(kind="x", args={"v": 1}))
        assert a.ciphertext_digest == b.ciphertext_digest


class TestRequestMessages:
    def test_request_digest_covers_timestamp_and_client(self):
        request = make_request()
        assert digest(request) != digest(make_request(timestamp=2))
        assert digest(request) != digest(ClientRequest(
            operation=request.operation, timestamp=1, client=client_id(1)))

    def test_padding_models_body_size(self):
        request = make_request()
        assert request.padding_bytes == 128
        assert request.wire_size() > 128

    def test_operation_visibility_by_role(self):
        request = make_request(encrypted=True)
        assert request.operation_for(Role.EXECUTION).kind == "put"
        with pytest.raises(FirewallError):
            request.operation_for(Role.AGREEMENT)

    def test_envelope_exposes_request(self):
        keystore = Keystore()
        client = CryptoProvider(client_id(0), keystore)
        request = make_request()
        cert = client.new_certificate(request, AuthenticationScheme.MAC, [agreement_id(0)])
        envelope = RequestEnvelope(certificate=cert)
        assert envelope.request is request
        assert envelope.wire_size() > 0


class TestReplyMessages:
    def _body(self, encrypted=False):
        result = OperationResult(value={"v": 1}, size=40)
        wrapped = result
        if encrypted:
            wrapped = EncryptedBody(result, readers=frozenset({Role.CLIENT, Role.EXECUTION}))
        reply = ReplyBody(view=0, seq=3, timestamp=1, client=client_id(0), result=wrapped)
        return BatchReplyBody(view=0, seq=3, replies=(reply,))

    def test_reply_for_client(self):
        body = self._body()
        assert body.reply_for(client_id(0)) is body.replies[0]
        assert body.reply_for(client_id(1)) is None

    def test_result_visibility(self):
        body = self._body(encrypted=True)
        reply = body.replies[0]
        assert reply.result_for(Role.CLIENT).value == {"v": 1}
        with pytest.raises(FirewallError):
            reply.result_for(Role.FIREWALL)

    def test_client_reply_padding(self):
        body = self._body()
        message = ClientReply(Certificate(payload=body,
                                          scheme=AuthenticationScheme.MAC))
        assert message.padding_bytes == 40


def _bundle(values, shard=None, epoch=None):
    """A reply bundle answering clients C0..Cn-1 with ``values``."""
    replies = tuple(
        ReplyBody(view=2, seq=7, timestamp=10 + index, client=client_id(index),
                  result=OperationResult(value=value, size=len(str(value))))
        for index, value in enumerate(values))
    return BatchReplyBody(view=2, seq=7, replies=replies, shard=shard, epoch=epoch)


def _certified(body, keystore, signers=2):
    """``body`` under MAC authenticators of ``signers`` execution replicas,
    addressed to every client it answers."""
    certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
    clients = [reply.client for reply in body.replies]
    for index in range(signers):
        CryptoProvider(execution_id(index), keystore).authenticate(
            certificate, clients)
    return certificate


_values = st.lists(st.one_of(st.integers(), st.text(max_size=40),
                             st.dictionaries(st.text(max_size=4), st.integers(),
                                             max_size=3)),
                   min_size=1, max_size=8)


class TestClientViewOfABundle:
    """The certified form of a bundle is its header plus per-reply digests,
    so a client can be handed its own reply and 32 bytes per sibling."""

    @given(values=_values, data=st.data(),
           shard=st.one_of(st.none(), st.integers(0, 7)))
    @settings(max_examples=60, deadline=None)
    def test_view_has_the_bundle_digest_and_nothing_else_does(self, values, data, shard):
        keystore = Keystore()
        body = _bundle(values, shard=shard, epoch=None if shard is None else 3)
        index = data.draw(st.integers(0, len(values) - 1))
        client = client_id(index)
        view = body.view_for(client)
        assert digest(view) == digest(body)
        assert view.carried == (body.replies[index],)
        assert view.reply_for(client) is body.replies[index]
        assert all(isinstance(entry, bytes) and len(entry) == 32
                   for position, entry in enumerate(view.replies)
                   if position != index)
        assert not view.complete or len(values) == 1

        verifier = CryptoProvider(client, keystore)
        certificate = _certified(body, keystore)
        assert len(verifier.valid_signers(certificate.with_payload(view))) == 2

        def rejected(replies):
            tampered = BatchReplyBody(view=view.view, seq=view.seq, shard=view.shard,
                                      epoch=view.epoch, replies=tuple(replies))
            return CryptoProvider(client, keystore).valid_signers(
                certificate.with_payload(tampered)) == []

        own = body.replies[index]
        altered = ReplyBody(view=own.view, seq=own.seq, timestamp=own.timestamp,
                            client=own.client,
                            result=OperationResult(value="FORGED", size=own.result.size))
        assert rejected(altered if position == index else entry
                        for position, entry in enumerate(view.replies))
        if len(values) > 1:
            sibling = (index + 1) % len(values)
            flipped = bytes([view.replies[sibling][0] ^ 1]) + view.replies[sibling][1:]
            assert rejected(flipped if position == sibling else entry
                            for position, entry in enumerate(view.replies))
            swapped = list(view.replies)
            swapped[index], swapped[sibling] = swapped[sibling], swapped[index]
            assert rejected(swapped)

    def test_client_reply_frame_leaves_the_siblings_out(self):
        """What the asyncio backend puts on the wire for one client of a
        bundle of eight 4 KB results (every sibling's result used to ride
        along: ~33 KB)."""
        keystore = Keystore()
        codec = default_codec()
        body = _bundle([f"{index:04d}".ljust(4096, "x") for index in range(8)])
        certificate = _certified(body, keystore)
        full = codec.encode_frame(execution_id(0), BatchReply(
            seq=7, certificate=certificate, sender=execution_id(0)))
        assert len(full) > 8 * 4096
        message = ClientReply(certificate.with_payload(body.view_for(client_id(3))))
        frame = codec.encode_frame(execution_id(0), message)
        assert len(frame) < 8 * 1024
        for index in range(8):
            assert (f"{index:04d}xxxx".encode() in frame) == (index == 3)
        _, received = codec.decode_frame(frame)
        assert received.body.reply_for(client_id(3)).result.value == body.replies[3].result.value
        assert len(CryptoProvider(client_id(3), keystore).valid_signers(
            received.certificate)) == 2

    def test_incomplete_bundle_is_not_taken_for_a_complete_one(self):
        body = _bundle(["a", "b"])
        assert body.complete and not body.view_for(client_id(0)).complete
        assert body.view_for(client_id(0)).reply_for(client_id(1)) is None

    def test_a_reply_message_carries_every_reply_or_none(self):
        """What a correct replica sends the agreement cluster: the bundle
        (to the primary) or the bodiless form (to everyone else).  A body
        carrying some replies but not all is what a client's view looks
        like, and no queue assembles over one."""
        keystore = Keystore()
        body = _bundle(["a", "b", "c"])
        certificate = _certified(body, keystore)

        def message(rendering, seq=7):
            return BatchReply(seq=seq, certificate=certificate.with_payload(rendering),
                              sender=execution_id(0))

        bodiless = body.view_for(None)
        assert bodiless.carried == () and not bodiless.complete
        assert digest(bodiless) == digest(body)
        assert message(body).well_formed and message(bodiless).well_formed
        assert not message(body.view_for(client_id(1))).well_formed
        some = BatchReplyBody(view=2, seq=7, replies=(body.replies[0], body.replies[1],
                                                      bodiless.replies[2]))
        assert not message(some).well_formed
        assert not message(bodiless, seq=8).well_formed
        # with one reply in the bundle, the client's view is the bundle
        single = _bundle(["a"])
        assert BatchReply(seq=7, certificate=_certified(single, keystore).with_payload(
            single.view_for(client_id(0))), sender=execution_id(0)).well_formed
        # the bodiless frame holds no result at all
        codec = default_codec()
        frame = codec.encode_frame(execution_id(0), message(bodiless))
        received = codec.decode_frame(frame)[1].body
        assert received.replies == bodiless.replies and received.carried == ()


class TestOrderedBatch:
    def test_cert_body_accessor(self):
        keystore = Keystore()
        client = CryptoProvider(client_id(0), keystore)
        request = make_request()
        request_cert = client.new_certificate(request, AuthenticationScheme.MAC,
                                              [agreement_id(0)])
        body = AgreementCertBody(view=0, seq=1, batch_digest=b"d" * 32,
                                 nondet=NonDetInput.empty())
        agreement_cert = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
        batch = OrderedBatch(seq=1, view=0, request_certificates=(request_cert,),
                             agreement_certificate=agreement_cert,
                             nondet=NonDetInput.empty())
        assert batch.cert_body.seq == 1
        assert batch.client_requests() == [request]
        assert batch.padding_bytes == 128


class TestNonDeterminismResolver:
    def test_propose_is_monotonic(self):
        resolver = NonDeterminismResolver()
        first = resolver.propose(100.0, b"a")
        second = resolver.propose(50.0, b"b")  # clock went backwards
        assert second.timestamp_ms >= first.timestamp_ms

    def test_propose_deterministic_bits(self):
        resolver = NonDeterminismResolver()
        a = resolver.propose(10.0, b"seed")
        b = NonDeterminismResolver().propose(10.0, b"seed")
        assert a.random_bits == b.random_bits

    def test_sanity_check_accepts_reasonable_proposal(self):
        resolver = NonDeterminismResolver(max_clock_skew_ms=100.0)
        proposal = NonDetInput(timestamp_ms=50.0, random_bits=b"\x01" * 16)
        assert resolver.sanity_check(proposal, now_ms=60.0)

    def test_sanity_check_rejects_future_timestamps(self):
        resolver = NonDeterminismResolver(max_clock_skew_ms=100.0)
        proposal = NonDetInput(timestamp_ms=500.0, random_bits=b"\x01" * 16)
        assert not resolver.sanity_check(proposal, now_ms=60.0)

    def test_sanity_check_rejects_wrong_length_bits(self):
        resolver = NonDeterminismResolver()
        proposal = NonDetInput(timestamp_ms=0.0, random_bits=b"\x01")
        assert not resolver.sanity_check(proposal, now_ms=0.0)

    def test_sanity_check_rejects_stale_timestamps(self):
        resolver = NonDeterminismResolver(max_clock_skew_ms=10.0)
        resolver.accept(NonDetInput(timestamp_ms=1000.0, random_bits=b"\x01" * 16))
        proposal = NonDetInput(timestamp_ms=10.0, random_bits=b"\x01" * 16)
        assert not resolver.sanity_check(proposal, now_ms=1000.0)


class TestAbstractionLayer:
    def test_requires_binding(self):
        layer = AbstractionLayer()
        with pytest.raises(ProtocolError):
            layer.timestamp()

    def test_derivations_are_deterministic(self):
        nondet = NonDetInput(timestamp_ms=5.0, random_bits=b"\x07" * 16)
        a = AbstractionLayer(nondet)
        b = AbstractionLayer(nondet)
        assert a.derive_handle("file:/x") == b.derive_handle("file:/x")
        assert a.derive_int("n", 100) == b.derive_int("n", 100)
        assert a.timestamp() == 5.0

    def test_different_labels_give_different_values(self):
        layer = AbstractionLayer(NonDetInput(timestamp_ms=0.0, random_bits=b"\x07" * 16))
        assert layer.derive_handle("a") != layer.derive_handle("b")

    def test_different_nondet_gives_different_values(self):
        a = AbstractionLayer(NonDetInput(timestamp_ms=0.0, random_bits=b"\x01" * 16))
        b = AbstractionLayer(NonDetInput(timestamp_ms=0.0, random_bits=b"\x02" * 16))
        assert a.derive_handle("x") != b.derive_handle("x")

    def test_derive_bytes_length(self):
        layer = AbstractionLayer(NonDetInput.empty())
        assert len(layer.derive_bytes("x", 40)) == 40

    def test_derive_int_range(self):
        layer = AbstractionLayer(NonDetInput.empty())
        for i in range(20):
            assert 0 <= layer.derive_int(f"label{i}", 7) < 7
        with pytest.raises(ValueError):
            layer.derive_int("x", 0)


# ---------------------------------------------------------------------- #
# Wire forms: the golden table and the per-object memo.
# ---------------------------------------------------------------------- #

def golden_messages():
    """One hand-built instance of every message class, by class name."""
    keystore = Keystore()
    agreement = [agreement_id(i) for i in range(4)]
    execution = [execution_id(i) for i in range(3)]
    keystore.create_threshold_group("exec", execution, 2)
    client = CryptoProvider(client_id(0), keystore)
    replicas = [CryptoProvider(node, keystore) for node in agreement]
    executors = [CryptoProvider(node, keystore) for node in execution]
    nondet = NonDetInput(timestamp_ms=12.5, random_bits=bytes(range(16)))

    plain = ClientRequest(
        operation=Operation(kind="put", args={"key": "k1", "value": "v" * 40},
                            body_size=128, reply_size=16),
        timestamp=7, client=client_id(0))
    sealed = ClientRequest(
        operation=EncryptedBody(Operation(kind="get", args={"key": "k2"}),
                                readers=frozenset({Role.CLIENT, Role.EXECUTION})),
        timestamp=1024, client=client_id(1))
    requests = tuple(client.new_certificate(request, AuthenticationScheme.MAC, agreement)
                     for request in (plain, sealed))
    envelope = RequestEnvelope(certificate=requests[0])

    cert_body = AgreementCertBody(view=1, seq=9, batch_digest=b"\x07" * 32, nondet=nondet)
    agreement_cert = Certificate(payload=cert_body, scheme=AuthenticationScheme.MAC)
    for replica in replicas[:3]:
        replica.authenticate(agreement_cert, execution)
    pre_prepare = PrePrepare(view=1, seq=9, batch_digest=b"\x07" * 32, requests=requests,
                             nondet=nondet, primary=agreement[1])
    proof = PreparedProof(view=1, seq=9, batch_digest=b"\x07" * 32, requests=requests,
                          nondet=nondet)
    batch = OrderedBatch(seq=9, view=1, request_certificates=requests,
                         agreement_certificate=agreement_cert, nondet=nondet)
    routed_body = RoutedCertBody(view=1, seq=9, batch_digest=b"\x07" * 32,
                                 nondet=nondet, route=((0, 2), (1, 4)), epoch=3,
                                 log=0)
    routed_cert = Certificate(payload=routed_body, scheme=AuthenticationScheme.MAC)
    for replica in replicas[:3]:
        replica.authenticate(routed_cert, execution)

    replies = (
        ReplyBody(view=1, seq=9, timestamp=7, client=client_id(0),
                  result=OperationResult(value={"ok": True, "old": None}, size=16)),
        ReplyBody(view=1, seq=9, timestamp=1024, client=client_id(1),
                  result=EncryptedBody(OperationResult(value="v", size=8, error="late"),
                                       readers=frozenset({Role.CLIENT}))),
    )
    reply_body = BatchReplyBody(view=1, seq=9, replies=replies, shard=2, epoch=3)
    reply_cert = Certificate(payload=reply_body, scheme=AuthenticationScheme.THRESHOLD,
                             threshold_group="exec")
    for executor in executors[:2]:
        executor.authenticate(reply_cert, [client_id(0)])
    reply_cert.threshold_signature = executors[0].threshold_combine(
        reply_body, "exec", reply_cert.authenticator_list())

    checkpoint_cert = Certificate(payload=checkpoint_payload(64, b"\x05" * 32),
                                  scheme=AuthenticationScheme.SIGNATURE)
    for executor in executors[:2]:
        executor.authenticate(checkpoint_cert, [])
    checkpoint_proof = ExecCheckpointProof(seq=64, state_digest=b"\x05" * 32,
                                           certificate=checkpoint_cert)

    sub_body = SubReplyBody(client=client_id(0), timestamp=7, shard=1, epoch=3, view=1,
                            op_seq=4, status="ok", values={"b": 2, "a": [1, "x"]}, log=1)
    sub_cert = executors[0].new_certificate(sub_body, AuthenticationScheme.MAC,
                                            [client_id(0)])
    binding_body = CrossLogBindingBody(marker=("C0", 7), log=1, seq=12, shard_frontier=5)
    binding_cert = replicas[0].new_certificate(binding_body, AuthenticationScheme.MAC,
                                               execution)
    vote = executors[1].mac_authenticator(
        vote_payload(client_id(0), 7, 1, 3, {"k": 1}), execution)

    built = [
        plain, envelope, replies[0], reply_body,
        BatchReply(seq=9, certificate=reply_cert, sender=execution[0]),
        ClientReply(reply_cert.with_payload(reply_body.view_for(client_id(0)))),
        cert_body, routed_body, pre_prepare,
        Prepare(view=1, seq=9, batch_digest=b"\x07" * 32, replica=agreement[2]),
        CommitMsg(view=1, seq=9, batch_digest=b"\x07" * 32, replica=agreement[2],
                  cert_authenticator=replicas[2].mac_authenticator(cert_body, execution)),
        AgreementCheckpoint(seq=64, state_digest=b"\x03" * 32, replica=agreement[0],
                            sync_state=(("frontier", 3),)),
        proof,
        ViewChange(new_view=2, last_stable_seq=0, prepared=(proof,), replica=agreement[3]),
        NewView(view=2, view_change_replicas=("A1", "A2", "A3"),
                pre_prepares=(pre_prepare,), primary=agreement[2]),
        batch,
        ExecCheckpointShare(seq=64, state_digest=b"\x05" * 32, replica=execution[1]),
        checkpoint_proof,
        FetchBatch(seq=9, replica=execution[2]),
        BatchTransfer(batch=batch, replica=execution[0]),
        StateTransfer(seq=64, app_state=b"app" * 10, reply_table=b"table",
                      proof=checkpoint_proof, replica=execution[0], extra=b"xx"),
        MapChange(kind="split", parent_epoch=3, key="m", owner=2),
        ShardLocalBatch(shard=1, seq=4, global_seq=9, view=1,
                        request_certificates=requests[:1],
                        full_request_certificates=requests,
                        agreement_certificate=routed_cert, nondet=nondet, epoch=3,
                        log=0),
        RangeHandoff(epoch=4, source_shard=0, target_shard=1, lo="a", hi=None,
                     entries=b"entries", reply_table=b"", state_digest=b"\x06" * 32,
                     replica=execution[0]),
        sub_body,
        CrossShardSubReply(body=sub_body, certificate=sub_cert, sender=execution[0]),
        CrossShardVote(client=client_id(0), timestamp=7, shard=1, epoch=3,
                       observed={"k": 1}, replica=execution[1], authenticator=vote),
        CrossShardVoteFetch(client=client_id(0), timestamp=7, epoch=3, shard=1,
                            replica=execution[2]),
        RangeFetch(epoch=4, target_shard=1, lo=None, hi="m", replica=execution[1]),
        LogMapChange(shard=2, target_log=1, parent_log_epoch=0),
        binding_body,
        CrossLogBinding(body=binding_body, certificate=binding_cert, sender=agreement[0]),
        CrossLogBindingFetch(marker=("C0", 7), sender=agreement[1]),
    ]
    return {type(message).__name__: message for message in built}


#: ``(wire_size(), digest)`` of each message above: the length of its codec
#: encoding plus its modelled body bytes, and the SHA-256 of that encoding (of
#: the bodiless view, for the reply bundle).  A changed field, a reordered dict
#: or a wrong splice shows up here under the class's name.
GOLDEN_WIRE = {
    "ClientRequest": (239, "2d387e7bc4ba3d88805837c314210c7b8269235d1bf2e28860c5e0724fa41831"),
    "RequestEnvelope": (403, "f3da31231377318fac02f2d877418b61713fb4f139eed05b935ca7595f4db205"),
    "ReplyBody": (87, "6a7ad395155ff722cb0b74307d23b04bb5a0835a5295d3eb5c88b8979a0b63a6"),
    "BatchReplyBody": (266, "e3d79cde103aa9df0dde22e2bb3e16bc875d11dd4909b822dab04a2430576d28"),
    "BatchReply": (425, "509da308dacee9aa044d8b2800c987c07a33d0096944073eb3362fd714f4eb96"),
    "ClientReply": (311, "f7586fa84814c8c8f6b0199393b420b876ba077c4dbdaf1eab76e87342bfcf6d"),
    "AgreementCertBody": (82, "f0aa5d2bd4f45d9007eeb3243e4fc8fc38a77d9def2a6fb4a9cfc5f4e14b6642"),
    "RoutedCertBody": (135, "fc7f7750f4ca189c39b326b8e9697f1d3d2b7db88839bddcd97a256088551ef0"),
    "PrePrepare": (787, "7588557ad866069f4ea9b66fe5f9653e20aed9e8d5d5e6d3b88f95335cefc1cc"),
    "Prepare": (58, "e59a67eafa7ba3fd32e31fd1fde9e36e85d64a6b6a654d8cbaf2c5f00fe0776d"),
    "CommitMsg": (174, "6a9ce017d1fafa66499a450ec9769e675a60a66d7084b0a24564520201474b7d"),
    "AgreementCheckpoint": (75, "bc64abc8d44f73eee8b1c2fcaa238b7d1b7a1bbbf6aa0e439b841c4f20a7706d"),
    "PreparedProof": (783, "143cb08907c1014a6d9bccc9f631eddbce65a748b074113b7be6c51a5ce4f481"),
    "ViewChange": (808, "42b6338e475331c23e7bb8fe9bff750a479f4c338b870e5c52f94809371b99f1"),
    "NewView": (825, "96e315f10e001a4738b388f520fc6b61799a0da4403dc4826dc6f90af9c068ea"),
    "OrderedBatch": (1193, "0590cdda55566eeabd9eecd64e2f8374f9131c63398d0adc5ac60ecb942dc2bf"),
    "ExecCheckpointShare": (51, "65dc7064499701bb2b65c4c0fc07a3237e42f1f4c5a5973bc29f691c4210dd18"),
    "ExecCheckpointProof": (229, "369fd3a0ab8c71c3f9493d46a63eb22ae0f75ecde8ea4b3df94d3881814bf55a"),
    "FetchBatch": (14, "b63cc01f867905e8d504e40269f62f9dffa8d803811d4a552058a9e88a973e5d"),
    "BatchTransfer": (1199, "52af824ff7946d9b58e8b1fa07e8b69672e8fea448c7d0eee242d8727f04b635"),
    "StateTransfer": (290, "35c6b63bc520f07f5c1bdb57197fd01eef6a68ae18f6bbd2c745d412c4a39890"),
    "MapChange": (34, "bfaf564ce13813f0aed7069245b0de2ac7f62f9af94e9089457905ced82a8f2b"),
    "ShardLocalBatch": (1684, "449278646c0fd20dc80d3670aaa7fd64936fefc4c5fb33dcb7e3dbdc2db267f4"),
    "RangeHandoff": (89, "9bc5350aa60abf08d05c17f4be570ca259e91c30f268e6a6a2057f33793043f6"),
    "SubReplyBody": (104, "66cb83337bbfbe5b80d3c7b39da41f96b52895d454376a5bb174f103f265471f"),
    "CrossShardSubReply": (266, "c57060ec3f952c565c68cad0cd6bb056796fe29dcfa546ebb5da690b5f0f4d14"),
    "CrossShardVote": (168, "69517183d9572d062315e10d90367ad1b05ac653cc89a67740637e2ca137f777"),
    "CrossShardVoteFetch": (34, "57667b5b1c4692bf9a56c4acd1d4fd7f6a5b79b75aa6e353bd00201c59a608c0"),
    "RangeFetch": (29, "b06f36b6e2cc99e7e5a158be589eea8894b866fa64407cbaa3637e434054125b"),
    "LogMapChange": (26, "f32a82778825838687c64976bf33a11484b831553864d8ccf3e86930f35a0b9e"),
    "CrossLogBindingBody": (48, "1de3d17557edb411aa047e2cc3e6133c158c596abc9c3becd0e2aafe86247e0f"),
    "CrossLogBinding": (226, "3651aa4c6bb5f009f06b183efc32f01bdd4019f80aa6f6d2b049e81b5ba4d8a6"),
    "CrossLogBindingFetch": (27, "08e0498714c10d59e49a4d05ab0433b7f1045e0c2ceac638294bcd3f7045817d"),
}

#: The bodiless rendering (``view_for(None)``) of the golden bundle, which
#: agreement nodes other than the primary receive where replicas answer
#: clients directly, pinned beside the table (which keeps one entry per
#: class).  The body has the bundle's digest but neither its replies nor
#: their modelled bytes.
GOLDEN_BODILESS = {
    "BatchReplyBody": (114, "e3d79cde103aa9df0dde22e2bb3e16bc875d11dd4909b822dab04a2430576d28"),
    "BatchReply": (273, "e623ac42d84a99d536a18f4647b369906fdaaf13168f55166c3c46c8c9354c8c"),
}


class TestGoldenWireForms:
    @pytest.fixture(scope="class")
    def messages(self):
        return golden_messages()

    def test_every_message_class_is_in_the_table(self, messages):
        import inspect

        from repro.messages import agreement, checkpoint, reply, request
        from repro.multilog import messages as multilog_messages
        from repro.net.message import Message
        from repro.sharding import messages as sharding_messages

        declared = {
            name
            for module in (agreement, checkpoint, reply, request,
                           sharding_messages, multilog_messages)
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and issubclass(cls, Message)
            and cls.__module__ == module.__name__
        } - {"ConfigOperation"}  # abstract marker: no fields of its own
        assert declared == set(messages) == set(GOLDEN_WIRE)

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_size_and_digest(self, messages, name):
        message = messages[name]
        size, digest_hex = GOLDEN_WIRE[name]
        provider = CryptoProvider(agreement_id(0), Keystore())
        # twice: once building the memo (children spliced), once from it
        for _ in range(2):
            assert message.wire_size() == size
            assert provider.payload_digest(message).hex() == digest_hex
        assert digest(message).hex() == digest_hex

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_wire_size_is_the_encoding_plus_the_modelled_bodies(self, messages, name):
        message = messages[name]
        encoded = default_codec().encode(Any, message)
        assert message.wire_size() == len(encoded) + _modelled_bytes(message)

    def test_bodiless_reply_forms(self, messages):
        bundle, reply = messages["BatchReplyBody"], messages["BatchReply"]
        body = bundle.view_for(None)
        bodiless = BatchReply(seq=reply.seq, sender=reply.sender,
                              certificate=reply.certificate.with_payload(body))
        for name, message in (("BatchReplyBody", body), ("BatchReply", bodiless)):
            assert (message.wire_size(), digest(message).hex()) \
                == GOLDEN_BODILESS[name]
        assert digest(body) == digest(bundle)
        assert body.padding_bytes == 0 < bundle.padding_bytes

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_same_bytes_with_the_memo_switched_off(self, name):
        WIRE_CACHE.configure(enabled=False)
        try:
            message = golden_messages()[name]
            assert message.wire_size() == GOLDEN_WIRE[name][0]
            assert digest(message).hex() == GOLDEN_WIRE[name][1]
            assert getattr(message, "_wire", None) is None
        finally:
            WIRE_CACHE.configure(enabled=True)


def _modelled_bytes(value) -> int:
    """The body bytes ``value`` models but does not carry, found by walking
    it: each operation's ``body_size``, each result's ``size`` and each
    encrypted body's ``size`` (its plaintext is what it stands for)."""
    if isinstance(value, EncryptedBody):
        return value.size
    if isinstance(value, Operation):
        return value.body_size
    if isinstance(value, OperationResult):
        return value.size
    if isinstance(value, Certificate):
        return _modelled_bytes(value.payload)
    if dataclasses.is_dataclass(value):
        return sum(_modelled_bytes(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return sum(_modelled_bytes(item) for item in value)
    if isinstance(value, dict):
        return sum(_modelled_bytes(item) for item in value.values())
    return 0


def _encoded(obj) -> bytes:
    """``obj``'s bytes, from its memo (made if missing)."""
    return wire_memo(obj, "bytes").data


class TestWireMemo:
    def _certificate(self):
        keystore = Keystore()
        request = make_request()
        client = CryptoProvider(client_id(0), keystore)
        cert = client.new_certificate(request, AuthenticationScheme.MAC,
                                      [agreement_id(0)])
        return keystore, cert

    def test_certificate_queries_follow_add(self):
        keystore, cert = self._certificate()
        envelope_before = RequestEnvelope(certificate=cert)
        encoded = _encoded(cert)
        outer = envelope_before.wire_size()

        other = CryptoProvider(client_id(1), keystore)
        cert.add(other.mac_authenticator(cert.payload, [agreement_id(0)]))
        assert cert._wire is None
        assert len(_encoded(cert)) > len(encoded)
        fresh = Certificate(payload=cert.payload, scheme=cert.scheme,
                            authenticators=dict(cert.authenticators))
        assert _encoded(cert) == _encoded(fresh)
        # a message built around the grown certificate sees the grown bytes
        assert RequestEnvelope(certificate=cert).wire_size() > outer

    def test_assigning_a_certificate_field_drops_the_memo(self):
        _, cert = self._certificate()
        cert.scheme = AuthenticationScheme.THRESHOLD
        cert.authenticators.clear()
        size = len(_encoded(cert))
        cert.threshold_signature = b"s" * 32
        # a presence byte of 0 becomes 1, a 4-byte length and the 32 bytes
        assert len(_encoded(cert)) == size + 4 + 32

    def test_frames_carry_no_memo(self):
        _, cert = self._certificate()
        codec = default_codec()
        for message in (cert.payload,                       # slotted dataclass
                        RequestEnvelope(certificate=cert),  # dataclass with a dict
                        cert):                              # mutable certificate
            before = codec.encode(Any, message)
            encoded = _encoded(message)
            assert encoded == before
            after = codec.encode(Any, message)               # from the memo now
            assert after == before
            copy = codec.decode(Any, after)
            assert copy == message
            # nothing of the sender's memo travels: a decoded message keeps
            # the bytes it was read from, in a memo of its own, and nothing
            # else (no digest, no charges); a certificate keeps none
            memo = getattr(copy, "_wire", None)
            if isinstance(copy, Certificate):
                assert memo is None
            else:
                assert memo is not message._wire and memo.data == after
                assert memo.digest is None and memo._charged is None
            # the receiver's own encoding of what it received is the same
            assert _encoded(copy) == encoded
            WIRE_CACHE.configure(enabled=False)
            try:
                assert canonical_encode(copy) == encoded
            finally:
                WIRE_CACHE.configure(enabled=True)

    def test_wire_size_keeps_the_size_only(self):
        _, cert = self._certificate()
        envelope = RequestEnvelope(certificate=cert)
        size = envelope.wire_size()
        assert envelope._wire.data is None       # outermost: sized, not kept
        assert cert._wire.data is not None       # nested: spliced, so kept
        assert cert.payload._wire.data is not None
        misses = WIRE_CACHE.misses
        assert envelope.wire_size() == size
        assert WIRE_CACHE.misses == misses
        # bytes asked for after all: encoded again, from the children's memos
        provider = CryptoProvider(agreement_id(0), Keystore())
        assert provider.payload_digest(envelope) == digest(envelope)
        assert len(envelope._wire.data) + envelope.padding_bytes == size
        assert envelope._wire.data == default_codec().encode(Any, envelope)

    def test_old_bytes_are_let_go_and_made_again_on_demand(self):
        _, cert = self._certificate()
        request = cert.payload
        provider = CryptoProvider(agreement_id(0), Keystore())
        encoded, request_digest = _encoded(cert), provider.payload_digest(request)
        for tag in range(WIRE_CACHE.capacity):
            _encoded(make_request(tag=tag))
        assert cert._wire.data is None and request._wire.data is None
        assert cert._wire.size == len(encoded)
        misses = WIRE_CACHE.misses
        assert provider.payload_digest(request) == request_digest  # digest stays
        assert WIRE_CACHE.misses == misses
        assert _encoded(cert) == encoded
        assert RequestEnvelope(certificate=cert).wire_size() > len(encoded)

    def test_dropped_message_is_freed(self):
        _, cert = self._certificate()
        envelope = RequestEnvelope(certificate=cert)
        envelope.wire_size()
        CryptoProvider(agreement_id(0), Keystore()).payload_digest(envelope)
        ref = weakref.ref(envelope)
        gc.disable()  # no cycle collector: reference counts alone must do
        try:
            del envelope
            assert ref() is None
        finally:
            gc.enable()

    def test_charged_once_per_node(self):
        charges = {"A0": [], "A1": []}
        providers = {
            name: CryptoProvider(agreement_id(i), Keystore(),
                                 charge=charges[name].append)
            for i, name in enumerate(charges)
        }
        request = make_request()
        for _ in range(3):
            for provider in providers.values():
                provider.payload_digest(request)
        assert len(charges["A0"]) == len(charges["A1"]) == 1
        assert charges["A0"] == charges["A1"]
