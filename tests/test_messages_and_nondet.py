"""Tests for message formats, encrypted bodies, and nondeterminism handling."""

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
    CrossShardReply,
    CrossShardSubReply,
    CrossShardVote,
    CrossShardVoteFetch,
    MapChange,
    RangeFetch,
    RangeHandoff,
    RouteVoucher,
    ShardedBatch,
    ShardLocalBatch,
    SubReplyBody,
    vote_payload,
)
from repro.statemachine.interface import Operation, OperationResult
from repro.statemachine.nondet import AbstractionLayer, NonDeterminismResolver, NonDetInput
from repro.util.ids import Role, agreement_id, client_id, execution_id
from repro.util.wirecache import WIRE_CACHE


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

    def test_wire_form_hides_contents(self):
        secret = Operation(kind="put", args={"password": "hunter2"})
        body = EncryptedBody(secret)
        wire = body.to_wire()
        assert "hunter2" not in str(wire)
        assert wire["encrypted"] is True

    def test_same_plaintext_same_digest(self):
        a = EncryptedBody(Operation(kind="x", args={"v": 1}))
        b = EncryptedBody(Operation(kind="x", args={"v": 1}))
        assert a.ciphertext_digest == b.ciphertext_digest


class TestRequestMessages:
    def test_request_authenticated_fields(self):
        request = make_request()
        fields = request.payload_fields()
        assert fields["t"] == 1
        assert fields["c"] == "C0"

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
        assert digest(view.to_wire()) == digest(body.to_wire())
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
        assert digest(bodiless.to_wire()) == digest(body.to_wire())
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
        timestamp=1024, client=client_id(1), all_replicas=True)
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
        cert_body, pre_prepare,
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
        ShardedBatch(shard=1, shard_seq=4, batch=batch, epoch=3, log=0),
        RouteVoucher(shard=1, shard_seq=4, digest=b"\x08" * 32, epoch=3, log=0),
        ShardLocalBatch(shard=1, seq=4, global_seq=9, view=1,
                        request_certificates=requests[:1],
                        full_request_certificates=requests,
                        agreement_certificate=agreement_cert, nondet=nondet, epoch=3),
        RangeHandoff(epoch=4, source_shard=0, target_shard=1, lo="a", hi=None,
                     entries=b"entries", reply_table=b"", state_digest=b"\x06" * 32,
                     replica=execution[0]),
        sub_body,
        CrossShardSubReply(body=sub_body, certificate=sub_cert, sender=execution[0]),
        CrossShardVote(client=client_id(0), timestamp=7, shard=1, epoch=3,
                       observed={"k": 1}, replica=execution[1], authenticator=vote),
        CrossShardVoteFetch(client=client_id(0), timestamp=7, epoch=3, shard=1,
                            replica=execution[2]),
        CrossShardReply(client=client_id(0), timestamp=7, status="ok", epoch=3,
                        collator_shard=1, sub_certificates=(sub_cert,),
                        assembled={"b": 2, "a": None}, sender=execution[0]),
        RangeFetch(epoch=4, target_shard=1, lo=None, hi="m", replica=execution[1]),
        LogMapChange(shard=2, target_log=1, parent_log_epoch=0),
        binding_body,
        CrossLogBinding(body=binding_body, certificate=binding_cert, sender=agreement[0]),
        CrossLogBindingFetch(marker=("C0", 7), sender=agreement[1]),
    ]
    return {type(message).__name__: message for message in built}


#: ``(wire_size(), sha256 of the canonical encoding)`` of each message above,
#: computed with the straightforward encoder and no memoisation (the commit
#: before the fast encoder and the splice nodes).  A wrong splice, a changed
#: field or a reordered dict shows up here under the class's name.
#: The three reply entries are the exception: they were regenerated when the
#: certified form of a bundle became its header plus per-reply digests (a
#: body 1087 -> 1169 with its replies counted as carried bytes, a
#: ``BatchReply`` 3072 -> 2159, one client's ``ClientReply`` 3356 -> 1648),
#: and ``CrossLogBindingFetch`` and ``RouteVoucher`` are younger than the
#: table: their entries are ``canonical_encode(to_wire())`` on the day each
#: message was added.
GOLDEN_WIRE = {
    "ClientRequest": (577, "846aaae68c5144c23c0561799319a0e220a78f48d23ffbb25b3ecc058ca540fb"),
    "RequestEnvelope": (1382, "e1943594feafb6703b5c5c8a24330eef4122a01f8a3c861923296f4710d0458a"),
    "ReplyBody": (407, "f796164a66bc842e4b2c86c17536e59d063e28d06174b381b2caf603d6fd0d93"),
    "BatchReplyBody": (1169, "575916da1a84e46dc75bc41f864055059cad6bcf8744c422d1b4409d4d998681"),
    "BatchReply": (2159, "191dbb2e250366305134426e75cbea6b15382a0b2448cece76087637e6a7aea5"),
    "ClientReply": (1648, "2c258b1e0c082d7f01ee94e9dbb1a1679d618b558511d23bb4a9bc2e29dd01db"),
    "AgreementCertBody": (346, "5b93058ee959bf760044c4266c6222445d283120978112a7d6d12f7bddb4ea21"),
    "PrePrepare": (2743, "8d50261ef4cf828abaea9aaffe14f162a4501ba47d21d7815c612ad08e25cde0"),
    "Prepare": (226, "e1dbff63fcbb31cd92eceacb0dbc718d1cf3debb37d13c05f7d05b8655cb910c"),
    "CommitMsg": (228, "98ce35d87f37c71e47e0b5977629f78bef5753b00bab7325f508e2750b225c50"),
    "AgreementCheckpoint": (207, "7398d4cdaa1290351fca42759620e541bbd2480bb5d583a79c54a544c1b2ac4b"),
    "PreparedProof": (195, "61c2f85ec3f0730db49609c54b0c64a9fe8a52c6fa05053f22b3b5c6a1734053"),
    "ViewChange": (399, "2b7cd3d269486401f43841c49b54c306b8e36bd1642a644dbe104f31c33e47b1"),
    "NewView": (620, "5d61e86a5878698fc3c1f3ac3a6f34c80c5cf9a7aca5864cb5b4c036f192d1d3"),
    "OrderedBatch": (4379, "f9ba832b16df8f10e1a8a06f6ee1ba86021f435ad17c09d66402014d733a8df0"),
    "ExecCheckpointShare": (207, "a9ba67f8537addcecfed22bffc6fa1c45d5daaaa19e15ce518af58a8d8a511f6"),
    "ExecCheckpointProof": (1060, "afad7cc8c6ffd5c071690e7fa35ce1daabc9fee8c80abb78f067637ad5187c3d"),
    "FetchBatch": (130, "409f705d536c217467f8a3e162245b2cb07652d117dd7191cd07b8bff7bc3ef1"),
    "BatchTransfer": (4510, "91db8cfcff237df0c30fcd613d17219b12b4f6f3d1ca8d29857e3f5ee747bdb1"),
    "StateTransfer": (1393, "d26cd6b1484d385bab90c75c01284aff3e2ca1af1f2cab1880ca7908bc2ee53d"),
    "MapChange": (258, "809ced739e308131c7ed1c61b5b9251d1644d6ab4c6dc6b8501daebdf7e5bbb2"),
    "ShardedBatch": (4618, "e3f4f3afcfc69cb12528e7bf78c5911a63b198436f40f17ce62d66177b1f0091"),
    "RouteVoucher": (278, "49918a107f39cbbbfa5f5d6786cc95732f5c50ac4678f7ac0083fa074e5d8f74"),
    "ShardLocalBatch": (4487, "067c7ec33d9d33d2c46f6fb2626aad9b996b9f44d7849ba5b951e960838d119c"),
    "RangeHandoff": (343, "ae44a626f9b0c85f2eb5a76cf3448baa9ffb40794c60e36305d7d58c24e7c475"),
    "SubReplyBody": (469, "70db5de770e107be3135d2c1f943810af7637def42b53cecd16219f6c83b8dae"),
    "CrossShardSubReply": (1613, "7363be97c4c725c07a23ea465ef3f11eb0b38fd30054744fc31745a9282d29af"),
    "CrossShardVote": (319, "3f63b5ac7a3698cc5cd0c940cfe182b52355262c03731d259559c5a0c37ce903"),
    "CrossShardVoteFetch": (256, "4dfbc1f242954665c94cf3e4fe600f23c2531da614a65bab87e545ab7bab4077"),
    "CrossShardReply": (1408, "59d41c2d9af8500e753443e9713813f572641b9e242e19bad053a3172d657e97"),
    "RangeFetch": (232, "8bae90bcb176473970313396d3f4ebc126e29a8d97e48cdae76ab362a15598fd"),
    "LogMapChange": (196, "6a2ed63ad2b0e79bcfa607fd1e42b5cd5c435b3fbb4944fe649f05a5b3324c19"),
    "CrossLogBindingBody": (236, "c40b955253be6ceb61745c6fef902200e6ba8c6f1f16322e3a515c63c3cc6da7"),
    "CrossLogBinding": (1280, "10ee98585f70b88133a8d7eac7ccdc6271c88fdee7a4e7a5b0f39c8f5d8d4c52"),
    "CrossLogBindingFetch": (174, "4ce3c4216129e453491113f4cf1a29d12228cc5ac6d69d5eb4678401074e9f96"),
}

#: The bodiless rendering (``view_for(None)``) of the golden bundle, which
#: agreement nodes other than the primary receive where replicas answer
#: clients directly, pinned beside the table (which keeps one entry per
#: class).  The body has the bundle's digest and encoding but no padding,
#: since it carries no reply; the ``BatchReply`` around it lists no replies.
GOLDEN_BODILESS = {
    "BatchReplyBody": (324, "575916da1a84e46dc75bc41f864055059cad6bcf8744c422d1b4409d4d998681"),
    "BatchReply": (1314, "b7aeb2e00d88941cdf66f0c54144442b9d3c9a9f99f8e50bfd4f92e7d0110c7f"),
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
        assert digest(message.to_wire()).hex() == digest_hex

    def test_bodiless_reply_forms(self, messages):
        bundle, reply = messages["BatchReplyBody"], messages["BatchReply"]
        body = bundle.view_for(None)
        bodiless = BatchReply(seq=reply.seq, sender=reply.sender,
                              certificate=reply.certificate.with_payload(body))
        for name, message in (("BatchReplyBody", body), ("BatchReply", bodiless)):
            assert (message.wire_size(), digest(message.to_wire()).hex()) \
                == GOLDEN_BODILESS[name]
        assert digest(body.to_wire()) == digest(bundle.to_wire())
        assert body.wire_size() == GOLDEN_WIRE["BatchReplyBody"][0] - bundle.padding_bytes

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_same_bytes_with_the_memo_switched_off(self, name):
        WIRE_CACHE.configure(enabled=False)
        try:
            message = golden_messages()[name]
            assert message.wire_size() == GOLDEN_WIRE[name][0]
            assert digest(message.to_wire()).hex() == GOLDEN_WIRE[name][1]
            assert getattr(message, "_wire", None) is None
        finally:
            WIRE_CACHE.configure(enabled=True)


class TestWireMemo:
    def _certificate(self):
        keystore = Keystore()
        request = make_request()
        client = CryptoProvider(client_id(0), keystore)
        cert = client.new_certificate(request, AuthenticationScheme.MAC,
                                      [agreement_id(0)])
        return keystore, cert

    def test_certificate_queries_follow_add_and_merge(self):
        keystore, cert = self._certificate()
        envelope_before = RequestEnvelope(certificate=cert)
        size, encoded = cert.wire_size(), cert.encoded()
        outer = envelope_before.wire_size()

        other = CryptoProvider(client_id(1), keystore)
        cert.add(other.mac_authenticator(cert.payload, [agreement_id(0)]))
        assert cert.wire_size() > size
        assert cert.encoded() != encoded
        fresh = Certificate(payload=cert.payload, scheme=cert.scheme,
                            authenticators=dict(cert.authenticators))
        assert cert.encoded() == fresh.encoded()
        # a message built around the grown certificate sees the grown bytes
        assert RequestEnvelope(certificate=cert).wire_size() > outer

        size = cert.wire_size()
        third = Certificate(payload=cert.payload, scheme=cert.scheme)
        CryptoProvider(client_id(2), keystore).authenticate(third, [agreement_id(0)])
        cert.merge(third)
        assert cert.wire_size() > size
        assert len(cert.authenticators) == 3

    def test_assigning_a_certificate_field_drops_the_memo(self):
        _, cert = self._certificate()
        cert.scheme = AuthenticationScheme.THRESHOLD
        cert.authenticators.clear()
        size = cert.wire_size()
        cert.threshold_signature = b"s" * 32
        # ``N`` becomes ``b`` + an 8-byte length + the 32 bytes
        assert cert.wire_size() == size - 1 + (1 + 8 + 32)

    def test_frames_carry_no_memo(self):
        _, cert = self._certificate()
        codec = default_codec()
        for message in (cert.payload,                       # slotted dataclass
                        RequestEnvelope(certificate=cert),  # dataclass with a dict
                        cert):                              # mutable certificate
            before = codec.encode(Any, message)
            encoded = message.encoded()
            assert message._wire.data == encoded
            after = codec.encode(Any, message)
            assert after == before
            copy = codec.decode(Any, after)
            assert copy == message
            assert getattr(copy, "_wire", None) is None
            # the receiver's own encoding of what it received is the same
            assert copy.encoded() == encoded

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
        assert provider.payload_digest(envelope) == digest(envelope.to_wire())
        assert len(envelope._wire.data) + envelope.padding_bytes == size

    def test_old_bytes_are_let_go_and_made_again_on_demand(self):
        _, cert = self._certificate()
        request = cert.payload
        provider = CryptoProvider(agreement_id(0), Keystore())
        encoded, request_digest = cert.encoded(), provider.payload_digest(request)
        for tag in range(WIRE_CACHE.capacity):
            make_request(tag=tag).encoded()
        assert cert._wire.data is None and request._wire.data is None
        assert cert._wire.size == len(encoded)
        misses = WIRE_CACHE.misses
        assert provider.payload_digest(request) == request_digest  # digest stays
        assert WIRE_CACHE.misses == misses
        assert cert.encoded() == encoded
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
