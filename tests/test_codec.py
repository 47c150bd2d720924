"""The wire codec (``repro.net.codec``): registry coverage, golden bytes,
and a decoder that refuses everything an encoder could not have written."""

import ast
import dataclasses
import hashlib
import importlib
import pkgutil
import tracemalloc
import typing
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.crypto.certificate import Authenticator, Certificate
from repro.crypto.digest import digest
from repro.errors import DecodeError, EncodeError
from repro.messages.agreement import ConfigOperation, ViewChange
from repro.messages.checkpoint import BatchTransfer, checkpoint_payload
from repro.messages.reply import BatchReplyBody, ReplyBody
from repro.messages.request import EncryptedBody
from repro.net import codec as codec_module
from repro.net.codec import (MAX_DEPTH, T_OBJ, T_TUPLE, Codec, decode_reply_table,
                             default_codec, encode_reply_table, standard_types)
from repro.net.message import CorruptedMessage, Message
from repro.sharding.messages import handoff_payload, vote_payload
from repro.statemachine.interface import Operation, OperationResult
from repro.statemachine.nondet import NonDetInput
from repro.util.encoding import canonical_encode, estimate_size
from repro.util.ids import Role, agreement_id, client_id, execution_id, firewall_id
from repro.util.wirecache import WIRE_CACHE

from test_messages_and_nondet import GOLDEN_WIRE, golden_messages

SRC = Path(repro.__file__).resolve().parent
SENDER = agreement_id(0)


def iter_certificates(value):
    """Every certificate a message carries, nested ones included (an
    ordered batch carries request certificates inside its payload)."""
    if isinstance(value, Certificate):
        yield value
        yield from iter_certificates(value.payload)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from iter_certificates(getattr(value, field.name))
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from iter_certificates(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from iter_certificates(item)


#: every wire class's tag.  A tag is the class's name on the wire: a frame
#: written by one build must mean the same to another, so none may move.
GOLDEN_TAGS = {
    "Certificate": 1, "Authenticator": 2, "Operation": 3, "OperationResult": 4,
    "NonDetInput": 5, "EncryptedBody": 6,
    "ClientRequest": 10, "RequestEnvelope": 11, "ReplyBody": 12,
    "BatchReplyBody": 13, "BatchReply": 14, "ClientReply": 15,
    "AgreementCertBody": 20, "PrePrepare": 21, "Prepare": 22, "CommitMsg": 23,
    "AgreementCheckpoint": 24, "PreparedProof": 25, "ViewChange": 26,
    "NewView": 27, "OrderedBatch": 28, "RoutedCertBody": 29,
    "ExecCheckpointShare": 30, "ExecCheckpointProof": 31, "FetchBatch": 32,
    "BatchTransfer": 33, "StateTransfer": 34,
    "MapChange": 40,
    "ShardLocalBatch": 43, "RangeHandoff": 44, "SubReplyBody": 45,
    "CrossShardSubReply": 46, "CrossShardVote": 47, "CrossShardVoteFetch": 48,
    "RangeFetch": 50,
    "LogMapChange": 60, "CrossLogBindingBody": 61, "CrossLogBinding": 62,
    "CrossLogBindingFetch": 63,
}

#: tags of message types that no longer exist: never reused (41 carried the
#: routing envelope and 42 its digest-only route vote, before the agreement
#: certificate covered the route; 49 the assembled cross-shard reply)
RETIRED_TAGS = frozenset({41, 42, 49})

#: ``(length, sha256)`` of the frame of each golden message sent by A0.
GOLDEN_FRAMES = {
    "AgreementCertBody": (85, "723441526e0fdef130d9d3b0d89c437dc4c66be4b22208ed3db958bb41ae29b9"),
    "AgreementCheckpoint": (78, "b09f10cd3fa3fae7d26739114d01889bd25eabdf8a7772dd83e222a1fd225f83"),
    "BatchReply": (348, "cd7534c4af8a16a3b0e167a446b66259215e5a8458a097ff5a43235d77813f59"),
    "BatchReplyBody": (189, "3ad2c2e64702f32b47f6b6bf6e0783144373f531b5c7d8f5b1561059db4f5058"),
    "BatchTransfer": (1010, "123a1f649e75384b7b61c61100482bc2476aab5a165b4fcece93a5e8919d2724"),
    "ClientReply": (298, "3621dac6306e59aa9c2c0b5abf478153c33acea856b1f5f1fc4029e28bb2e134"),
    "ClientRequest": (114, "d96fe9fd1be91481948ab280f290fb8259c0cb0130f89bf3c4e7805419d9c358"),
    "CommitMsg": (177, "8c684911c32f789c1caf5fd921254bbd80db81eb57f5294ab5f3fe38ae69ac3e"),
    "CrossLogBinding": (229, "73b805f8ea6f071660944b08bbbabf0a9cceac7399b346c1f5ffe696024bbdd2"),
    "CrossLogBindingBody": (51, "cdd3d553e58d56c7375ec3e58f0b54ac4d7abd307d6854d30b584eb7ee3aee2e"),
    "CrossLogBindingFetch": (30, "60c578763dc7a8d83e22f7b888ac9b90c3a7f784e5d898964c802eeaecae10bc"),
    "CrossShardSubReply": (269, "543976f8bf8c4027fea6f64ec71d648ca5a3aa5e5e7ff9762a33aaa22e8a0dbe"),
    "CrossShardVote": (171, "736485cb539efd42d6baebb621344cab57075a1c5a95897db8286129af301546"),
    "CrossShardVoteFetch": (37, "80d89b01e75e69575d4d1feb1412b2ea998a52bd9380d9be13667362a8e2f925"),
    "ExecCheckpointProof": (232, "bffcf17d08c62e14e77b05c601ac6175b777fca927ec394c48d84ae8aba98f82"),
    "ExecCheckpointShare": (54, "046acfdfcb12f22b78d45b469312cf639c771945a586a4edd1e54df3b424ccea"),
    "FetchBatch": (17, "6937e8074945060318a0c5b8dd01cad30d4b96ec474f4d8678144c35b88c860c"),
    "LogMapChange": (29, "3ca1971a85a7afaa2ece63b8c74c3c9d481750e521dbebaa9028d8535936fc7d"),
    "MapChange": (37, "ce6a1667ab61937fa238265535e15c4e68112f4d640036e489d4234e5bf244bc"),
    "NewView": (636, "a94076ec83efdc4ef65638b68d2a43b51e9c77b47d0293de2673ae0556815a6c"),
    "OrderedBatch": (1004, "826147d17b78a5eab9f37d326bfd9a92bd6914b41db856b32f2422d1d4b7c840"),
    "PrePrepare": (598, "a31f2a8339e37b9d851e659494c35ad0db5936e5b51c5cdf1e6b6eb0d0e42e08"),
    "Prepare": (61, "7bfc43b47745bf71c369103ae2160d0656319c1127b066863c33920ba4f7c783"),
    "PreparedProof": (594, "0bbe08a887ec61c2e463e3352dc78d345b18858e69ac0529c59cd09c284f251d"),
    "RangeFetch": (32, "e50f3aa72f6d6558fbd4655574ea6b42c3825dd4890a59dddd9da20fb5e42d07"),
    "RangeHandoff": (92, "9fabd088e301f395711baed595e128d7de716afbfa44c43f0b34d7908beed4ae"),
    "ReplyBody": (74, "f11982668d1ea516d9e9b827949d213a55a86d2e08cf96eaeeb1755cde083a92"),
    "RequestEnvelope": (278, "b19c0b43cf60b6a0a55c5653c0c7fe3d022b08b4e648575154d14eaedc4499c1"),
    "RoutedCertBody": (138, "574b2e7f5d70c4a6fc3154e8f316cc56e873c5482a8dae1f988685a53187c5f0"),
    "ShardLocalBatch": (1367, "9646104a1943ddef60e657aba0c5a489cf2e7e6b05c01747a61bf2847e4c03b7"),
    "StateTransfer": (293, "d8c0c38ff3f6d18300bce9366a284fdcd985d4dfadc80f5990cbaf7a225dc518"),
    "SubReplyBody": (107, "4fda9755005a6a0e76a2a36b7a9b5e2a9d2012ee3c42cce2847ba4a80eb8a217"),
    "ViewChange": (619, "d3d6d91f6be8e49625c879154c9025dd8ccbe25dd512f9f8218b595887916c90"),
}


@pytest.fixture(scope="module")
def messages():
    return golden_messages()


@pytest.fixture(scope="module")
def frames(messages):
    codec = default_codec()
    return {name: bytes(codec.encode_frame(SENDER, message))
            for name, message in messages.items()}


def _has_sealed(obj) -> bool:
    """Whether an :class:`EncryptedBody` (compared by identity) is inside."""
    if isinstance(obj, EncryptedBody):
        return True
    if isinstance(obj, Certificate):
        return _has_sealed(obj.payload)
    if dataclasses.is_dataclass(obj):
        return any(_has_sealed(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return any(_has_sealed(item) for item in obj)
    return False


@contextmanager
def cache_off():
    """Encode and digest afresh, memos ignored, and seed nothing."""
    WIRE_CACHE.configure(enabled=False)
    try:
        yield
    finally:
        WIRE_CACHE.configure(enabled=True)


def nested_messages(value, root=True):
    """Every message inside ``value`` but ``value`` itself: what the decoder
    seeds a memo on.  Certificates, authenticators and the rest of the
    registered classes are walked through, not yielded."""
    if isinstance(value, Message) and not root:
        yield value
    if isinstance(value, EncryptedBody):
        yield from nested_messages(value._plaintext, False)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from nested_messages(getattr(value, field.name), False)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from nested_messages(item, False)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from nested_messages(key, False)
            yield from nested_messages(item, False)


def check_seeded(message) -> int:
    """A decoded ``message`` (a frame's root) kept no bytes, and each
    message nested in it keeps bytes that are its fresh encoding, under
    the digest a fresh copy of it has.  Returns how many were seeded."""
    assert getattr(message, "_wire", None) is None
    assert all(getattr(certificate, "_wire", None) is None
               for certificate in iter_certificates(message))
    seeded = list(nested_messages(message))
    assert all(obj._wire.data is not None for obj in seeded)
    with cache_off():
        fresh = [canonical_encode(obj) for obj in seeded]
        digests = [digest(default_codec().decode(Any, data)) for data in fresh]
    for obj, data, expected in zip(seeded, fresh, digests):
        assert obj._wire.data == data and obj._wire.size == len(data)
        assert digest(obj) == expected
    return len(seeded)


# ---------------------------------------------------------------------- #
# The registry.
# ---------------------------------------------------------------------- #

class TestRegistry:
    def test_every_message_class_is_registered(self):
        """Every concrete message (the simulator's corruption stand-in and
        the config-operation marker base aside) can cross the wire."""
        concrete = set()
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for cls in vars(module).values():
                if (isinstance(cls, type) and issubclass(cls, Message)
                        and cls.__module__ == module.__name__
                        and cls not in (Message, CorruptedMessage, ConfigOperation)):
                    concrete.add(cls.__name__)
        registered = {cls.__name__ for cls in default_codec()._tags
                      if cls.__module__.startswith("repro.")}
        carried = {"Certificate", "Authenticator", "Operation", "OperationResult",
                   "NonDetInput", "EncryptedBody"}
        assert concrete | carried == registered

    def test_tags_are_unique_and_pinned(self):
        tags = {cls.__name__: tag for cls, tag in default_codec()._tags.items()
                if cls.__module__.startswith("repro.")}
        assert tags == GOLDEN_TAGS
        assert len(set(tags.values())) == len(tags)
        assert RETIRED_TAGS.isdisjoint(tags.values())

    def test_a_taken_tag_or_class_is_refused(self):
        codec = Codec()
        with pytest.raises(ValueError):
            codec.register(CorruptedMessage, GOLDEN_TAGS["Prepare"])
        with pytest.raises(ValueError):
            codec.register(ViewChange, 200)
        codec.register(ViewChange, GOLDEN_TAGS["ViewChange"])   # the same: a no-op

    def test_an_unregistered_type_cannot_be_sent(self):
        codec = default_codec()
        with pytest.raises(EncodeError):
            codec.encode_frame(SENDER, CorruptedMessage("Prepare", 10))
        with pytest.raises(EncodeError):
            codec.encode(Any, {1, 2})
        with pytest.raises(EncodeError):
            codec.encode(Any, 1j)


class TestGoldenFrames:
    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_frame_bytes(self, frames, name):
        data = frames[name]
        assert (len(data), hashlib.sha256(data).hexdigest()) == GOLDEN_FRAMES[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_every_message_round_trips(self, messages, frames, name):
        codec = default_codec()
        sender, message = codec.decode_frame(frames[name])
        assert sender is codec.nodes[SENDER._code]
        assert type(message) is type(messages[name])
        if not _has_sealed(messages[name]):
            assert message == messages[name]
        assert bytes(codec.encode_frame(sender, message)) == frames[name]
        # the authenticated form survives too: a receiver digests what it read
        assert canonical_encode(message) == canonical_encode(messages[name])

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_decoded_payloads_have_the_senders_digests(self, messages, frames, name):
        _, message = default_codec().decode_frame(frames[name])
        sent = [digest(cert.payload) for cert in iter_certificates(messages[name])]
        assert [digest(cert.payload) for cert in iter_certificates(message)] == sent

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_each_payload_digest_is_that_of_a_slice_of_the_frame(
            self, messages, frames, name):
        """A certificate's payload is digested over bytes the frame carries
        as they are, so a receiver could hash them where they arrived.  The
        one exception is a reply bundle carrying replies: it digests as its
        bodiless view, in which each carried reply stands as the digest of
        its own slice of the frame."""
        frame = frames[name]

        def sliced(value):
            data = canonical_encode(value)
            return data in frame and hashlib.sha256(data).digest() == digest(value)

        for cert in iter_certificates(messages[name]):
            payload = cert.payload
            if isinstance(payload, BatchReplyBody) and payload.carried:
                assert all(sliced(reply) for reply in payload.carried)
                assert digest(payload) == digest(payload.view_for(None))
            else:
                assert sliced(payload)

    def test_a_shard_replica_transfers_its_local_batch(self, messages):
        """``BatchTransfer.batch`` is an ``OrderedBatch`` or, between shard
        replicas, the ``ShardLocalBatch`` standing in for one."""
        codec = default_codec()
        for batch in (messages["OrderedBatch"], messages["ShardLocalBatch"]):
            transfer = BatchTransfer(batch=batch, replica=execution_id(1))
            frame = bytes(codec.encode_frame(SENDER, transfer))
            _, copy = codec.decode_frame(frame)
            assert type(copy.batch) is type(batch)
            assert bytes(codec.encode_frame(SENDER, copy)) == frame

    @pytest.mark.parametrize("value", [
        Operation("put", {"key": "k", "value": "v" * 40, "n": [1, 2.5, None]},
                  body_size=128, reply_size=16),
        OperationResult(value={"ok": True, "old": None, "list": [b"x", ("t", 1)]},
                        size=16, processing_ms=0.25, error="late"),
        NonDetInput(timestamp_ms=12.5, random_bits=bytes(range(16))),
        checkpoint_payload(64, b"\x05" * 32),
        handoff_payload(4, "a", None, 0, 1, b"\x06" * 32),
        vote_payload(client_id(0), 7, 1, 3, {"k": 1}),
        ("xs", "C0", 7), ("lmc", 1, 0, 2),
        (("frontiers", (3, 4)), ("epoch", 2)),
        {Role.CLIENT: execution_id(1), 3: firewall_id(1, 2)},
    ], ids=lambda value: type(value).__name__)
    def test_values_carried_in_any_fields_round_trip(self, value):
        codec = default_codec()
        data = codec.encode(Any, value)
        assert codec.decode(Any, data) == value
        assert codec.encode(Any, codec.decode(Any, data)) == data

    def test_an_encrypted_body_is_rebuilt_by_its_constructor(self):
        sealed = EncryptedBody(OperationResult(value="v", size=8),
                               readers=frozenset({Role.CLIENT, Role.EXECUTION}))
        codec = default_codec()
        copy = codec.decode(Any, codec.encode(Any, sealed))
        assert copy.ciphertext_digest == sealed.ciphertext_digest
        assert copy.readers == sealed.readers and copy.size == sealed.size
        assert copy.open(Role.CLIENT) == sealed.open(Role.CLIENT)


#: ``(length, sha256)`` of :attr:`TestReplyTable.TABLE` encoded
GOLDEN_REPLY_TABLE = (221, "64ff2b115398a96a29f220b8719b3ba0556afc7a77299d473b8a78d09ef8b1ec")


class TestReplyTable:
    TABLE = {
        client_id(index): ReplyBody(view=1, seq=9 + index, timestamp=7 * index,
                                    client=client_id(index),
                                    result=OperationResult(value=f"v{index}", size=8))
        for index in (3, 0, 12, 1)
    }

    def test_round_trip_in_client_name_order(self):
        blob = encode_reply_table(self.TABLE)
        replies = decode_reply_table(blob)
        assert [reply.client.name for reply in replies] == ["C0", "C1", "C12", "C3"]
        assert {reply.client: reply for reply in replies} == self.TABLE

    def test_bytes_are_pinned(self):
        """Checkpoint digests are taken over these bytes."""
        blob = encode_reply_table(self.TABLE)
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == GOLDEN_REPLY_TABLE
        assert encode_reply_table({}) == b"\x00\x00\x00\x00"

    @pytest.mark.parametrize("junk", [b"", b"\x01\x00\x00\x00", b"\xff" * 8,
                                      b"\x00\x00\x00\x00\x00"])
    def test_junk_is_refused(self, junk):
        with pytest.raises(DecodeError):
            decode_reply_table(junk)


# ---------------------------------------------------------------------- #
# The decoder on bytes nobody should trust.
# ---------------------------------------------------------------------- #

def _decode_or_refuse(codec, data: bytes):
    """Decode ``data``; True if it was refused with :class:`DecodeError`
    (anything else raised fails the test), else check that it is what a
    fresh encoding writes and that the nested messages keep true bytes
    (:func:`check_seeded`)."""
    try:
        sender, message = codec.decode_frame(data)
    except DecodeError:
        return True
    with cache_off():
        assert bytes(codec.encode_frame(sender, message)) == data
    check_seeded(message)
    return False


class TestRobustness:
    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes_raise_decode_error_only(self, data):
        codec = default_codec()
        _decode_or_refuse(codec, data)
        try:
            decode_reply_table(data)
        except DecodeError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes_after_a_valid_head(self, tail):
        """The same, past the sender code and the class tag."""
        codec = default_codec()
        for tag in (GOLDEN_TAGS["OrderedBatch"], GOLDEN_TAGS["CommitMsg"],
                    GOLDEN_TAGS["ClientReply"]):
            _decode_or_refuse(codec, SENDER._code.to_bytes(4, "little")
                              + bytes([tag]) + tail)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(GOLDEN_FRAMES)), data=st.data())
    def test_mutated_frames(self, frames, name, data):
        """A truncated, extended or bit-flipped valid frame is refused or
        is exactly the frame of what it decodes to."""
        codec = default_codec()
        frame = frames[name]
        mutation = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
        if mutation == "truncate":
            cut = data.draw(st.integers(0, len(frame) - 1))
            assert _decode_or_refuse(codec, frame[:cut])
        elif mutation == "extend":
            extra = data.draw(st.binary(min_size=1, max_size=8))
            assert _decode_or_refuse(codec, frame + extra)
        else:
            flips = data.draw(st.lists(st.integers(0, 8 * len(frame) - 1),
                                       min_size=1, max_size=3))
            mutated = bytearray(frame)
            for bit in flips:
                mutated[bit // 8] ^= 1 << (bit % 8)
            _decode_or_refuse(codec, bytes(mutated))

    @pytest.mark.parametrize("position", ["bytes", "count", "tagged"])
    def test_a_length_past_the_end_is_refused_before_allocating(self, position):
        codec = default_codec()
        huge = (0xFFFFFFF0).to_bytes(4, "little")
        head = SENDER._code.to_bytes(4, "little")
        if position == "bytes":      # Prepare: view, seq, then the digest's length
            data = head + bytes([GOLDEN_TAGS["Prepare"]]) + bytes(16) + huge
        elif position == "count":    # ViewChange: view, h, then the proofs' count
            data = head + bytes([GOLDEN_TAGS["ViewChange"]]) + bytes(16) + huge
        else:                        # a tuple in a certificate's payload
            data = (head + bytes([GOLDEN_TAGS["RequestEnvelope"]])
                    + bytes([T_TUPLE]) + huge)
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError, match="past the end"):
                codec.decode_frame(data + bytes(64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_nesting_has_a_cap(self):
        codec = default_codec()
        value = ()
        for _ in range(MAX_DEPTH - 1):
            value = (value,)
        data = codec.encode(Any, value)
        assert codec.decode(Any, data) == value
        with pytest.raises(EncodeError):
            codec.encode(Any, (value,))
        deeper = bytes([T_TUPLE]) + (1).to_bytes(4, "little")
        with pytest.raises(DecodeError, match="nested too deep"):
            codec.decode(Any, deeper * MAX_DEPTH + data)
        # an object in the tagged form counts as a level too
        nested = b"".join(bytes([T_OBJ, GOLDEN_TAGS["Certificate"]])
                          for _ in range(MAX_DEPTH + 1))
        with pytest.raises(DecodeError, match="nested too deep"):
            codec.decode(Any, nested)

    def test_the_intern_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(codec_module, "MAX_INTERNED", 8)
        codec = Codec()
        frames = [bytes(codec.encode_frame(client_id(index), golden_messages()["Prepare"]))
                  for index in range(20)]
        senders = [codec.decode_frame(frame)[0] for frame in frames]
        assert senders == [client_id(index) for index in range(20)]
        assert len(codec.nodes) == 8
        assert codec.decode_frame(frames[0])[0] is senders[0]         # interned
        again = codec.decode_frame(frames[19])[0]
        assert again == senders[19] and again is not senders[19]      # constructed

    def test_a_firewall_id_with_no_row_is_refused(self, frames):
        codec = default_codec()
        rowless = (3 << 28 | 1).to_bytes(4, "little")               # F?.1
        with pytest.raises(DecodeError) as refused:
            codec.decode_frame(rowless + frames["Prepare"][4:])
        assert "firewall nodes must specify a row" in str(refused.value.__cause__)
        with pytest.raises(DecodeError):
            codec.decode(Any, bytes([codec_module.T_NODE]) + rowless)

    def test_a_mac_vector_has_one_form(self, messages):
        """A token the MAC form carries may not arrive in the tagged form:
        it would re-encode to other bytes."""
        codec = default_codec()
        auth = messages["CommitMsg"].cert_authenticator
        assert isinstance(auth.token, dict)
        canonical = codec.encode(Authenticator, auth)
        assert codec.decode(Authenticator, canonical) == auth
        head = canonical[:4 + 1]               # signer, scheme; token next
        assert canonical[len(head)] == codec_module.TOKEN_MACS
        tagged = head + bytes([codec_module.TOKEN_VALUE]) + codec.encode(Any, auth.token)
        with pytest.raises(DecodeError, match="MAC vector"):
            codec.decode(Authenticator, tagged)
        # what the MAC form cannot carry goes tagged and comes back
        for token in ({"A0": b"short"}, {"A01": b"x" * 32}, b"signature", None):
            odd = Authenticator(signer=auth.signer, scheme=auth.scheme, token=token)
            assert codec.decode(Authenticator, codec.encode(Authenticator, odd)) == odd

    @pytest.mark.parametrize("tp, data", [
        (bool, b"\x02"),                                    # a boolean is 0 or 1
        (Tuple[bool, ...], b"\x01\x00\x00\x00\x07"),
        (Any, bytes([codec_module.T_DICT]) + (2).to_bytes(4, "little")
         + bytes([codec_module.T_TRUE, codec_module.T_NONE] * 2)),   # a repeated key
        (Any, bytes([codec_module.T_ENUM, 1, 9])),          # no such member
        (Any, bytes([codec_module.T_ENUM, 99, 0])),         # no such enum
        (Any, bytes([codec_module.T_OBJ, 199])),            # no such class
        (Any, bytes([200])),                                # no such tag
        (Any, bytes([codec_module.T_STR]) + (2).to_bytes(4, "little") + b"\xc3\x28"),
        # an int that fits in 8 bytes, and one not in its shortest form
        (Any, bytes([codec_module.T_BIGINT]) + (9).to_bytes(4, "little")
         + (5).to_bytes(9, "little")),
        (Any, bytes([codec_module.T_BIGINT]) + (10).to_bytes(4, "little")
         + (1 << 64).to_bytes(10, "little")),
        (Any, bytes([codec_module.T_BIGINT]) + (10).to_bytes(4, "little")
         + (-(1 << 64)).to_bytes(10, "little", signed=True)),
    ])
    def test_invalid_values_are_refused(self, tp, data):
        with pytest.raises(DecodeError):
            default_codec().decode(tp, data)


# ---------------------------------------------------------------------- #
# Decode once: a nested message keeps the bytes it arrived in.
# ---------------------------------------------------------------------- #

NODES = (agreement_id(0), execution_id(1), client_id(2), firewall_id(1, 2))
_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=6) | st.binary(max_size=12)
           | st.sampled_from(NODES + tuple(Role)))


def _declared():
    """Registered class -> ``(tag, its fields as (name, spec), build)``."""
    codec = default_codec()
    table = {}
    for tag, cls, declared, build in standard_types()[1]:
        if declared is None:
            hints = typing.get_type_hints(cls)
            declared = [(field.name, hints[field.name])
                        for field in dataclasses.fields(cls)]
        table[cls] = (tag, [(name, codec._spec(tp)) for name, tp in declared],
                      build)
    return table


DECLARED = _declared()
MESSAGE_CLASSES = sorted((cls for cls in DECLARED if issubclass(cls, Message)),
                         key=lambda cls: cls.__name__)


def _of(spec, depth):
    """A strategy for the values a field of ``spec`` holds (the codec's
    specs: :meth:`Codec._spec`)."""
    kind = spec[0]
    if kind == "int":
        return st.integers(-(1 << 63), (1 << 63) - 1)
    if kind == "float":
        return st.floats()
    if kind == "bool":
        return st.booleans()
    if kind == "bytes":
        return st.binary(max_size=12)
    if kind == "str":
        return st.text(max_size=6)
    if kind == "node":
        return st.sampled_from(NODES)
    if kind in ("enum", "fset"):
        members = st.sampled_from(default_codec()._enums[spec[1]])
        return members if kind == "enum" else st.frozensets(members)
    if kind == "opt":
        return st.none() | _of(spec[1], depth)
    if kind == "seq":
        return st.lists(_of(spec[1], depth), max_size=2).map(tuple)
    if kind == "tuple":
        return st.tuples(*(_of(item, depth) for item in spec[1]))
    if kind == "dict":
        return st.dictionaries(_of(spec[1], depth), _of(spec[2], depth), max_size=2)
    if kind == "token":
        return (st.dictionaries(st.sampled_from([node.name for node in NODES]),
                                st.binary(min_size=32, max_size=32), max_size=3)
                | st.binary(max_size=12))
    if kind == "cls":
        cls = next(cls for cls, (tag, _, _) in DECLARED.items() if tag == spec[1])
        return _built(cls, depth + 1)
    assert kind == "any"
    if depth >= 3:
        return _LEAVES
    return _LEAVES | st.lists(_LEAVES, max_size=2).map(tuple) | st.sampled_from(
        sorted(DECLARED, key=lambda cls: cls.__name__)).flatmap(
            lambda cls: _built(cls, depth + 1))


def _built(cls, depth=0):
    """A strategy for objects of the registered class ``cls``, any field
    values its wire form can carry."""
    _, declared, build = DECLARED[cls]
    values = st.tuples(*(_of(spec, depth) for _, spec in declared))
    if build is not None:
        return values.map(lambda args: build(*args))
    return values.map(lambda args: cls(**{name: value for (name, _), value
                                          in zip(declared, args)}))


class TestDecodeOnce:
    """A nested message keeps the slice of the frame it was decoded from as
    its memoised encoding (:mod:`repro.net.codec`): it must be exactly
    what a fresh encoding of it writes, under the same digest."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_WIRE))
    def test_golden_frames(self, frames, name):
        _, message = default_codec().decode_frame(frames[name])
        assert check_seeded(message) == len(list(nested_messages(message)))

    def test_golden_frames_seed_their_payloads(self, frames):
        seeded = {name: check_seeded(default_codec().decode_frame(frame)[1])
                  for name, frame in frames.items()}
        assert seeded["RequestEnvelope"] == 1 and seeded["ClientReply"] >= 2
        assert seeded["BatchTransfer"] >= 1 and seeded["BatchReply"] >= 1

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_built_messages(self, cls, data):
        message = data.draw(_built(cls))
        codec = default_codec()
        frame = bytes(codec.encode_frame(SENDER, message))
        assert not _decode_or_refuse(codec, frame)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(GOLDEN_FRAMES)), data=st.data())
    def test_a_changed_byte(self, frames, name, data):
        """Any one byte changed: refused, or what it decodes to keeps true
        bytes and digests."""
        frame = bytearray(frames[name])
        position = data.draw(st.integers(0, len(frame) - 1))
        frame[position] = data.draw(st.integers(0, 255).filter(
            lambda value: value != frame[position]))
        _decode_or_refuse(default_codec(), bytes(frame))

    def test_nothing_is_seeded_with_the_cache_off(self, frames):
        with cache_off():
            _, message = default_codec().decode_frame(frames["ClientReply"])
        assert all(getattr(obj, "_wire", None) is None
                   for obj in nested_messages(message))


class TestRelayedReplyFrames:
    @pytest.mark.parametrize("g", [1, 2])
    def test_cut_frames_are_their_own_encodings(self, g):
        """A bodiless reply cut for each agreement node: every frame shares
        the body, names its node alone in each MAC vector, and encodes --
        the body spliced from its memo -- to what a fresh encoding of it
        writes, each to bytes of its own and of the size it reports."""
        from conftest import make_config
        from repro.apps.counter import CounterService, increment
        from repro.core import SeparatedSystem
        from test_crypto import _bodiless_reply

        system = SeparatedSystem(make_config(g=g), CounterService, seed=5)
        system.invoke(increment(1))
        whole = _bodiless_reply(system)
        frames = whole.addressed_to_each(system.agreement_ids)
        assert len(frames) == len(system.agreement_ids)
        for frame, node in zip(frames, system.agreement_ids):
            assert frame.certificate.payload is whole.body
            assert all(list(authenticator.token) == [node.name]
                       for authenticator in frame.certificate.authenticators.values())
        encoded = [canonical_encode(frame) for frame in frames]
        with cache_off():
            assert [canonical_encode(frame) for frame in frames] == encoded
        assert [frame.wire_size() for frame in frames] == [len(data) for data in encoded]
        assert len(set(encoded)) == len(frames)

    @pytest.mark.parametrize("g", [1, 2])
    def test_each_backup_gets_its_own_frame(self, g, monkeypatch):
        """On the asyncio backend, each ``BatchReply`` the primary relays a
        reply certificate in decodes at its backup, carries MAC vectors
        naming that backup alone, re-encodes to the bytes received and has
        its ``g + 1`` authenticators verify there."""
        from conftest import make_config
        from repro.apps.counter import CounterService, increment
        from repro.config import RuntimeConfig
        from repro.core import SeparatedSystem
        from repro.crypto.provider import CryptoProvider
        from repro.messages.reply import BatchReply
        from test_runtime import WALL_CLOCK_TIMERS

        system = SeparatedSystem(
            make_config(g=g, timers=WALL_CLOCK_TIMERS,
                        runtime=RuntimeConfig(backend="asyncio")),
            CounterService, seed=5)
        try:
            network = system.network
            receive, received = network._receive, []

            def receiving(connection, body):
                data = bytes(body)
                accepted = receive(connection, body)
                received.append((connection.process.node_id, data, accepted))
                return accepted

            monkeypatch.setattr(network, "_receive", receiving)
            system.invoke(increment(1), timeout_ms=30_000)
            system.run(30.0)
        finally:
            system.close()
        codec, primary = default_codec(), system.agreement_ids[0]
        relayed = []
        for receiver, body, accepted in received:
            sender, message = codec.decode_frame(body)
            if sender == primary and type(message) is BatchReply:
                assert accepted
                relayed.append((receiver, message, body))
        assert sorted(receiver for receiver, _, _ in relayed) == \
            sorted(system.agreement_ids[1:])
        for receiver, message, body in relayed:
            certificate = message.certificate
            assert len(certificate.authenticators) == g + 1
            assert all(list(authenticator.token) == [receiver.name]
                       for authenticator in certificate.authenticators.values())
            with cache_off():
                assert bytes(codec.encode_frame(primary, message)) == body
            verifier = CryptoProvider(receiver, system.keystore)
            assert len(verifier.valid_signers(
                certificate, system.execution_ids)) == g + 1


# ---------------------------------------------------------------------- #
# One encoding per value: what digests and MACs are taken over.
# ---------------------------------------------------------------------- #

_keys = (st.none() | st.booleans() | st.integers()
         | st.sampled_from([(1 << 63) - 1, 1 << 63, -(1 << 63), -(1 << 63) - 1,
                            1 << 200, -(1 << 200)])
         | st.text(max_size=8) | st.binary(max_size=8)
         | st.sampled_from([Role.CLIENT, client_id(3), execution_id(0)]))
_values = st.recursive(
    _keys | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_keys, children, max_size=4),
    max_leaves=20,
)


def _reversed(value):
    """``value`` with every dict's insertion order reversed."""
    if isinstance(value, dict):
        return {key: _reversed(value[key]) for key in reversed(list(value))}
    if isinstance(value, (list, tuple)):
        return type(value)(_reversed(item) for item in value)
    return value


class TestOneEncodingPerValue:
    def test_the_byte_form_is_the_tagged_form(self):
        value = {"b": [1, (2.5, None)], "a": b"x"}
        data = default_codec().encode(Any, value)
        assert canonical_encode(value) == data and estimate_size(value) == len(data)

    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_same_encoding_whatever_the_dict_insertion_order(self, value):
        assert canonical_encode(_reversed(value)) == canonical_encode(value)

    def test_typed_dicts_are_ordered_too(self, messages):
        sub = messages["SubReplyBody"]
        flipped = dataclasses.replace(sub, values=_reversed(sub.values))
        assert list(flipped.values) != list(sub.values)
        assert canonical_encode(flipped) == canonical_encode(sub)
        cert = messages["RequestEnvelope"].certificate
        grown = Certificate(payload=cert.payload, scheme=cert.scheme)
        for node, auth in reversed(list(messages["CrossLogBinding"].certificate
                                        .authenticators.items())):
            grown.authenticators[node] = auth
        shuffled = Certificate(payload=cert.payload, scheme=cert.scheme,
                               authenticators=_reversed(grown.authenticators))
        assert canonical_encode(grown) == canonical_encode(shuffled)

    def test_distinct_types_encode_differently(self):
        for a, b in ((1, "1"), (True, 1), (b"x", "x"), (None, False), (1, 1.0),
                     ([1, [2]], [[1], 2]), ([], [[]]), ((1,), [1]),
                     (client_id(0), "C0"), (Role.CLIENT, "client")):
            assert canonical_encode(a) != canonical_encode(b)

    def test_what_the_codec_cannot_name_is_refused(self):
        for bad in (object(), {1, 2}, 1j):
            with pytest.raises(EncodeError):
                canonical_encode(bad)

    def test_ints_of_any_size_have_one_encoding(self):
        codec = default_codec()
        for value in ((1 << 63) - 1, -(1 << 63)):
            assert len(canonical_encode(value)) == 9     # the 8-byte form
        for value in (1 << 63, -(1 << 63) - 1, 1 << 64, -(1 << 64), 3 ** 200):
            data = canonical_encode(value)
            assert data[0] == codec_module.T_BIGINT
            magnitude = value if value >= 0 else -value - 1
            assert len(data) == 5 + magnitude.bit_length() // 8 + 1   # with a sign bit
            assert codec.decode(Any, data) == value
        assert canonical_encode(1 << 63) != canonical_encode(-(1 << 63))

    @given(_values, _values)
    @settings(max_examples=150, deadline=None)
    def test_the_encoding_is_injective(self, a, b):
        codec = default_codec()
        data = canonical_encode(a)
        assert codec.decode(Any, data) == a        # a left inverse
        if data == canonical_encode(b):
            assert a == b and type(a) is type(b)

    @pytest.mark.parametrize("tp", [Any, typing.Dict[str, int]])
    def test_dict_items_out_of_order_are_refused(self, tp):
        codec = default_codec()
        data = codec.encode(tp, {"a": 1, "bb": 2})
        first = codec.encode(Any if tp is Any else str, "a")
        second = codec.encode(Any if tp is Any else str, "bb")
        value = codec.encode(Any if tp is Any else int, 1)
        other = codec.encode(Any if tp is Any else int, 2)
        swapped = data.replace(first + value + second + other,
                               second + other + first + value)
        assert swapped != data
        with pytest.raises(DecodeError, match="increasing order"):
            codec.decode(tp, swapped)

    def test_a_mac_vector_out_of_order_is_refused(self, messages):
        codec = default_codec()
        auth = messages["CommitMsg"].cert_authenticator
        data = codec.encode(Authenticator, auth)
        entry = 4 + codec_module.MAC_BYTES
        start = data.index(bytes([codec_module.TOKEN_MACS, len(auth.token)])) + 2
        first, second = data[start:start + entry], data[start + entry:start + 2 * entry]
        swapped = data[:start] + second + first + data[start + 2 * entry:]
        with pytest.raises(DecodeError, match="increasing order"):
            codec.decode(Authenticator, swapped)


# ---------------------------------------------------------------------- #
# Nothing is unpickled any more, and nothing has a second byte form.
# ---------------------------------------------------------------------- #

def test_no_module_imports_pickle():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(name.split(".")[0] in ("pickle", "_pickle", "cPickle")
                   for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_no_class_defines_a_second_byte_form():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                offenders += [
                    f"{path.relative_to(SRC)}:{item.lineno} {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in ("payload_fields", "to_wire")]
    assert offenders == []
