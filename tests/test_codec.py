"""The wire codec (``repro.net.codec``): registry coverage, golden bytes,
and a decoder that refuses everything an encoder could not have written."""

import ast
import dataclasses
import hashlib
import importlib
import pkgutil
import tracemalloc
from pathlib import Path
from typing import Any, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.crypto.certificate import Authenticator, Certificate
from repro.errors import DecodeError, EncodeError
from repro.messages.agreement import ConfigOperation, ViewChange
from repro.messages.checkpoint import BatchTransfer, checkpoint_payload
from repro.messages.reply import ReplyBody
from repro.messages.request import EncryptedBody
from repro.net import codec as codec_module
from repro.net.codec import (MAX_DEPTH, T_OBJ, T_TUPLE, Codec, decode_reply_table,
                             default_codec, encode_reply_table)
from repro.net.message import CorruptedMessage, Message
from repro.sharding.messages import handoff_payload, vote_payload
from repro.statemachine.interface import Operation, OperationResult
from repro.statemachine.nondet import NonDetInput
from repro.util.ids import Role, agreement_id, client_id, execution_id, firewall_id

from test_messages_and_nondet import GOLDEN_WIRE, golden_messages

SRC = Path(repro.__file__).resolve().parent
SENDER = agreement_id(0)

#: every wire class's tag.  A tag is the class's name on the wire: a frame
#: written by one build must mean the same to another, so none may move.
GOLDEN_TAGS = {
    "Certificate": 1, "Authenticator": 2, "Operation": 3, "OperationResult": 4,
    "NonDetInput": 5, "EncryptedBody": 6,
    "ClientRequest": 10, "RequestEnvelope": 11, "ReplyBody": 12,
    "BatchReplyBody": 13, "BatchReply": 14, "ClientReply": 15,
    "AgreementCertBody": 20, "PrePrepare": 21, "Prepare": 22, "CommitMsg": 23,
    "AgreementCheckpoint": 24, "PreparedProof": 25, "ViewChange": 26,
    "NewView": 27, "OrderedBatch": 28,
    "ExecCheckpointShare": 30, "ExecCheckpointProof": 31, "FetchBatch": 32,
    "BatchTransfer": 33, "StateTransfer": 34,
    "MapChange": 40, "ShardedBatch": 41, "RouteVoucher": 42,
    "ShardLocalBatch": 43, "RangeHandoff": 44, "SubReplyBody": 45,
    "CrossShardSubReply": 46, "CrossShardVote": 47, "CrossShardVoteFetch": 48,
    "CrossShardReply": 49, "RangeFetch": 50,
    "LogMapChange": 60, "CrossLogBindingBody": 61, "CrossLogBinding": 62,
    "CrossLogBindingFetch": 63,
}

#: ``(length, sha256)`` of the frame of each golden message sent by A0.
GOLDEN_FRAMES = {
    "AgreementCertBody": (85, "723441526e0fdef130d9d3b0d89c437dc4c66be4b22208ed3db958bb41ae29b9"),
    "AgreementCheckpoint": (78, "b09f10cd3fa3fae7d26739114d01889bd25eabdf8a7772dd83e222a1fd225f83"),
    "BatchReply": (420, "f9d92d88dd91e1ea7ce46643dbb3e9f69161f99e1759e0203c2b5de8c7a8b0b9"),
    "BatchReplyBody": (189, "3ad2c2e64702f32b47f6b6bf6e0783144373f531b5c7d8f5b1561059db4f5058"),
    "BatchTransfer": (1194, "df1a2002f88553f6698be35fafca9fc0f5221969b300083312f9b184bf799da9"),
    "ClientReply": (370, "4a57a73cad6cefcc3498cc165f826b4df49189fcef56dacb10d29849aeaf208a"),
    "ClientRequest": (116, "7650e0ec3504a73d97ad099a8b87761ae38370ce0ddc89e1f7506a3bd0207210"),
    "CommitMsg": (213, "2f3ef70a9645618e642e962aff91d8a3de6c59ab7cef02fc98e8c557aaa77337"),
    "CrossLogBinding": (265, "54184f256dfd0baff957e174ca9e3aebda217bd785f2c8d4d9290eb9fbe55c92"),
    "CrossLogBindingBody": (51, "cdd3d553e58d56c7375ec3e58f0b54ac4d7abd307d6854d30b584eb7ee3aee2e"),
    "CrossLogBindingFetch": (30, "60c578763dc7a8d83e22f7b888ac9b90c3a7f784e5d898964c802eeaecae10bc"),
    "CrossShardReply": (265, "a5a5441de17961ea3d5d9ab9a00ade017f2f3636012ab4235e75c50880b73c29"),
    "CrossShardSubReply": (305, "a14e3e0ba063d5322d56236dbb76c3170487ed7ed5cc756c25ffc2e5f401f43f"),
    "CrossShardVote": (207, "95c514318ebd0cf3b6285a36daa9b4d1317cc6ba04d02704bece18a14068923a"),
    "CrossShardVoteFetch": (37, "80d89b01e75e69575d4d1feb1412b2ea998a52bd9380d9be13667362a8e2f925"),
    "ExecCheckpointProof": (304, "d474b5d54584dc2afc77a083865e08aa3c3be12fc8caa993db038d802a46f6f3"),
    "ExecCheckpointShare": (54, "046acfdfcb12f22b78d45b469312cf639c771945a586a4edd1e54df3b424ccea"),
    "FetchBatch": (17, "6937e8074945060318a0c5b8dd01cad30d4b96ec474f4d8678144c35b88c860c"),
    "LogMapChange": (29, "3ca1971a85a7afaa2ece63b8c74c3c9d481750e521dbebaa9028d8535936fc7d"),
    "MapChange": (37, "ce6a1667ab61937fa238265535e15c4e68112f4d640036e489d4234e5bf244bc"),
    "NewView": (712, "d08deaa0b3b871dddff69c034e80b49e6d2c3e169e5893c9c0d493e2393327b2"),
    "OrderedBatch": (1188, "35f2cc0a484749b1baff159283e98596eed438d10f2d28468704f3c0ab6e84b7"),
    "PrePrepare": (674, "75a05a267c0b0a52bcbd84e4356e6a2032045e94f2c5dda0a68cd65517769286"),
    "Prepare": (61, "7bfc43b47745bf71c369103ae2160d0656319c1127b066863c33920ba4f7c783"),
    "PreparedProof": (670, "6cf29ecc7249022b9b564f72ee8a4dab2e1df027a6610879c6ffe0b080e55c06"),
    "RangeFetch": (32, "e50f3aa72f6d6558fbd4655574ea6b42c3825dd4890a59dddd9da20fb5e42d07"),
    "RangeHandoff": (92, "9fabd088e301f395711baed595e128d7de716afbfa44c43f0b34d7908beed4ae"),
    "ReplyBody": (74, "f11982668d1ea516d9e9b827949d213a55a86d2e08cf96eaeeb1755cde083a92"),
    "RequestEnvelope": (316, "28ef66d479aef5ef6b9fc459224a4691dd4047243c186ee100c14c7b5a8fadfd"),
    "RouteVoucher": (74, "d9769d7f3355247e32625a8156d9d23899533c6ca026c6e93766db86f41e6a32"),
    "ShardLocalBatch": (1528, "231aecff93b59bd31f1397da89d71b3d91ece7a51bf1c2975d1081851923e5c8"),
    "ShardedBatch": (1221, "40cfb473f46e79b1e1da7dc0b7a581fa6b01d6f77871c7d6db01a16bcbeabc25"),
    "StateTransfer": (365, "51828b4b5cb5fcc51d03cd5bf2ef83f352344636238fcf79770e8e32840ea0e9"),
    "SubReplyBody": (107, "0eef098ea6c2795a5f1c0a3065867903388d474fcca6b8fa6724d477afd001f6"),
    "ViewChange": (695, "325a3aedef5b66f9e49a43769ee061f888dbe2c4eb79b9713b3ef6a84e643bde"),
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
            codec.encode(Any, 1 << 64)


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
        assert message.encoded() == messages[name].encoded()

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
    (anything else raised fails the test), else check the re-encoding."""
    try:
        sender, message = codec.decode_frame(data)
    except DecodeError:
        return True
    assert bytes(codec.encode_frame(sender, message)) == data
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
        head = canonical[:4 + 1 + 4 + 32]      # signer, scheme, digest; token next
        assert canonical[len(head)] == codec_module.TOKEN_MACS
        tagged = head + bytes([codec_module.TOKEN_VALUE]) + codec.encode(Any, auth.token)
        with pytest.raises(DecodeError, match="MAC vector"):
            codec.decode(Authenticator, tagged)
        # what the MAC form cannot carry goes tagged and comes back
        for token in ({"A0": b"short"}, {"A01": b"x" * 32}, b"signature", None):
            odd = Authenticator(signer=auth.signer, scheme=auth.scheme,
                                payload_digest=auth.payload_digest, token=token)
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
    ])
    def test_invalid_values_are_refused(self, tp, data):
        with pytest.raises(DecodeError):
            default_codec().decode(tp, data)


# ---------------------------------------------------------------------- #
# Nothing is unpickled any more.
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
