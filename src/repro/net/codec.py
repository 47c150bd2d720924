"""The wire codec: typed, strict bytes, the one byte form of a protocol value.

Two things leave a node as bytes and come back as objects: the frames of
the asyncio transport (:mod:`repro.runtime.asyncio_rt`) and the reply
tables that checkpoints, state transfers and range handoffs carry
(:func:`encode_reply_table`).  Both go through one :class:`Codec`, built
from a registry of wire types.  Its tagged form (:meth:`Codec.encode_tagged`,
:func:`repro.util.encoding.canonical_encode`) is also what digests, MACs,
signatures and the simulator's sizes are taken over, so a frame carries
each payload in exactly the bytes its digest covers.  Nested messages,
certificates and authenticators are spliced from their memos when their
bytes are there, and memoised when encoded here
(:mod:`repro.util.wirecache`).

**Format.**  Each registered class has a stable one-byte tag
(:func:`standard_types`), and its encoder and decoder are compiled once,
from its dataclass field annotations, into straight-line Python.  Fields go
in declaration order with no names: ``int`` and ``float`` as little-endian
8-byte ``struct`` fields (runs of fixed-width fields in one ``struct``
call), ``bool`` as one byte, ``bytes`` and ``str`` (UTF-8) after a 4-byte
length, a :class:`~repro.util.ids.NodeId` as its 4-byte wire code, an enum
as its position, ``Optional[T]`` as a presence byte and then ``T``,
``Tuple[T, ...]`` and ``Dict[K, V]`` as a 4-byte count and then the items,
and a registered class as its fields (its exact type is required).
Fields typed ``Any``, ``Union`` or ``Message`` take the *tagged* form: one
tag byte, then ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
``tuple``, ``list``, ``dict``, ``NodeId``, a registered enum or a
registered class.  An ``int`` there is 8 bytes, like a typed one, unless
it does not fit: then it is a 4-byte length and its shortest little-endian
two's complement (at least 9 bytes), so application values of any size --
a counter's result, an operation's argument -- have their one encoding.
Nothing else can be named, so a peer cannot make the receiver build an
arbitrary object.  A frame is the sender's code, the
message's class tag and the message.

Two hot paths are typed: a registered object in the tagged form (a
certificate's payload, a request's operation) is handed straight to its
class's compiled decoder, and an authenticator (signer, scheme, token; no
digest) carries a MAC vector (a dict from node name to MAC) as a count and
``(node code, 32-byte MAC)`` pairs read with one ``struct`` call --
anything else there is the tagged form after a marker byte.

**Strictness.**  A decoder accepts only bytes that an encoder could have
written -- the property the tests hold it to is that an accepted frame
re-encodes to exactly the bytes received.  It reads the whole input and
nothing beyond it; a length or count is checked against what is left
before anything is allocated for it; booleans, presence bytes, enum
positions and node codes must be valid; an int in the long form must be
in its shortest form and not fit in 8 bytes; dict items and set members must be
in increasing order of their encodings (a MAC vector's in increasing order
of node code), which is the order the encoders write them in, whatever the
order a dict was filled in; the tagged form nests at most
:data:`MAX_DEPTH` deep; a token in the tagged form must not be one the MAC
form would have carried.  Anything else raises :class:`DecodeError`, and
nothing else is raised.  Objects are built without their constructor
(their fields are set directly, so a ``Certificate`` is not re-validated
field by field), except a class with ``__post_init__`` or a registered
``build``, whose checks then run on what the peer sent.

**Node ids.**  A code decodes through a table of interned ids, so a frame
names the same ``NodeId`` objects the receiver already holds; the table
stops growing at :data:`MAX_INTERNED` entries, after which ids are
constructed (and validated) per frame.
"""

from __future__ import annotations

import enum
import functools
import re
import struct
import typing
from dataclasses import fields
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..errors import DecodeError, EncodeError
from ..util.ids import NodeId, Role, node_of_code
from ..util.wirecache import WIRE_CACHE, WireMemoised, remember
from .message import Message

#: deepest nesting of the tagged form (containers and objects in ``Any``
#: fields); real messages nest a handful deep
MAX_DEPTH = 32
#: most ids the decoder interns (a deployment has a few dozen)
MAX_INTERNED = 4096
MAC_BYTES = 32
#: longest MAC vector the MAC form carries (a longer one is tagged)
MAX_MACS = 255

# The tagged form's tags.
(T_NONE, T_FALSE, T_TRUE, T_INT, T_FLOAT, T_STR, T_BYTES, T_TUPLE, T_LIST,
 T_DICT, T_NODE, T_ENUM, T_OBJ, T_BIGINT) = range(14)
# ``Authenticator.token``'s two forms.
TOKEN_MACS, TOKEN_VALUE = 0, 1

_HEAD = struct.Struct("<IB")
_I = struct.Struct("<I")
_q = struct.Struct("<q")
_d = struct.Struct("<d")
_BI = struct.Struct("<BI")
_Bq = struct.Struct("<Bq")
_Bd = struct.Struct("<Bd")
_BBB = struct.Struct("<BBB")
_FIXED = {"int": "q", "float": "d", "bool": "B", "node": "I", "enum": "B"}
_NAME = re.compile(r"([CAEFS])(\d+)(?:\.(\d+))?\Z")
_ROLE_OF_SHORT = {role.short(): role for role in Role}
#: what a malformed input raises inside a decoder before it is re-raised
#: as :class:`DecodeError` (``UnicodeDecodeError`` is a ``ValueError``;
#: ``ValueError`` is also ``__post_init__``'s and an unknown node code's)
_MALFORMED = (struct.error, IndexError, KeyError, ValueError, TypeError,
              OverflowError)


class MacVector:
    """The declared type of ``Authenticator.token``: its own form (module
    docstring), not a class that is ever built."""


def standard_types():
    """The wire types: ``(enums, classes)``, each a tuple of ``(tag, type)``
    with, for a class, the fields to use and the callable that builds it
    when the dataclass fields are not those (``None`` otherwise).  A tag
    is part of the format: never reuse or renumber one."""
    from ..config import AuthenticationScheme
    from ..crypto.certificate import Authenticator, Certificate
    from ..messages.agreement import (AgreementCertBody, AgreementCheckpoint,
                                      CommitMsg, NewView, OrderedBatch,
                                      PreparedProof, PrePrepare, Prepare,
                                      RoutedCertBody, ViewChange)
    from ..messages.checkpoint import (BatchTransfer, ExecCheckpointProof,
                                       ExecCheckpointShare, FetchBatch,
                                       StateTransfer)
    from ..messages.reply import (BatchReply, BatchReplyBody, ClientReply,
                                  ReplyBody)
    from ..messages.request import ClientRequest, EncryptedBody, RequestEnvelope
    from ..multilog.messages import (CrossLogBinding, CrossLogBindingBody,
                                     CrossLogBindingFetch, LogMapChange)
    from ..sharding.messages import (CrossShardSubReply, CrossShardVote,
                                     CrossShardVoteFetch, MapChange,
                                     RangeFetch, RangeHandoff,
                                     ShardLocalBatch, SubReplyBody)
    from ..statemachine.interface import Operation, OperationResult
    from ..statemachine.nondet import NonDetInput

    signed = (("signer", NodeId), ("scheme", AuthenticationScheme),
              ("token", MacVector))
    sealed = (("_plaintext", Any), ("readers", typing.FrozenSet[Role]),
              ("size", int))
    enums = ((1, Role), (2, AuthenticationScheme))
    classes = (
        (1, Certificate, None, None), (2, Authenticator, signed, None),
        (3, Operation, None, None), (4, OperationResult, None, None),
        (5, NonDetInput, None, None), (6, EncryptedBody, sealed, EncryptedBody),
        (10, ClientRequest, None, None), (11, RequestEnvelope, None, None),
        (12, ReplyBody, None, None), (13, BatchReplyBody, None, None),
        (14, BatchReply, None, None), (15, ClientReply, None, None),
        (20, AgreementCertBody, None, None), (21, PrePrepare, None, None),
        (22, Prepare, None, None), (23, CommitMsg, None, None),
        (24, AgreementCheckpoint, None, None), (25, PreparedProof, None, None),
        (26, ViewChange, None, None), (27, NewView, None, None),
        (28, OrderedBatch, None, None), (29, RoutedCertBody, None, None),
        (30, ExecCheckpointShare, None, None),
        (31, ExecCheckpointProof, None, None), (32, FetchBatch, None, None),
        (33, BatchTransfer, None, None), (34, StateTransfer, None, None),
        (40, MapChange, None, None),
        # 41 and 42 are retired (a routing envelope and its digest-only
        # vote; the certificate covers the route now): never reuse them
        (43, ShardLocalBatch, None, None),
        (44, RangeHandoff, None, None), (45, SubReplyBody, None, None),
        (46, CrossShardSubReply, None, None), (47, CrossShardVote, None, None),
        (48, CrossShardVoteFetch, None, None),
        # 49 is retired (an assembled cross-shard reply): never reuse it
        (50, RangeFetch, None, None),
        (60, LogMapChange, None, None), (61, CrossLogBindingBody, None, None),
        (62, CrossLogBinding, None, None),
        (63, CrossLogBindingFetch, None, None),
    )
    return enums, classes


class _Source:
    """One generated function: its lines, and the run of fixed-width
    fields not yet written (encoding: ``(format, expression)``; decoding:
    ``(format, variable, lines to run after the unpack)``)."""

    def __init__(self, header: str) -> None:
        self.lines = [header]
        self.depth = 1
        self.run: List[tuple] = []
        self.count = 0

    def var(self, stem: str = "v") -> str:
        self.count += 1
        return f"{stem}{self.count}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class Codec:
    """A registry of wire types and the encoders and decoders compiled for
    them (module docstring).  :func:`default_codec` is the process's one
    codec; tests register their own message classes on it with
    :meth:`register`."""

    def __init__(self) -> None:
        enums, classes = standard_types()
        #: code -> interned id (see :data:`MAX_INTERNED`)
        self.nodes: Dict[int, NodeId] = {}
        self._name_codes: Dict[str, Optional[int]] = {}
        self._tags: Dict[type, int] = {}
        self._enum_tags: Dict[type, int] = {}
        self._enums: Dict[int, Tuple[enum.Enum, ...]] = {}
        self._any_encoders: Dict[type, Callable] = {
            type(None): self._enc_none, bool: self._enc_bool,
            int: self._enc_int, float: self._enc_float, str: self._enc_str,
            bytes: self._enc_bytes, tuple: self._enc_tuple,
            list: self._enc_list, dict: self._enc_dict, NodeId: self._enc_node}
        self._any_decoders: List[Callable] = [self._dec_bad_tag] * 256
        for tag, fn in ((T_NONE, self._dec_none), (T_FALSE, self._dec_false),
                        (T_TRUE, self._dec_true), (T_INT, self._dec_int),
                        (T_FLOAT, self._dec_float), (T_STR, self._dec_str),
                        (T_BYTES, self._dec_bytes), (T_TUPLE, self._dec_tuple),
                        (T_LIST, self._dec_list), (T_DICT, self._dec_dict),
                        (T_NODE, self._dec_node), (T_ENUM, self._dec_enum),
                        (T_OBJ, self._dec_obj), (T_BIGINT, self._dec_bigint)):
            self._any_decoders[tag] = fn
        #: class tag -> decoder, for the tagged form and for frames
        self._decoders: Dict[int, Callable] = {}
        self._frame_decoders: Dict[int, Callable] = {}
        self._encoders: Dict[type, Callable] = {}
        #: a memoised class -> its tagged form's bytes (:func:`_memoised`)
        self._memo_bytes: Dict[type, Callable] = {}
        self._values: Dict[Any, Tuple[Callable, Callable]] = {}
        self._ns: Dict[str, Any] = {
            "_new": object.__new__, "_set": object.__setattr__,
            "_nodes_get": self.nodes.get, "_node": self._node,
            "_enc_any": self._enc_any, "_dec_any": self._dec_any,
            "_enc_token": self._enc_token, "_dec_token": self._dec_token,
            "_bad": DecodeError, "_wrong": _wrong_type, "_str": str,
            "_bytes": bytes, "_classes": self._decoders,
            "_values": self._any_decoders,
        }
        self._structs: Dict[str, str] = {}
        self._keys: Dict[tuple, str] = {}
        for tag, kind in enums:
            self._register_enum(kind, tag)
        pending = []
        for tag, cls, declared, build in classes:
            pending.append(self._declare(cls, tag, declared, build))
        for entry in pending:
            self._compile(*entry)

    # ------------------------------------------------------------------ #
    # Registration.
    # ------------------------------------------------------------------ #

    def register(self, cls: type, tag: int) -> None:
        """Add the dataclass ``cls`` under ``tag``.  Registering the same
        class under the same tag again does nothing."""
        if self._tags.get(cls) == tag:
            return
        self._compile(*self._declare(cls, tag, None, None))

    def tag_of(self, cls: type) -> int:
        return self._tags[cls]

    def _register_enum(self, kind: type, tag: int) -> None:
        members = tuple(kind)
        if tag in self._enums or len(members) > 256:
            raise ValueError(f"enum tag {tag} taken or {kind} too large")
        self._enum_tags[kind] = tag
        self._enums[tag] = members
        self._ns[f"M{tag}"] = members
        self._ns[f"X{tag}"] = index = {m: i for i, m in enumerate(members)}
        head = {m: _BBB.pack(T_ENUM, tag, i) for m, i in index.items()}
        self._any_encoders[kind] = lambda value, out, depth: out.extend(head[value])

    def _declare(self, cls: type, tag: int,
                 declared: Optional[Sequence[Tuple[str, Any]]],
                 build: Optional[Callable]):
        """Claim ``tag`` for ``cls``.  ``declared``: ``(attribute, type)``
        pairs instead of the dataclass fields; ``build``: what makes an
        object of their values instead of setting them on a bare one."""
        if not 0 <= tag < 256 or tag in self._decoders:
            raise ValueError(f"class tag {tag} is out of range or taken")
        if cls in self._tags:
            raise ValueError(f"{cls.__name__} is registered as {self._tags[cls]}")
        if declared is None:
            hints = typing.get_type_hints(cls)
            declared = [(f.name, hints[f.name]) for f in fields(cls)]
        if build is None and hasattr(cls, "__post_init__"):
            build = cls
        self._tags[cls] = tag
        self._ns[f"C{tag}"] = cls
        self._ns[f"B{tag}"] = build
        self._decoders[tag] = None  # the tag is taken; compiled next
        return cls, tag, tuple(declared), build

    def _compile(self, cls: type, tag: int, declared, build) -> None:
        specs = [(name, self._spec(tp)) for name, tp in declared]
        enc = _Source(f"def E{tag}(o, out, depth):")
        for name, spec in specs:
            self._gen_enc(enc, spec, f"o.{name}")
        self._flush_enc(enc)
        enc.emit("return out")
        dec = _Source(f"def D{tag}(data, pos, depth):")
        values = []
        for name, spec in specs:
            values.append(dec.var("f"))
            self._gen_dec(dec, spec, values[-1])
        self._flush_dec(dec)
        if build is not None:
            dec.emit(f"return B{tag}({', '.join(values)}), pos")
        else:
            dec.emit(f"o = _new(C{tag})")
            if cls.__dictoffset__:
                items = ", ".join(f"{name!r}: {value}"
                                  for (name, _), value in zip(specs, values))
                dec.emit(f"_set(o, '__dict__', {{{items}}})")
            else:
                for (name, _), value in zip(specs, values):
                    dec.emit(f"_set(o, {name!r}, {value})")
            dec.emit("return o, pos")
        exec(enc.text() + dec.text(), self._ns)  # noqa: S102 - generated here
        encode, decode = self._ns[f"E{tag}"], self._ns[f"D{tag}"]
        self._encoders[cls] = encode
        self._decoders[tag] = decode
        if issubclass(cls, Message):
            self._frame_decoders[tag] = decode
        head = bytes((T_OBJ, tag))

        def tagged(value, out, depth):
            if depth >= MAX_DEPTH:
                raise EncodeError("nested too deep")
            out += head
            encode(value, out, depth + 1)

        if issubclass(cls, WireMemoised):
            self._memo_bytes[cls], tagged, typed = _memoised(tagged)
        else:
            typed = encode
        self._any_encoders[cls] = tagged
        self._ns[f"N{tag}"] = typed

    def _key_order(self, spec: tuple) -> str:
        """The name of a sort key for ``(key, value)`` items whose keys have
        ``spec``: the key's encoding."""
        name = self._keys.get(spec)
        if name is None:
            name = self._keys[spec] = f"K{len(self._keys)}"
            src = _Source(f"def {name}(item, depth=0):")
            src.emit("out = bytearray()")
            self._gen_enc(src, spec, "item[0]")
            self._flush_enc(src)
            src.emit("return out")
            exec(src.text(), self._ns)  # noqa: S102 - generated here
        return name

    # ------------------------------------------------------------------ #
    # Types -> specs.
    # ------------------------------------------------------------------ #

    def _spec(self, tp: Any) -> tuple:
        if tp is Any:
            return ("any",)
        if tp is MacVector:
            return ("token",)
        if tp in (int, float, bool, bytes, str):
            return (tp.__name__,)
        if tp is NodeId:
            return ("node",)
        if isinstance(tp, type) and issubclass(tp, enum.Enum):
            return ("enum", self._enum_tags[tp])
        if isinstance(tp, type) and tp in self._tags:
            return ("cls", self._tags[tp])
        if tp is Message:   # any registered message: the tagged form
            return ("any",)
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if origin is Union:
            present = [arg for arg in args if arg is not type(None)]
            if len(present) == 1:
                return ("opt", self._spec(present[0]))
            return ("any",)
        if origin is tuple:
            if not args:
                return ("any",)
            if len(args) == 2 and args[1] is Ellipsis:
                return ("seq", self._spec(args[0]))
            return ("tuple", tuple(self._spec(arg) for arg in args))
        if origin is dict:
            return ("dict", self._spec(args[0]), self._spec(args[1]))
        if origin is frozenset and args[0] in self._enum_tags:
            return ("fset", self._enum_tags[args[0]])
        raise TypeError(f"no wire form for {tp!r}")

    def _struct(self, fmt: str) -> str:
        name = self._structs.get(fmt)
        if name is None:
            name = self._structs[fmt] = f"S{len(self._structs)}"
            self._ns[name] = struct.Struct("<" + fmt)
        return name

    # ------------------------------------------------------------------ #
    # Code generation: encoders.
    # ------------------------------------------------------------------ #

    def _flush_enc(self, src: _Source) -> None:
        if not src.run:
            return
        fmt = "".join(f for f, _ in src.run)
        exprs = ", ".join(e for _, e in src.run)
        if fmt == "B":
            src.emit(f"out.append({exprs})")
        else:
            src.emit(f"out += {self._struct(fmt)}.pack({exprs})")
        src.run = []

    def _gen_enc(self, src: _Source, spec: tuple, expr: str) -> None:
        kind = spec[0]
        if kind in _FIXED:
            if kind == "bool":
                expr = f"1 if {expr} else 0"
            elif kind == "node":
                expr = f"{expr}._code"
            elif kind == "enum":
                expr = f"X{spec[1]}[{expr}]"
            src.run.append((_FIXED[kind], expr))
            return
        if kind in ("bytes", "str"):
            value = src.var()
            src.emit(f"{value} = {expr}" + (".encode()" if kind == "str" else ""))
            src.run.append(("I", f"len({value})"))
            self._flush_enc(src)
            src.emit(f"out += {value}")
            return
        if kind == "tuple":
            items = [src.var("x") for _ in spec[1]]
            src.emit(f"{', '.join(items)}, = {expr}")
            for item_spec, item in zip(spec[1], items):
                self._gen_enc(src, item_spec, item)
            return
        self._flush_enc(src)
        value = src.var()
        src.emit(f"{value} = {expr}")
        if kind == "opt":
            src.emit(f"if {value} is None:")
            src.emit("    out.append(0)")
            src.emit("else:")
            src.depth += 1
            src.run.append(("B", "1"))
            self._gen_enc(src, spec[1], value)
            self._flush_enc(src)
            src.depth -= 1
        elif kind in ("seq", "dict"):
            src.run.append(("I", f"len({value})"))
            self._flush_enc(src)
            if kind == "seq":
                item = src.var("x")
                src.emit(f"for {item} in {value}:")
                src.depth += 1
                self._gen_enc(src, spec[1], item)
            else:
                key, item = src.var("k"), src.var("x")
                order = self._key_order(spec[1])
                src.emit(f"for {key}, {item} in ({value}.items() if len({value}) < 2 "
                         f"else sorted({value}.items(), key={order})):")
                src.depth += 1
                self._gen_enc(src, spec[1], key)
                self._gen_enc(src, spec[2], item)
            self._flush_enc(src)
            src.depth -= 1
        elif kind == "fset":
            src.emit(f"{value} = bytes(sorted([X{spec[1]}[m] for m in {value}]))")
            src.run.append(("B", f"len({value})"))
            self._flush_enc(src)
            src.emit(f"out += {value}")
        elif kind == "cls":
            src.emit(f"if type({value}) is not C{spec[1]}: "
                     f"raise _wrong({value}, C{spec[1]})")
            src.emit(f"N{spec[1]}({value}, out, depth)")
        elif kind in ("any", "token"):
            src.emit(f"_enc_{kind}({value}, out, depth)")
        else:
            raise TypeError(f"unknown spec {spec!r}")

    # ------------------------------------------------------------------ #
    # Code generation: decoders.
    # ------------------------------------------------------------------ #

    def _flush_dec(self, src: _Source) -> None:
        if not src.run:
            return
        fmt = "".join(f for f, _, _ in src.run)
        names = ", ".join(v for _, v, _ in src.run)
        if fmt == "B":
            src.emit(f"{names} = data[pos]")
            src.emit("pos += 1")
        else:
            packer = self._struct(fmt)
            src.emit(f"{names}, = {packer}.unpack_from(data, pos)")
            src.emit(f"pos += {struct.calcsize('<' + fmt)}")
        for _, _, after in src.run:
            for line in after:
                src.emit(line)
        src.run = []

    def _gen_dec(self, src: _Source, spec: tuple, target: str) -> None:
        kind = spec[0]
        if kind in ("int", "float"):
            src.run.append((_FIXED[kind], target, ()))
            return
        if kind == "bool":
            src.run.append(("B", target, (
                f"if {target} > 1: raise _bad('a boolean is 0 or 1')",
                f"{target} = {target} == 1")))
            return
        if kind == "node":
            code = src.var("c")
            src.run.append(("I", code, (
                f"{target} = _nodes_get({code}) or _node({code})",)))
            return
        if kind == "enum":
            index = src.var("i")
            src.run.append(("B", index, (f"{target} = M{spec[1]}[{index}]",)))
            return
        if kind == "tuple":
            items = [src.var("x") for _ in spec[1]]
            for item_spec, item in zip(spec[1], items):
                self._gen_dec(src, item_spec, item)
            self._flush_dec(src)
            src.emit(f"{target} = ({', '.join(items)},)")
            return
        if kind == "any":
            # a registered object (a certificate's payload, an operation)
            # is what these hold most often: its decoder is called at once
            self._flush_dec(src)
            tag = src.var("t")
            src.emit(f"{tag} = data[pos]")
            src.emit(f"if {tag} == {T_OBJ}:")
            src.emit(f"    if depth >= {MAX_DEPTH}: raise _bad('nested too deep')")
            src.emit(f"    {target}, pos = _classes[data[pos + 1]]"
                     f"(data, pos + 2, depth + 1)")
            src.emit("else:")
            src.emit(f"    {target}, pos = _values[{tag}](data, pos + 1, depth)")
            return
        if kind in ("cls", "token"):
            self._flush_dec(src)
            call = f"D{spec[1]}" if kind == "cls" else "_dec_token"
            src.emit(f"{target}, pos = {call}(data, pos, depth)")
            return
        # the rest start with a length, a count or a presence byte
        size = src.var("n")
        src.run.append(("B" if kind in ("opt", "fset") else "I", size, ()))
        self._flush_dec(src)
        if kind == "opt":
            src.emit(f"if {size} == 1:")
            src.depth += 1
            self._gen_dec(src, spec[1], target)
            self._flush_dec(src)
            src.depth -= 1
            src.emit(f"elif {size} == 0:")
            src.emit(f"    {target} = None")
            src.emit("else:")
            src.emit("    raise _bad('a presence byte is 0 or 1')")
            return
        src.emit(f"if {size} > len(data) - pos: "
                 f"raise _bad('a length runs past the end')")
        if kind in ("bytes", "str"):
            convert = ', "utf-8"' if kind == "str" else ""
            src.emit(f"{target} = _{kind}(data[pos:pos + {size}]{convert})")
            src.emit(f"pos += {size}")
        elif kind == "fset":
            src.emit(f"{target} = data[pos:pos + {size}]")
            src.emit(f"pos += {size}")
            src.emit(f"if any(a >= b for a, b in zip({target}, {target}[1:])): "
                     f"raise _bad('set members are in increasing order')")
            src.emit(f"{target} = frozenset([M{spec[1]}[i] for i in {target}])")
        elif kind == "seq":
            items, item = src.var("l"), src.var("x")
            src.emit(f"{items} = []")
            src.emit(f"for _ in range({size}):")
            src.depth += 1
            self._gen_dec(src, spec[1], item)
            self._flush_dec(src)
            src.emit(f"{items}.append({item})")
            src.depth -= 1
            src.emit(f"{target} = tuple({items})")
        elif kind == "dict":
            items, key, item = src.var("d"), src.var("k"), src.var("x")
            start, last = src.var("s"), src.var("p")
            src.emit(f"{items} = {{}}")
            src.emit(f"{last} = b''")
            src.emit(f"for _ in range({size}):")
            src.depth += 1
            src.emit(f"{start} = pos")
            self._gen_dec(src, spec[1], key)
            self._flush_dec(src)
            src.emit(f"{start} = _bytes(data[{start}:pos])")
            src.emit(f"if {start} <= {last}: "
                     f"raise _bad('dict keys are in increasing order')")
            src.emit(f"{last} = {start}")
            self._gen_dec(src, spec[2], item)
            self._flush_dec(src)
            src.emit(f"{items}[{key}] = {item}")
            src.depth -= 1
            src.emit(f"if len({items}) != {size}: raise _bad('a key repeats')")
            src.emit(f"{target} = {items}")
        else:
            raise TypeError(f"unknown spec {spec!r}")

    # ------------------------------------------------------------------ #
    # Node ids.
    # ------------------------------------------------------------------ #

    def _node(self, code: int) -> NodeId:
        """The id of ``code`` when it is not interned (yet)."""
        node = node_of_code(code)
        if len(self.nodes) < MAX_INTERNED:
            self.nodes[code] = node
        return node

    def _name_code(self, name: Any) -> Optional[int]:
        """The wire code of the id named ``name``; None if no id has that
        name (the MAC form carries names of ids only)."""
        code = self._name_codes.get(name, -1)
        if code != -1:
            return code
        code = None
        match = _NAME.match(name) if type(name) is str else None
        if match is not None:
            short, first, second = match.groups()
            try:
                node = (NodeId(Role.FIREWALL, int(second), row=int(first))
                        if second is not None
                        else NodeId(_ROLE_OF_SHORT[short], int(first)))
            except ValueError:
                node = None
            if node is not None and node.name == name:
                code = node._code
        if len(self._name_codes) < MAX_INTERNED:
            self._name_codes[name] = code
        return code

    # ------------------------------------------------------------------ #
    # The tagged form.
    # ------------------------------------------------------------------ #

    def _enc_any(self, value: Any, out: bytearray, depth: int) -> None:
        try:
            encode = self._any_encoders[type(value)]
        except KeyError:
            raise EncodeError(
                f"{type(value).__name__} has no wire form") from None
        encode(value, out, depth)

    @staticmethod
    def _enc_none(value, out, depth) -> None:
        out.append(T_NONE)

    @staticmethod
    def _enc_bool(value, out, depth) -> None:
        out.append(T_TRUE if value else T_FALSE)

    @staticmethod
    def _enc_int(value, out, depth) -> None:
        try:
            out += _Bq.pack(T_INT, value)
        except struct.error:
            data = value.to_bytes(_bigint_size(value), "little", signed=True)
            out += _BI.pack(T_BIGINT, len(data))
            out += data

    @staticmethod
    def _enc_float(value, out, depth) -> None:
        out += _Bd.pack(T_FLOAT, value)

    @staticmethod
    def _enc_str(value, out, depth) -> None:
        data = value.encode()
        out += _BI.pack(T_STR, len(data))
        out += data

    @staticmethod
    def _enc_bytes(value, out, depth) -> None:
        out += _BI.pack(T_BYTES, len(value))
        out += value

    @staticmethod
    def _enc_node(value, out, depth) -> None:
        out += _BI.pack(T_NODE, value._code)

    def _enc_items(self, tag: int, value, out, depth) -> None:
        if depth >= MAX_DEPTH:
            raise EncodeError("nested too deep")
        out += _BI.pack(tag, len(value))
        encode = self._enc_any
        for item in value:
            encode(item, out, depth + 1)

    def _enc_tuple(self, value, out, depth) -> None:
        self._enc_items(T_TUPLE, value, out, depth)

    def _enc_list(self, value, out, depth) -> None:
        self._enc_items(T_LIST, value, out, depth)

    def _enc_dict(self, value, out, depth) -> None:
        if depth >= MAX_DEPTH:
            raise EncodeError("nested too deep")
        encode = self._enc_any
        items = []
        for key, item in value.items():
            key_bytes = bytearray()
            encode(key, key_bytes, depth + 1)
            items.append((key_bytes, item))
        items.sort(key=_first)
        out += _BI.pack(T_DICT, len(value))
        for key_bytes, item in items:
            out += key_bytes
            encode(item, out, depth + 1)

    def _dec_any(self, data: bytes, pos: int, depth: int):
        return self._any_decoders[data[pos]](data, pos + 1, depth)

    @staticmethod
    def _dec_bad_tag(data, pos, depth):
        raise DecodeError(f"no value has tag {data[pos - 1]}")

    @staticmethod
    def _dec_none(data, pos, depth):
        return None, pos

    @staticmethod
    def _dec_false(data, pos, depth):
        return False, pos

    @staticmethod
    def _dec_true(data, pos, depth):
        return True, pos

    @staticmethod
    def _dec_int(data, pos, depth):
        return _q.unpack_from(data, pos)[0], pos + 8

    @staticmethod
    def _dec_bigint(data, pos, depth):
        size = _I.unpack_from(data, pos)[0]
        pos += 4
        if size > len(data) - pos:
            raise DecodeError("a length runs past the end")
        value = int.from_bytes(data[pos:pos + size], "little", signed=True)
        if size <= 8 or size != _bigint_size(value):
            raise DecodeError("an int in the shortest form it fits")
        return value, pos + size

    @staticmethod
    def _dec_float(data, pos, depth):
        return _d.unpack_from(data, pos)[0], pos + 8

    @staticmethod
    def _dec_bytes(data, pos, depth):
        size = _I.unpack_from(data, pos)[0]
        pos += 4
        if size > len(data) - pos:
            raise DecodeError("a length runs past the end")
        return bytes(data[pos:pos + size]), pos + size

    @staticmethod
    def _dec_str(data, pos, depth):
        size = _I.unpack_from(data, pos)[0]
        pos += 4
        if size > len(data) - pos:
            raise DecodeError("a length runs past the end")
        return str(data[pos:pos + size], "utf-8"), pos + size

    def _dec_node(self, data, pos, depth):
        code = _I.unpack_from(data, pos)[0]
        return self.nodes.get(code) or self._node(code), pos + 4

    def _dec_enum(self, data, pos, depth):
        return self._enums[data[pos]][data[pos + 1]], pos + 2

    def _dec_obj(self, data, pos, depth):
        if depth >= MAX_DEPTH:
            raise DecodeError("nested too deep")
        decode = self._decoders.get(data[pos])
        if decode is None:
            raise DecodeError(f"no class has tag {data[pos]}")
        return decode(data, pos + 1, depth + 1)

    def _dec_items(self, data, pos, depth) -> Tuple[list, int]:
        if depth >= MAX_DEPTH:
            raise DecodeError("nested too deep")
        count = _I.unpack_from(data, pos)[0]
        pos += 4
        if count > len(data) - pos:
            raise DecodeError("a count runs past the end")
        items = []
        decode = self._dec_any
        for _ in range(count):
            item, pos = decode(data, pos, depth + 1)
            items.append(item)
        return items, pos

    def _dec_tuple(self, data, pos, depth):
        items, pos = self._dec_items(data, pos, depth)
        return tuple(items), pos

    def _dec_list(self, data, pos, depth):
        return self._dec_items(data, pos, depth)

    def _dec_dict(self, data, pos, depth):
        if depth >= MAX_DEPTH:
            raise DecodeError("nested too deep")
        count = _I.unpack_from(data, pos)[0]
        pos += 4
        if count > len(data) - pos:
            raise DecodeError("a count runs past the end")
        value = {}
        decode = self._dec_any
        last = b""
        for _ in range(count):
            start = pos
            key, pos = decode(data, pos, depth + 1)
            key_bytes = bytes(data[start:pos])
            if key_bytes <= last:
                raise DecodeError("dict keys are in increasing order")
            last = key_bytes
            value[key], pos = decode(data, pos, depth + 1)
        if len(value) != count:
            raise DecodeError("a key repeats")
        return value, pos

    # ------------------------------------------------------------------ #
    # ``Authenticator.token``: a MAC vector or the tagged form.
    # ------------------------------------------------------------------ #

    def _mac_pairs(self, token: Any) -> Optional[list]:
        """``[code, mac, code, mac, ...]`` if ``token`` is a MAC vector the
        MAC form carries, else None."""
        if type(token) is not dict or len(token) > MAX_MACS:
            return None
        items = []
        name_code = self._name_code
        for name, mac in token.items():
            code = name_code(name)
            if code is None or type(mac) is not bytes or len(mac) != MAC_BYTES:
                return None
            items.append((code, mac))
        items.sort(key=_first)
        pairs = []
        for item in items:
            pairs += item
        return pairs

    def _enc_token(self, token: Any, out: bytearray, depth: int) -> None:
        pairs = self._mac_pairs(token)
        if pairs is None:
            out.append(TOKEN_VALUE)
            self._enc_any(token, out, depth)
            return
        out += bytes((TOKEN_MACS, len(token)))
        out += _mac_vector(len(token)).pack(*pairs)

    def _dec_token(self, data: bytes, pos: int, depth: int):
        if data[pos] == TOKEN_VALUE:
            token, pos = self._dec_any(data, pos + 1, depth)
            if self._mac_pairs(token) is not None:
                raise DecodeError("a MAC vector in the tagged form")
            return token, pos
        if data[pos] != TOKEN_MACS:
            raise DecodeError(f"no token form {data[pos]}")
        count = data[pos + 1]
        vector = _mac_vector(count)
        pairs = vector.unpack_from(data, pos + 2)
        nodes, node = self.nodes, self._node
        token = {}
        last = -1
        for index in range(0, 2 * count, 2):
            code = pairs[index]
            if code <= last:
                raise DecodeError("a MAC vector names its nodes in "
                                  "increasing order of their codes")
            last = code
            token[(nodes.get(code) or node(code)).name] = pairs[index + 1]
        return token, pos + 2 + vector.size

    # ------------------------------------------------------------------ #
    # Entry points.
    # ------------------------------------------------------------------ #

    def encode_frame(self, sender: NodeId, message: Any) -> bytearray:
        """The frame body of ``message`` from ``sender``."""
        cls = type(message)
        try:
            out = bytearray(_HEAD.pack(sender._code, self._tags[cls]))
            memo_bytes = self._memo_bytes.get(cls)
            if memo_bytes is not None:   # its tagged form's fields
                out += memoryview(memo_bytes(message, 0))[2:]
            else:
                self._encoders[cls](message, out, 0)
        except (KeyError, AttributeError, TypeError, ValueError,
                struct.error) as exc:
            raise EncodeError(f"{cls.__name__} from {sender!r}: {exc}") from exc
        return out

    def decode_frame(self, body) -> Tuple[NodeId, Any]:
        """``(sender, message)`` of a frame body; :class:`DecodeError`
        unless it is exactly one an encoder could have written."""
        data = _readable(body)
        try:
            code, tag = _HEAD.unpack_from(data, 0)
            decode = self._frame_decoders.get(tag)
            if decode is None:
                raise DecodeError(f"no message has tag {tag}")
            sender = self.nodes.get(code) or self._node(code)
            message, pos = decode(data, _HEAD.size, 0)
        except DecodeError:
            raise
        except _MALFORMED as exc:
            raise DecodeError(f"malformed frame: {exc}") from exc
        if pos != len(data):
            raise DecodeError(f"{len(data) - pos} bytes after the message")
        return sender, message

    def _value_codec(self, tp: Any) -> Tuple[Callable, Callable]:
        compiled = self._values.get(tp)
        if compiled is None:
            spec = self._spec(tp)
            name = f"V{len(self._values)}"
            enc = _Source(f"def E{name}(value, out, depth):")
            self._gen_enc(enc, spec, "value")
            self._flush_enc(enc)
            dec = _Source(f"def D{name}(data, pos, depth):")
            self._gen_dec(dec, spec, "value")
            self._flush_dec(dec)
            dec.emit("return value, pos")
            exec(enc.text() + dec.text(), self._ns)  # noqa: S102
            compiled = self._values[tp] = (self._ns[f"E{name}"],
                                           self._ns[f"D{name}"])
        return compiled

    def encode(self, tp: Any, value: Any) -> bytes:
        """``value`` in the wire form of type ``tp`` (a type a field could
        have: ``Tuple[ReplyBody, ...]``, ``Any``, a registered class...)."""
        out = bytearray()
        try:
            self._value_codec(tp)[0](value, out, 0)
        except (KeyError, AttributeError, TypeError, ValueError,
                struct.error) as exc:
            raise EncodeError(f"{tp!r}: {exc}") from exc
        return bytes(out)

    def encode_tagged(self, value: Any) -> bytes:
        """``value`` in the tagged form: the one byte form of a protocol
        value, under digests, MACs and the simulator's sizes.  Nested
        objects already encoded are spliced from their memos (and those
        encoded here are memoised); ``value`` itself is encoded afresh, its
        memo left to :func:`repro.util.wirecache.wire_memo`."""
        cls = type(value)
        encode = self._encoders.get(cls)
        if encode is None:
            return self.encode(Any, value)
        out = bytearray((T_OBJ, self._tags[cls]))
        try:
            encode(value, out, 1)
        except (KeyError, AttributeError, TypeError, ValueError,
                struct.error) as exc:
            raise EncodeError(f"{cls.__name__}: {exc}") from exc
        return bytes(out)

    def decode(self, tp: Any, data) -> Any:
        """The inverse of :meth:`encode`, as strict as :meth:`decode_frame`."""
        data = _readable(data)
        decode = self._value_codec(tp)[1]
        try:
            value, pos = decode(data, 0, 0)
        except DecodeError:
            raise
        except _MALFORMED as exc:
            raise DecodeError(f"malformed {tp!r}: {exc}") from exc
        if pos != len(data):
            raise DecodeError(f"{len(data) - pos} bytes after the value")
        return value


def _readable(data):
    """What a decoder reads ``data`` from: ``bytes`` as they are, anything
    else through a view, so that each field is copied once, out of the
    input (a frame in the transport's shared read buffer is never kept)."""
    return data if type(data) is bytes else memoryview(data)


def _first(item: tuple) -> Any:
    return item[0]


def _bigint_size(value: int) -> int:
    """Bytes in the shortest two's complement form of ``value``."""
    return ((value if value >= 0 else ~value).bit_length() + 8) // 8


def _memoised(tagged: Callable):
    """The tagged and typed encoders of a :class:`WireMemoised` class and
    the function both splice from: an object's tagged form, from its memo
    when its bytes are there, else encoded and memoised."""
    cache = WIRE_CACHE

    def memo_bytes(value, depth):
        memo = getattr(value, "_wire", None)
        if memo is not None and memo.data is not None and cache.enabled:
            return memo.data
        out = bytearray()
        tagged(value, out, depth)
        data = bytes(out)
        if cache.enabled:
            remember(value, memo, data)
        return data

    def tagged_memoised(value, out, depth):
        out += memo_bytes(value, depth)

    def typed_memoised(value, out, depth):
        out += memoryview(memo_bytes(value, depth))[2:]   # after the head

    return memo_bytes, tagged_memoised, typed_memoised


def _wrong_type(value: Any, expected: type) -> EncodeError:
    return EncodeError(f"{type(value).__name__} where the field holds "
                       f"{expected.__name__}")


@functools.lru_cache(maxsize=MAX_MACS + 1)
def _mac_vector(count: int) -> struct.Struct:
    """``count`` (node code, MAC) pairs."""
    return struct.Struct("<" + f"I{MAC_BYTES}s" * count)


@functools.lru_cache(maxsize=None)
def default_codec() -> Codec:
    """The process's codec over :func:`standard_types`, built on first use
    (it imports every message module)."""
    return Codec()


def mac_form_size(token: Any) -> Optional[int]:
    """The bytes an authenticator's ``token`` takes when the codec carries
    it in the MAC form -- its kind and count, then fixed-width (node code,
    MAC) pairs -- else None: the tagged form, whose length depends on the
    value."""
    if default_codec()._mac_pairs(token) is None:
        return None
    return 2 + _mac_vector(len(token)).size


def encode_reply_table(table: Dict[NodeId, Any]) -> bytes:
    """A client-dedup reply table (client -> its last ``ReplyBody``) as the
    replies in the order of their clients' names.

    Shared by checkpoint digests and range handoffs: both sides of the
    exactly-once argument must encode the table identically.
    """
    from ..messages.reply import ReplyBody
    replies = tuple(reply for _, reply in
                    sorted(table.items(), key=lambda item: item[0].name))
    return default_codec().encode(Tuple[ReplyBody, ...], replies)


def decode_reply_table(blob: bytes) -> List[Any]:
    """The replies of an :func:`encode_reply_table` blob, in its order."""
    from ..messages.reply import ReplyBody
    return list(default_codec().decode(Tuple[ReplyBody, ...], blob))
