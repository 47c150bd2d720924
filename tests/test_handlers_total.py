"""Agreement handlers are total, as a property.

A Byzantine peer can send an agreement replica any message the codec
carries.  Whatever arrives, the replica drops it or handles it: no handler
of the agreement plane (``AgreementReplica.on_message`` and the proposer it
hands requests to) raises, and nothing the system runs after it does.

Each example starts from the golden frame of one agreement message
(``tests/test_codec.py``), moved into a fresh system's view 0 so that,
unchanged, it is a message a correct peer could send there (its digests and
its COMMIT authenticator recomputed), then changes one field -- a view, a
sequence number, a signer, a scheme, the payload of a certificate, or the
epoch, log or route of a ``RoutedCertBody`` put in one -- and delivers what
the codec makes of it from a peer, in a ``SeparatedSystem`` and in a
one-shard ``ShardedSystem``.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from conftest import make_config
from repro.apps.kvstore import KeyValueStore
from repro.config import AuthenticationScheme, ShardingConfig
from repro.core import SeparatedSystem
from repro.crypto.certificate import Certificate
from repro.messages.agreement import (AgreementCertBody, CommitMsg, NewView,
                                      PrePrepare, Prepare, ViewChange)
from repro.net.codec import default_codec
from repro.sharding import ShardedSystem
from repro.util.ids import agreement_id, client_id, execution_id
from repro.util.wirecache import WIRE_CACHE

from test_messages_and_nondet import golden_messages

#: the messages an agreement replica's handlers take
AGREEMENT_MESSAGES = ("PrePrepare", "Prepare", "CommitMsg", "AgreementCheckpoint",
                      "ViewChange", "NewView", "RequestEnvelope")

_GOLDEN = golden_messages()
_SENDER = agreement_id(1)
GOLDEN_FRAMES = {name: bytes(default_codec().encode_frame(_SENDER, _GOLDEN[name]))
                 for name in AGREEMENT_MESSAGES}

INTS = st.sampled_from([-(1 << 63), -1, 0, 1, 2, 3, 8, 9, 16, 17, 64,
                        1 << 31, (1 << 63) - 1])
NODES = st.sampled_from([agreement_id(0), agreement_id(1), agreement_id(2),
                         agreement_id(3), agreement_id(7), execution_id(0),
                         client_id(0), client_id(9)])
#: every payload a golden message offers, a routed body among them
PAYLOADS = st.sampled_from(sorted(_GOLDEN)).map(lambda name: _GOLDEN[name])

VIEW, SEQ = ("view", "new_view"), ("seq", "last_stable_seq")
#: where a message names a node: its signer fields, an authenticator's
#: signer and key (``None``), a NEW-VIEW's voters
SIGNER = ("replica", "primary", "signer", None, "view_change_replicas")
ROUTED = ("epoch", "log", "route")


def _build(sharded: bool):
    config = (make_config(sharding=ShardingConfig(num_shards=1)) if sharded
              else make_config())
    return (ShardedSystem if sharded else SeparatedSystem)(
        config, KeyValueStore, seed=29)


def _decoded(name: str):
    """A fresh copy of the golden ``name``, no memo on it."""
    WIRE_CACHE.configure(enabled=False)
    try:
        return default_codec().decode_frame(GOLDEN_FRAMES[name])[1]
    finally:
        WIRE_CACHE.configure(enabled=True)


def _aligned(message, system):
    """``message`` as a correct peer of ``system``, still in view 0, could
    send it: views one lower (a NEW-VIEW's for view 1), each pre-prepare by
    its view's primary over its authentic requests (the golden sealed one
    is not) and their digest, and a COMMIT's authenticator made by its
    replica over that view's body."""
    ids, crypto = system.agreement_ids, system.agreement_replicas[0].crypto

    def authentic(requests):
        return tuple(request for request in requests
                     if crypto.authentic_request(request, system.client_ids))

    def pre_prepare(proposal, view):
        requests = authentic(proposal.requests)
        return dataclasses.replace(
            proposal, view=view, primary=ids[view % len(ids)], requests=requests,
            batch_digest=crypto.batch_digest(requests))

    if isinstance(message, PrePrepare):
        return pre_prepare(message, 0)
    if isinstance(message, Prepare):
        return dataclasses.replace(message, view=0)
    if isinstance(message, CommitMsg):
        replica = system.agreement_replicas[ids.index(message.replica)]
        body = AgreementCertBody(view=0, seq=message.seq,
                                 batch_digest=message.batch_digest,
                                 nondet=_GOLDEN["PrePrepare"].nondet)
        return dataclasses.replace(
            message, view=0, cert_authenticator=replica.crypto.mac_authenticator(
                body, replica.cert_verifiers))
    if isinstance(message, ViewChange):
        return dataclasses.replace(message, new_view=1, prepared=tuple(
            dataclasses.replace(proof, view=0, requests=authentic(proof.requests),
                                batch_digest=crypto.batch_digest(
                                    authentic(proof.requests)))
            for proof in message.prepared))
    if isinstance(message, NewView):
        return dataclasses.replace(message, view=1, primary=ids[1], pre_prepares=tuple(
            pre_prepare(proposal, 1) for proposal in message.pre_prepares))
    return message


def _spots(value):
    """``(owner, field, value)`` of every field in ``value``, nested ones
    too, and ``(certificate, None, signer)`` for each key of a
    certificate's authenticators."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _spots(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            child = getattr(value, field.name)
            yield value, field.name, child
            yield from _spots(child)
        if isinstance(value, Certificate):
            for signer in value.authenticators:
                yield value, None, signer
            for authenticator in value.authenticators.values():
                yield from _spots(authenticator)


def _routed(draw):
    """The golden routed body at view 0 with its epoch, log or route drawn."""
    body = dataclasses.replace(_GOLDEN["RoutedCertBody"], view=0)
    field = draw(st.sampled_from(ROUTED))
    value = {"epoch": INTS, "log": st.none() | INTS,
             "route": st.lists(st.tuples(INTS, INTS), max_size=3).map(tuple)}[field]
    return dataclasses.replace(body, **{field: draw(value)})


def _set(owner, field, value):
    if isinstance(owner, Certificate):
        setattr(owner, field, value)
    else:
        object.__setattr__(owner, field, value)


def _fields_of(message):
    """Each kind of change, and the spots in ``message`` it can change."""
    spots = list(_spots(message))
    kinds = {
        "view": [spot for spot in spots if spot[1] in VIEW],
        "seq": [spot for spot in spots if spot[1] in SEQ],
        "signer": [spot for spot in spots if spot[1] in SIGNER],
        "scheme": [spot for spot in spots if spot[1] == "scheme"],
        "payload": [spot for spot in spots
                    if spot[1] in ("payload", "cert_authenticator")],
    }
    kinds["routed"] = kinds["payload"]
    return {kind: found for kind, found in kinds.items() if found}


def _mutate(message, system, draw) -> None:
    """Change one field of ``message``, in place."""
    kinds = _fields_of(message)
    kind = draw(st.sampled_from(sorted(kinds)))
    owner, field, old = draw(st.sampled_from(kinds[kind]))
    if kind in ("view", "seq"):
        _set(owner, field, draw(INTS))
    elif kind == "scheme":
        _set(owner, field, draw(st.sampled_from(list(AuthenticationScheme))))
    elif field is None:   # a certificate's authenticator under another signer
        owner.authenticators[draw(NODES)] = owner.authenticators.pop(old)
    elif field == "view_change_replicas":
        _set(owner, field, tuple(sorted({*old, draw(NODES).name})))
    elif kind == "signer":
        _set(owner, field, draw(NODES))
    else:
        body = draw(PAYLOADS) if kind == "payload" else _routed(draw)
        if field == "cert_authenticator":
            # the COMMIT's replica vouches for another body
            replica = system.agreement_replicas[
                system.agreement_ids.index(owner.replica)]
            body = replica.crypto.mac_authenticator(body, replica.cert_verifiers)
        _set(owner, field, body)


def _on_the_wire(sender, message):
    """What a receiver decodes from the frame ``sender`` writes of
    ``message`` (encoded afresh: a field changed in place leaves memos
    behind)."""
    codec = default_codec()
    WIRE_CACHE.configure(enabled=False)
    try:
        frame = bytes(codec.encode_frame(sender, message))
    finally:
        WIRE_CACHE.configure(enabled=True)
    return codec.decode_frame(frame)[1]


@st.composite
def _deliveries(draw):
    """``(system, sender, receiver index, message)``: a fresh system, and
    one golden agreement message changed in one field, from the peer
    whose message it is (a request from its client or a backup relaying
    it) to another agreement replica."""
    system = _build(sharded=draw(st.booleans()))
    message = _aligned(_decoded(draw(st.sampled_from(AGREEMENT_MESSAGES))), system)
    sender = (getattr(message, "replica", None) or getattr(message, "primary", None)
              or draw(st.sampled_from([client_id(0)] + system.agreement_ids)))
    _mutate(message, system, draw)
    receiver = draw(st.sampled_from(
        [index for index, node in enumerate(system.agreement_ids) if node != sender]))
    return system, sender, receiver, _on_the_wire(sender, message)


@settings(max_examples=1000, deadline=None)
@given(_deliveries())
def test_agreement_handlers_never_raise(delivery):
    system, sender, receiver, message = delivery
    replica = system.agreement_replicas[receiver]
    replica.deliver(sender, message, message.wire_size())
    system.run(200.0)
