"""Agreement and execution handlers are total, as a property.

A Byzantine peer can send an agreement replica any message the codec
carries.  Whatever arrives, the replica drops it or handles it: no handler
of the agreement plane (``AgreementReplica.on_message`` and the proposer it
hands requests to) raises, and nothing the system runs after it does.  The
same holds for an execution replica (``ExecutionNode.on_message``, its
checkpoints and its two cut participants), in the one-shard deployment and
in a two-shard one.

Each example starts from the golden frame of one agreement message
(``tests/test_codec.py``), moved into a fresh system's view 0 so that,
unchanged, it is a message a correct peer could send there (its digests and
its COMMIT authenticator recomputed), then changes one field -- a view, a
sequence number, a signer, a scheme, the payload of a certificate, or the
epoch, log or route of a ``RoutedCertBody`` put in one -- and delivers what
the codec makes of it from a peer, in the one-shard deployment (the
paper's ``SeparatedSystem``) and in a two-shard one.  An execution
replica's examples start from the golden frames of what it takes, aligned
the same way (an ordered batch certified by the shard's log at the
receiver's slot, shares and fetches from the peers that send them), and
change a sequence number, a view, a shard, an epoch, a log, a signer or a
payload.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from conftest import make_config
from repro.apps.kvstore import KeyValueStore
from repro.config import AuthenticationScheme, ShardingConfig
from repro.crypto.certificate import Certificate
from repro.messages.agreement import (AgreementCertBody, CommitMsg, NewView,
                                      OrderedBatch, PrePrepare, Prepare,
                                      RoutedCertBody, ViewChange)
from repro.messages.checkpoint import (BatchTransfer, ExecCheckpointShare,
                                       checkpoint_payload)
from repro.messages.request import RequestEnvelope
from repro.net.codec import default_codec
from repro.sharding import ShardedSystem
from repro.sharding.messages import CrossShardVote, vote_payload
from repro.util.ids import agreement_id, client_id, execution_id
from repro.util.wirecache import WIRE_CACHE

from test_messages_and_nondet import golden_messages

#: the messages an agreement replica's handlers take
AGREEMENT_MESSAGES = ("PrePrepare", "Prepare", "CommitMsg", "AgreementCheckpoint",
                      "ViewChange", "NewView", "RequestEnvelope")

#: the messages an execution replica's handlers take: a batch (from an
#: agreement node, or a peer's transfer), the cluster's checkpoint and
#: catch-up protocol, a forwarded retransmission, and the cut participants'
#: shares and fetches
EXECUTION_MESSAGES = ("OrderedBatch", "BatchTransfer", "FetchBatch",
                      "ExecCheckpointShare", "StateTransfer", "RequestEnvelope",
                      "RangeHandoff", "RangeFetch", "CrossShardVote",
                      "CrossShardVoteFetch")

_GOLDEN = golden_messages()
_SENDER = agreement_id(1)
GOLDEN_FRAMES = {name: bytes(default_codec().encode_frame(_SENDER, _GOLDEN[name]))
                 for name in AGREEMENT_MESSAGES + EXECUTION_MESSAGES}

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
SHARD, EPOCH, LOG = (("shard", "source_shard", "target_shard"),
                     ("epoch", "parent_epoch"), ("log",))


def _build(shards: int, seed: int = 29):
    return ShardedSystem(make_config(sharding=ShardingConfig(num_shards=shards)),
                         KeyValueStore, seed=seed)


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
        "shard": [spot for spot in spots if spot[1] in SHARD],
        "epoch": [spot for spot in spots if spot[1] in EPOCH],
        "log": [spot for spot in spots if spot[1] in LOG],
    }
    kinds["routed"] = kinds["payload"]
    return {kind: found for kind, found in kinds.items() if found}


def _mutate(message, system, draw) -> None:
    """Change one field of ``message``, in place."""
    kinds = _fields_of(message)
    kind = draw(st.sampled_from(sorted(kinds)))
    owner, field, old = draw(st.sampled_from(kinds[kind]))
    if kind in ("view", "seq", "shard", "epoch"):
        _set(owner, field, draw(INTS))
    elif kind == "log":
        _set(owner, field, draw(st.none() | INTS))
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
        elif field == "authenticator":
            # a share's replica vouches for another payload
            body = draw(PAYLOADS)
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
    system = _build(draw(st.sampled_from([1, 2])))
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


# ---------------------------------------------------------------------- #
# The execution replica.
# ---------------------------------------------------------------------- #


def _request(system):
    """The golden plain request, certified by its client for this system."""
    client = system.clients[0]
    return client.crypto.new_certificate(_GOLDEN["ClientRequest"],
                                         AuthenticationScheme.MAC,
                                         client.request_verifiers)


def _ordered(system, shard):
    """The golden batch as the log ordering ``shard`` would send it: its one
    authentic request at sequence number 1 of view 0, routed to the shard's
    first slot and certified by 2f + 1 agreement replicas."""
    requests = (_request(system),)
    replicas = system.log_replicas[0]
    nondet = _GOLDEN["OrderedBatch"].nondet
    body = RoutedCertBody(view=0, seq=1, nondet=nondet, route=((shard, 1),),
                          epoch=0, batch_digest=replicas[0].crypto.batch_digest(requests))
    certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
    for replica in replicas[:system.config.agreement_quorum]:
        certificate.add(replica.crypto.mac_authenticator(body, replica.cert_verifiers))
    return OrderedBatch(seq=1, view=0, request_certificates=requests,
                        agreement_certificate=certificate, nondet=nondet)


def _aligned_for(message, system, node, sender):
    """``message`` as ``sender`` could send it to execution replica
    ``node``: a batch ordered for the node's shard, shares made by their
    sender over their own payload, its own name in its ``replica`` field."""
    source = system.shard_execution_nodes[
        next(shard for shard, ids in enumerate(system.shard_execution_ids)
             if sender in ids)][0] if sender in system.execution_ids else None
    if isinstance(message, OrderedBatch):
        return _ordered(system, node.shard)
    if isinstance(message, BatchTransfer):
        return BatchTransfer(batch=_ordered(system, node.shard), replica=sender)
    if isinstance(message, RequestEnvelope):
        return RequestEnvelope(certificate=_request(system))
    if isinstance(message, ExecCheckpointShare):
        signer = system.shard_execution_nodes[node.shard][
            node.execution_ids.index(sender)]
        return dataclasses.replace(
            message, replica=sender, authenticator=signer.crypto.mac_authenticator(
                checkpoint_payload(message.seq, message.state_digest),
                node.execution_ids))
    if isinstance(message, CrossShardVote):
        signer = next(peer for cluster in system.shard_execution_nodes
                      for peer in cluster if peer.node_id == sender)
        payload = vote_payload(message.client, message.timestamp, signer.shard,
                               message.epoch, message.observed)
        return dataclasses.replace(
            message, replica=sender, shard=signer.shard,
            authenticator=signer.crypto.mac_authenticator(
                payload, system.execution_ids))
    changes = {"replica": sender} if hasattr(message, "replica") else {}
    if hasattr(message, "target_shard"):
        changes["target_shard"] = node.shard
    if hasattr(message, "source_shard") and source is not None:
        changes["source_shard"] = source.shard
    return dataclasses.replace(message, **changes)


@st.composite
def _execution_deliveries(draw):
    """``(system, sender, node, message)``: a fresh one- or two-shard
    system, an execution replica of it, and one golden message it takes,
    from the peer that sends it and changed in one field."""
    shards = draw(st.sampled_from([1, 2]))
    system = _build(shards, seed=31)
    node = draw(st.sampled_from([node for cluster in system.shard_execution_nodes
                                 for node in cluster]))
    name = draw(st.sampled_from(EXECUTION_MESSAGES))
    if name in ("OrderedBatch", "RequestEnvelope"):
        senders = system.log_agreement_ids[0]
    elif name in ("RangeHandoff", "RangeFetch", "CrossShardVote",
                  "CrossShardVoteFetch") and shards > 1:
        senders = system.shard_execution_ids[1 - node.shard]
    else:
        senders = [peer for peer in node.execution_ids if peer != node.node_id]
    sender = draw(st.sampled_from(senders))
    message = _aligned_for(_decoded(name), system, node, sender)
    _mutate(message, system, draw)
    return system, sender, node, _on_the_wire(sender, message)


@settings(max_examples=600, deadline=None)
@given(_execution_deliveries())
def test_execution_handlers_never_raise(delivery):
    system, sender, node, message = delivery
    node.deliver(sender, message, message.wire_size())
    system.run(200.0)
