"""The reply path under the addressing rule, as a property.

A MAC vector on the wire carries the entry of the node that receives the
frame and of the nodes that node relays it to, and nothing else
(``Certificate.addressed_to``).  Both ends that assemble execution
replicas' partial reply certificates -- an agreement node's message queue
(``MessageQueue.on_batch_reply``) and the client (``ClientNode.handle_reply``)
-- hold senders to it: a partial whose authenticator is not addressed to
the receiver is dropped and counted in the receiver's
``crypto.dropped_authenticators``, and never raises.  The primary of the
slot's view relays the certificate to the other agreement nodes, so there
a partial may name them too (a replica's first send does); at a backup, or
naming any other node, it may not.  Whatever of that kind arrives, in
whatever order, the collector completes exactly when ``g + 1`` genuine
partials have.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from conftest import make_config
from repro.apps.kvstore import KeyValueStore, get
from repro.core import SeparatedSystem
from repro.crypto.certificate import Certificate
from repro.messages.reply import BatchReply, BatchReplyBody, ClientReply, ReplyBody
from repro.statemachine.interface import OperationResult

#: what a partial that breaks the rule carries in place of its sender's
#: vector addressed to the receiver
JUNK = ("lacking", "others", "extra", "empty", "scheme")

_SYSTEMS = {}


def _system(g):
    """One separated system per ``g``, its queues and client fed by hand."""
    if g not in _SYSTEMS:
        _SYSTEMS[g] = SeparatedSystem(make_config(g=g), KeyValueStore, seed=73)
    return _SYSTEMS[g]


def _junk(kind, node, certificate, receiver, other):
    """``certificate`` (``node``'s partial with its whole vector) as a
    sender breaking the rule towards ``receiver`` would frame it."""
    whole = certificate.authenticators[node.node_id]
    tokens = {
        "lacking": {name: mac for name, mac in whole.token.items()
                    if name != receiver.name},
        "others": {other.name: whole.token[other.name]},
        "extra": {name: whole.token[name] for name in (receiver.name, other.name)},
        "empty": {},
    }
    authenticator = (node.crypto.sign(certificate.payload) if kind == "scheme"
                     else dataclasses.replace(whole, token=tokens[kind]))
    return Certificate(payload=certificate.payload, scheme=certificate.scheme,
                       authenticators={node.node_id: authenticator})


@st.composite
def _deliveries(draw):
    """``(g, receiver, order)``: every replica's genuine partial -- at the
    primary's queue, naming it alone (a resend) or every agreement node (a
    first send), ``"relayed"`` -- and up to six junk ones, ``(kind,
    replica index)``, in the order they arrive."""
    g = draw(st.sampled_from([1, 2]))
    size = 2 * g + 1
    receiver = draw(st.sampled_from(["primary", "backup", "client"]))
    genuine = ["genuine", "relayed"] if receiver == "primary" else ["genuine"]
    junk = draw(st.lists(st.tuples(st.sampled_from(JUNK),
                                   st.integers(0, size - 1)), max_size=6))
    order = draw(st.permutations(
        [(draw(st.sampled_from(genuine)), index) for index in range(size)]
        + junk))
    return g, receiver, order


@settings(max_examples=150, deadline=None)
@given(_deliveries())
def test_partials_not_addressed_here_are_dropped_and_counted(deliveries):
    g, receiver, order = deliveries
    system = _system(g)
    nodes = system.execution_nodes
    client, other_client = system.clients[0], system.clients[1]
    queue = system.message_queues[receiver == "backup"]
    seq = queue.highest_reply_seq + 1   # a slot no earlier example assembled
    timestamp = client.submit(get("k")) if receiver == "client" else 1

    def reply(value, who, stamp):
        return ReplyBody(view=0, seq=seq, timestamp=stamp, client=who.node_id,
                         result=OperationResult(value=value))

    body = BatchReplyBody(view=0, seq=seq, replies=(
        reply("genuine", client, timestamp), reply("sibling", other_client, 1)))
    if receiver != "client":
        here, crypto, payload = queue.owner.node_id, queue.crypto, body.view_for(None)
        # the primary relays to the other agreement nodes, a backup to none
        other = (other_client.node_id if receiver == "primary"
                 else system.agreement_ids[2])

        def deliver(node, certificate):
            queue.on_batch_reply(node.node_id, BatchReply(
                seq=seq, certificate=certificate, sender=node.node_id))

        def completed():
            return queue.highest_reply_seq == seq
    else:
        here, crypto = client.node_id, client.crypto
        payload, other = body.view_for(client.node_id), system.agreement_ids[0]
        done = len(client.completed)

        def deliver(node, certificate):
            client.handle_reply(node.node_id, ClientReply(certificate))

        def completed():
            return len(client.completed) > done

    genuine = 0
    try:
        for kind, index in order:
            node = nodes[index]
            whole = node._partial_certificate(body).with_payload(payload)
            dropped = crypto.dropped_authenticators
            if kind in ("genuine", "relayed"):
                deliver(node, whole.addressed_to(
                    system.agreement_ids if kind == "relayed" else (here,)))
                genuine += 1
                assert crypto.dropped_authenticators == dropped
            else:
                deliver(node, _junk(kind, node, whole, here, other))
                assert crypto.dropped_authenticators == dropped + 1
            assert completed() is (genuine >= g + 1)
            if completed():
                break
        assert completed()
        if receiver == "client":
            assert client.completed[-1].result.value == "genuine"
    finally:
        client._pending = None   # the next example submits afresh

