"""Byzantine behaviours.

A Byzantine node can do anything except break cryptography.  Rather than
re-implementing whole malicious nodes, these behaviours wrap a *correct*
node's outgoing messages (via a network tap) and corrupt them in targeted
ways.  This gives the tests precise control over the attack while keeping the
node's internal bookkeeping intact:

* :class:`CorruptReplyBehaviour` -- the node reports wrong results for every
  request it executes (an integrity attack the reply quorum must mask);
* :class:`ForgedReplyBehaviour` -- the node rewrites only what a *client*
  reads out of the replies it sends, relays or serves from its cache, under
  the genuine certificate (the attack an agreement node can mount);
* :class:`LyingReplyBehaviour` -- like :class:`CorruptReplyBehaviour`, but
  the node *re-authenticates* the corrupted body with its own genuine keys.
  This is the strongest reply attack the fault model admits: the lie carries
  one valid authenticator, so only the ``g + 1`` quorum rule stands between
  it and the client (the fuzzing harness uses it to prove a weakened quorum
  check is exploitable);
* :class:`LeakPlaintextBehaviour` -- the node strips the encryption from reply
  bodies it sends (a confidentiality attack the privacy firewall must stop --
  and will, because a tampered body no longer matches the ``g + 1`` quorum /
  threshold signature and is filtered);
* :class:`SilentBehaviour` -- the node stops sending anything (a crash-like
  omission fault that exercises retransmission and quorum margins).

The *ordering-plane* attacks target a Byzantine **primary** -- the three
classic ways a leader can hurt a PBFT-style protocol without forging anyone
else's credentials:

* :class:`EquivocatingPrimaryBehaviour` -- proposes *conflicting* batches at
  the same ``(view, seq)`` to disjoint backup subsets (a safety attack the
  ``2f + 1`` commit quorum must mask: no two conflicting batches can both
  gather quorums, and the equivocation evidence triggers a view change);
* :class:`CensoringPrimaryBehaviour` -- silently strips targeted clients'
  requests out of every batch it proposes (a targeted liveness attack the
  censorship-resistant request path must defeat: backups' per-request
  deadlines escalate to a view change and the next primary orders the
  starved requests);
* :class:`SlowPrimaryBehaviour` -- delays every ordering message to just
  under the view-change timeout (the classic *performance* attack: never
  slow enough to be deposed by the timer alone, which is why primary
  selection skips recently-deposed leaders).

Behaviours are *time-boundable*: :meth:`ByzantineBehaviour.uninstall` removes
the tap again, so a fault schedule can make a node malicious for a window of
virtual time and then heal it (see :class:`repro.faults.injector.FaultPlan`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..config import AuthenticationScheme
from ..core.system import SimulatedSystem
from ..crypto.certificate import Certificate
from ..crypto.digest import digest as digest_of
from ..messages.agreement import PrePrepare
from ..messages.reply import BatchReply, BatchReplyBody, ClientReply, ReplyBody
from ..messages.request import EncryptedBody
from ..net.message import Message
from ..net.network import DROP
from ..statemachine.interface import OperationResult
from ..util.ids import NodeId, Role
from ..util.wirecache import wire_digest


class ByzantineBehaviour:
    """Base class: a transformation applied to one node's outgoing messages."""

    def __init__(self, node: NodeId) -> None:
        self.node = node
        self.messages_affected = 0
        self.installed = False

    def install(self, system: SimulatedSystem) -> None:
        """Attach this behaviour to the system's network."""
        if self.installed:
            return
        system.network.add_tap(self._tap)
        self.installed = True

    def uninstall(self, system: SimulatedSystem) -> None:
        """Detach this behaviour; the node behaves correctly again."""
        if not self.installed:
            return
        system.network.remove_tap(self._tap)
        self.installed = False

    def _tap(self, source: NodeId, destination: NodeId,
             message: Message) -> Optional[Message]:
        if source != self.node:
            return None
        replacement = self.transform(destination, message)
        if replacement is not None:
            self.messages_affected += 1
        return replacement

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        """Return a replacement message, :data:`~repro.net.network.DROP` to
        swallow it, or None to leave it unchanged."""
        raise NotImplementedError


class SilentBehaviour(ByzantineBehaviour):
    """The node's messages never reach the network (omission fault).

    Implemented as a drop-everything tap rather than a crash so that it can
    be *time-bounded*: uninstalling the tap heals the node without having
    touched its internal state, exactly like a transient network-interface
    failure.
    """

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        return DROP


class CorruptReplyBehaviour(ByzantineBehaviour):
    """Replace the results inside every reply this node sends.

    The original certificate is kept, so the corruption is *detectable*:
    no correct authenticator covers the tampered body and the reply
    contributes zero valid signers at the client (see
    :class:`LyingReplyBehaviour` for the re-signing variant).
    """

    #: how many genuine -> corrupted reply digests are remembered
    LIES_KEPT = 1024

    def __init__(self, node: NodeId, corrupt_value: object = "CORRUPTED") -> None:
        super().__init__(node)
        self.corrupt_value = corrupt_value
        #: digest of each reply corrupted lately -> its corruption's digest
        self._lies: Dict[bytes, bytes] = {}

    def _corrupt_reply(self, reply: ReplyBody) -> ReplyBody:
        corrupted = ReplyBody(
            view=reply.view, seq=reply.seq, timestamp=reply.timestamp,
            client=reply.client,
            result=OperationResult(value=self.corrupt_value, size=16))
        self._lies[wire_digest(reply)] = wire_digest(corrupted)
        if len(self._lies) > self.LIES_KEPT:
            del self._lies[next(iter(self._lies))]
        return corrupted

    def _corrupt_body(self, body: BatchReplyBody) -> BatchReplyBody:
        """``body`` with a wrong result in every reply it carries (sibling
        digests in a client's view are left as they are).  A bodiless body
        -- what every agreement node gets, and some clients -- carries
        none, so each of its digests becomes the digest of the reply's
        corruption where one went out carried first, and a digest of no
        genuine reply where none did."""
        if body.replies and not body.carried:
            corrupted = tuple(self._lies.get(digest)
                              or digest_of(b"lie:" + digest)
                              for digest in body.replies)
        else:
            corrupted = tuple(
                self._corrupt_reply(reply) if isinstance(reply, ReplyBody)
                else reply for reply in body.replies)
        return BatchReplyBody(view=body.view, seq=body.seq, replies=corrupted,
                              shard=body.shard, epoch=body.epoch)

    def _corrupt(self, message: Message) -> Certificate:
        """The genuine evidence of ``message`` over its corrupted body."""
        return message.certificate.with_payload(self._corrupt_body(message.body))

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        if isinstance(message, BatchReply):
            return BatchReply(seq=message.seq, certificate=self._corrupt(message),
                              sender=message.sender)
        if isinstance(message, ClientReply):
            return ClientReply(self._corrupt(message))
        return None


class ForgedReplyBehaviour(CorruptReplyBehaviour):
    """Forge only what a client reads out of a reply.

    Every ``ClientReply`` passing through the node -- sent directly,
    relayed, or served from an agreement node's cache -- keeps its genuine
    certificate, sibling digests and header, and carries a forged result
    under the right client and timestamp.  A client that completes with
    anything the ``g + 1`` authenticators do not cover returns the forgery:
    one Byzantine agreement node is then enough to break the reply
    guarantee.  Replies towards the agreement cluster are left alone, so the
    node stays a plausible participant.
    """

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        if isinstance(message, ClientReply):
            return super().transform(destination, message)
        return None


class LyingReplyBehaviour(CorruptReplyBehaviour):
    """Corrupt reply bodies *and* re-sign them with the node's own keys.

    A Byzantine node may not break cryptography, but it may freely sign
    whatever it likes with the keys it legitimately holds.  The resulting
    reply carries exactly one valid authenticator -- the liar's -- so a
    correct ``g + 1`` reply quorum masks it (at most ``g`` liars can never
    outvote ``g + 1`` matching correct replies), while any implementation
    that accepts fewer than ``g + 1`` matching authenticators is exposed.
    Only MAC-vector deployments re-sign (threshold shares cannot be forged
    for a tampered body by construction).
    """

    def __init__(self, node: NodeId, corrupt_value: object = "CORRUPTED") -> None:
        super().__init__(node, corrupt_value)
        self._crypto = None

    def install(self, system: SimulatedSystem) -> None:
        self._crypto = system.network.process(self.node).crypto
        super().install(system)

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        if self._crypto is None:
            return None
        if not isinstance(message, (BatchReply, ClientReply)):
            return None
        if message.certificate.scheme is not AuthenticationScheme.MAC:
            return None
        certificate = self._crypto.new_certificate(
            self._corrupt_body(message.body), AuthenticationScheme.MAC,
            [destination])
        if isinstance(message, ClientReply):
            return ClientReply(certificate)
        return BatchReply(seq=message.seq, certificate=certificate,
                          sender=message.sender)


class LeakPlaintextBehaviour(ByzantineBehaviour):
    """Strip encryption from reply bodies (attempted confidentiality leak)."""

    def _expose(self, body: BatchReplyBody) -> BatchReplyBody:
        exposed = []
        for reply in body.replies:
            result = reply.result
            if isinstance(result, EncryptedBody):
                result = result.open(Role.EXECUTION)
            exposed.append(ReplyBody(view=reply.view, seq=reply.seq,
                                     timestamp=reply.timestamp, client=reply.client,
                                     result=result))
        return BatchReplyBody(view=body.view, seq=body.seq, replies=tuple(exposed),
                              shard=body.shard, epoch=body.epoch)

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        if isinstance(message, BatchReply):
            return BatchReply(
                seq=message.seq, sender=message.sender,
                certificate=message.certificate.with_payload(
                    self._expose(message.body)))
        return None


class EquivocatingPrimaryBehaviour(ByzantineBehaviour):
    """Propose conflicting batches at the same ``(view, seq)``.

    Half of the backups (by position in the agreement roster) receive the
    primary's genuine PRE-PREPARE; the other half receive a *forged* variant
    -- same view and sequence number, different batch, digest recomputed
    with the primary's own (legitimately held) crypto.  Neither variant can
    gather a ``2f + 1`` commit quorum while the split persists, and any
    backup that sees both digests for one slot has proof of equivocation
    and votes for a view change.  Safety must hold throughout: conflicting
    values never commit (the fuzz oracles and the failover benchmark check
    exactly this).
    """

    def __init__(self, node: NodeId) -> None:
        super().__init__(node)
        self._crypto = None
        self._agreement_ids: List[NodeId] = []
        #: forged variant per slot, so every victim of one slot sees the
        #: *same* lie (a per-destination lie would just be noise)
        self._forged: Dict[Tuple[int, int], Optional[PrePrepare]] = {}
        #: a request certificate from an earlier batch, used to fabricate a
        #: conflicting single-request batch
        self._seen_cert = None

    def install(self, system: SimulatedSystem) -> None:
        self._crypto = system.network.process(self.node).crypto
        self._agreement_ids = list(system.agreement_ids)
        super().install(system)

    def _forge(self, message: PrePrepare) -> Optional[PrePrepare]:
        key = (message.view, message.seq)
        if key not in self._forged:
            requests = None
            if len(message.requests) > 1:
                requests = tuple(reversed(message.requests))
            elif (self._seen_cert is not None
                  and self._seen_cert.payload is not message.requests[0].payload):
                requests = (self._seen_cert,)
            if requests is None:
                self._forged[key] = None
            else:
                self._forged[key] = PrePrepare(
                    view=message.view, seq=message.seq,
                    batch_digest=self._crypto.batch_digest(requests),
                    requests=requests, nondet=message.nondet,
                    primary=message.primary)
        return self._forged[key]

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        if not isinstance(message, PrePrepare) or self._crypto is None:
            return None
        if destination not in self._agreement_ids:
            return None
        forged = None
        if self._agreement_ids.index(destination) % 2 == 1:
            forged = self._forge(message)
        if message.requests:
            self._seen_cert = message.requests[0]
        return forged


class CensoringPrimaryBehaviour(ByzantineBehaviour):
    """Never order the targeted clients' requests.

    The primary strips every targeted request certificate out of the batches
    it proposes (recomputing the digest with its own crypto, so the batch is
    otherwise well-formed) and drops the PRE-PREPARE entirely when nothing
    is left.  Untargeted traffic flows normally -- the attack is invisible
    to aggregate throughput, which is precisely why the defence needs
    *per-request* deadlines at the backups rather than a global progress
    check.  Config operations (no ``client`` field) are never censored.
    """

    def __init__(self, node: NodeId,
                 targets: Optional[Sequence[NodeId]] = None) -> None:
        super().__init__(node)
        self.targets = tuple(targets) if targets is not None else None
        self._crypto = None

    def install(self, system: SimulatedSystem) -> None:
        self._crypto = system.network.process(self.node).crypto
        if self.targets is None:
            # Default victim: the first client -- a single starved client is
            # the sharpest liveness probe (aggregate progress stays healthy).
            self.targets = tuple(system.client_ids[:1])
        super().install(system)

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        if not isinstance(message, PrePrepare) or self._crypto is None:
            return None
        kept = tuple(
            cert for cert in message.requests
            if getattr(cert.payload, "client", None) not in self.targets
        )
        if len(kept) == len(message.requests):
            return None
        if not kept:
            return DROP
        return PrePrepare(view=message.view, seq=message.seq,
                          batch_digest=self._crypto.batch_digest(kept),
                          requests=kept, nondet=message.nondet,
                          primary=message.primary)


class SlowPrimaryBehaviour(ByzantineBehaviour):
    """Delay every PRE-PREPARE to just under the view-change timeout.

    The classic performance attack: the primary stays *just* responsive
    enough that no backup's timer ever fires, yet throughput collapses to
    one batch per almost-timeout.  Taps cannot delay a message in place, so
    the behaviour swallows the PRE-PREPARE and re-injects it through the
    scheduler after ``delay_fraction x view_change_ms``; the re-injected
    copy is recognised (by identity) and passed through.  Uninstalling the
    behaviour lets any still-queued re-injections flow harmlessly.
    """

    def __init__(self, node: NodeId, delay_fraction: float = 0.8) -> None:
        super().__init__(node)
        self.delay_fraction = delay_fraction
        self._system: Optional[SimulatedSystem] = None
        self._delay_ms = 0.0
        #: re-injected (message identity, destination) pairs that must pass
        #: through the tap untouched exactly once
        self._released: Dict[Tuple[int, NodeId], int] = {}

    def install(self, system: SimulatedSystem) -> None:
        self._system = system
        self._delay_ms = self.delay_fraction * system.config.timers.view_change_ms
        super().install(system)

    def _release(self, destination: NodeId, message: Message) -> None:
        key = (id(message), destination)
        self._released[key] = self._released.get(key, 0) + 1
        self._system.network.send(self.node, destination, message)

    def transform(self, destination: NodeId, message: Message) -> Optional[Message]:
        if not isinstance(message, PrePrepare) or self._system is None:
            return None
        key = (id(message), destination)
        if self._released.get(key, 0) > 0:
            self._released[key] -= 1
            if not self._released[key]:
                del self._released[key]
            return None
        self._system.scheduler.call_after(
            self._delay_ms, lambda: self._release(destination, message),
            label=f"{self.node.name}:slow-primary-release")
        return DROP


#: first-class strategy names, so fault schedules can reference behaviours
#: declaratively (the fuzzing genome serialises the name, not the object)
STRATEGIES: Dict[str, Type[ByzantineBehaviour]] = {
    "silent": SilentBehaviour,
    "corrupt_reply": CorruptReplyBehaviour,
    "forged_reply": ForgedReplyBehaviour,
    "lying_reply": LyingReplyBehaviour,
    "leak_plaintext": LeakPlaintextBehaviour,
    "equivocating_primary": EquivocatingPrimaryBehaviour,
    "censoring_primary": CensoringPrimaryBehaviour,
    "slow_primary": SlowPrimaryBehaviour,
}


def make_behaviour(strategy: str, node: NodeId) -> ByzantineBehaviour:
    """Instantiate the named Byzantine strategy for ``node``."""
    try:
        return STRATEGIES[strategy](node)
    except KeyError:
        raise ValueError(f"unknown Byzantine strategy {strategy!r} "
                         f"(known: {sorted(STRATEGIES)})") from None


def make_byzantine(system: SimulatedSystem, behaviour: ByzantineBehaviour) -> ByzantineBehaviour:
    """Install ``behaviour`` on ``system`` and return it (for assertions)."""
    behaviour.install(system)
    return behaviour
