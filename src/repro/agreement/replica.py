"""The agreement replica.

Each of the ``3f + 1`` agreement nodes runs an :class:`AgreementReplica`,
which implements a PBFT-style three-phase protocol (following Castro &
Liskov, as the BASE library does):

1. the primary of the current view assigns the next sequence number to a
   batch of request certificates and multicasts a ``PRE-PREPARE``;
2. backups validate it (correct primary, view, watermarks, request
   authenticity, batch digest, sane nondeterminism proposal) and multicast
   ``PREPARE``;
3. once a replica has the pre-prepare and ``2f`` matching prepares it is
   *prepared* and multicasts ``COMMIT`` carrying its authenticator over the
   agreement-certificate body -- where the local queue routes batches to
   shards, a body naming the batch's route, so the COMMIT waits until the
   batch below it is routed too (prepared in this view, or delivered);
4. once it has ``2f + 1`` matching commits, its own among them, it is
   *committed*: it assembles
   the agreement certificate ``<COMMIT, v, n, d, A>_{A,E,2f+1}`` out of the
   commit authenticators and "executes" the batch against its local state
   machine (message queue or direct executor) in sequence-number order.

The replica also implements checkpointing with watermarks, garbage
collection, and a view-change protocol that re-proposes prepared batches so
that an agreed ordering survives a faulty primary.  What goes into the next
batch, and when, is the primary-side policy of its
:class:`~repro.agreement.proposer.Proposer`, built with the replica.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..messages.agreement import (
    AgreementCertBody,
    AgreementCheckpoint,
    CommitMsg,
    ConfigOperation,
    NewView,
    Prepare,
    PreparedProof,
    PrePrepare,
    ViewChange,
)
from ..messages.reply import BatchReply
from ..messages.request import ClientRequest, RequestEnvelope
from ..net.message import Message
from ..obs import request_trace_id
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..statemachine.nondet import NonDeterminismResolver
from ..util.ids import NodeId
from .local import LocalExecutor
from .log import AgreementLog, LogEntry
from .proposer import Proposer

#: upper bound on the view-change escalation delay (ms); a cap below
#: ``timers.view_change_ms`` is treated as ``view_change_ms`` (the backoff
#: never undercuts the base timer)
VIEW_CHANGE_BACKOFF_CAP_MS = 6400.0
#: multiplier applied per failed view-change attempt: the k-th escalation
#: re-votes after ``timers.view_change_ms * VIEW_CHANGE_BACKOFF**k``, so
#: cascading view changes under a long partition don't thrash
VIEW_CHANGE_BACKOFF = 2.0


class AgreementReplica(Process):
    """One replica of the BASE-style agreement cluster."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, local: LocalExecutor,
                 agreement_ids: List[NodeId], client_ids: List[NodeId],
                 cert_verifiers: List[NodeId]) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.local = local
        self.agreement_ids = list(agreement_ids)
        self.client_ids = list(client_ids)
        #: the nodes that verify agreement certificates, which commit MAC
        #: vectors address: execution replicas and firewall filters (none
        #: under BASE, whose commits then carry no authenticator)
        self.cert_verifiers = list(cert_verifiers)
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)
        self.index = self.agreement_ids.index(node_id)
        self.f = config.f

        self.view = 0
        self.next_seq = 1
        self.log = AgreementLog(config.checkpoint_interval)
        #: observability instruments (shared no-ops when metrics are off)
        self._h_batch_size = self.metrics.histogram(
            "agreement.batch_size", bounds=(1, 2, 4, 8, 16, 32, 64, 128))
        self._h_agree_ms = self.metrics.histogram("agreement.commit_ms")
        self._c_batches = self.metrics.counter("agreement.batches_delivered")
        self._c_requests = self.metrics.counter("agreement.requests_delivered")
        self.metrics.register_probe("agreement.state", lambda: {
            "view": self.view,
            "view_changes_completed": self.view_changes_completed,
            "primaries_deposed": self.primaries_deposed,
            "checkpoint_syncs": self.checkpoint_syncs,
            "cross_shard_ordered": self.proposer.cross_shard_ordered,
            "rtt_ewma_ms": self.proposer.rtt_ewma,
            "cert_cache_hits": self.crypto.cache.hits if self.crypto.cache else 0,
            "cert_cache_misses": self.crypto.cache.misses if self.crypto.cache else 0,
        })
        self.nondet = NonDeterminismResolver()

        # View change state.
        self._view_change_votes: Dict[int, Dict[NodeId, ViewChange]] = {}
        self._view_changing = False
        self._target_view = 0
        #: consecutive failed view-change escalations since the last
        #: NEW-VIEW (drives the exponential escalation backoff)
        self._view_change_attempts = 0
        #: recently-deposed primaries: node -> last view through which the
        #: local target selection skips it
        self._deposed_until: Dict[NodeId, int] = {}
        #: delivered checkpoint cuts the local queue cannot describe yet
        #: (its release frontier holds below them): voted when it can
        self._deferred_checkpoints: Set[int] = set()

        #: the stable checkpoint the current view started from: the highest
        #: ``last_stable_seq`` in the view-change quorum its NEW-VIEW was
        #: built from (proactive primary rotation counts from here)
        self._view_start_seq = 0

        # Statistics used by benchmarks.
        self.batches_delivered = 0
        self.requests_delivered = 0
        self.view_changes_completed = 0
        self.primaries_deposed = 0
        self.checkpoint_syncs = 0
        self.planned_rotations = 0

        self.proposer = Proposer(self)

    # ------------------------------------------------------------------ #
    # Role helpers.
    # ------------------------------------------------------------------ #

    def primary_of(self, view: int) -> NodeId:
        """The primary replica for ``view`` (round-robin rotation)."""
        return self.agreement_ids[view % len(self.agreement_ids)]

    def next_view_target(self, from_view: int) -> int:
        """The view this replica votes for when abandoning ``from_view``.

        Normally ``from_view + 1``, but the scan advances past views whose
        round-robin primary was deposed within the last full rotation, so a
        chronically slow or censoring leader cannot recapture the view the
        moment its successor stumbles.  A liveness heuristic only: the
        ``f + 1`` join rule still converges replicas that disagree on the
        skip, and safety never depends on which view is chosen.  The scan is
        bounded to one full rotation: if every candidate is deposed,
        liveness beats placement and the immediate successor is used.
        """
        target = from_view + 1
        for candidate in range(target, target + len(self.agreement_ids)):
            if self._deposed_until.get(self.primary_of(candidate), -1) < candidate:
                return candidate
        return target

    def _note_deposed(self, primary: NodeId, abandoned_view: int) -> None:
        """Skip ``primary`` in target selection for one full rotation."""
        until = abandoned_view + len(self.agreement_ids)
        if self._deposed_until.get(primary, -1) < until:
            self._deposed_until[primary] = until
            self.primaries_deposed += 1

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.node_id

    # ------------------------------------------------------------------ #
    # Message dispatch.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, RequestEnvelope):
            self.proposer.handle_request(sender, message)
        elif isinstance(message, PrePrepare):
            self.handle_pre_prepare(sender, message)
        elif isinstance(message, Prepare):
            self.handle_prepare(sender, message)
        elif isinstance(message, CommitMsg):
            self.handle_commit(sender, message)
        elif isinstance(message, AgreementCheckpoint):
            self.handle_checkpoint(sender, message)
        elif isinstance(message, ViewChange):
            self.handle_view_change(sender, message)
        elif isinstance(message, NewView):
            self.handle_new_view(sender, message)
        elif isinstance(message, BatchReply):
            # Separated architecture: reply certificates from the execution
            # cluster (possibly via the privacy firewall) are handled by the
            # message queue installed as the local state machine.
            handler = getattr(self.local, "on_batch_reply", None)
            if handler is not None:
                handler(sender, message)
        else:
            # Messages the agreement protocol itself does not speak are
            # offered to the local state machine (the router queue's
            # cross-log round gets its bindings and fetches this way);
            # anything still unknown or corrupted is dropped silently, as
            # the Byzantine fault model requires correct nodes to tolerate
            # arbitrary garbage.
            handler = getattr(self.local, "on_unknown_message", None)
            if handler is not None:
                handler(sender, message)
            return

    def pre_prepare(self, requests: List[Certificate]) -> None:
        """Assign the next sequence number to ``requests`` (the proposer's
        batch) and multicast the PRE-PREPARE."""
        seq = self.next_seq
        self.next_seq += 1
        self._h_batch_size.observe(len(requests))
        if self.tracing:
            self._trace_batch(requests, "order")
        batch_digest = self.crypto.batch_digest(requests)
        nondet = self.nondet.propose(self.now, seed=batch_digest)
        pre_prepare = PrePrepare(view=self.view, seq=seq, batch_digest=batch_digest,
                                 requests=tuple(requests), nondet=nondet,
                                 primary=self.node_id)
        entry = self.log.entry(self.view, seq)
        entry.pre_prepare = pre_prepare
        self.multicast(self.agreement_ids, pre_prepare)
        # The primary's pre-prepare counts as its prepare.
        self._try_prepared(entry)

    def _trace_batch(self, requests, event: str) -> None:
        """Record a span event for every client request of one batch."""
        for certificate in requests:
            request = certificate.payload
            if isinstance(request, ClientRequest):
                self.trace_event(
                    request_trace_id(request.client, request.timestamp), event)

    # ------------------------------------------------------------------ #
    # Backups: PRE-PREPARE and PREPARE.
    # ------------------------------------------------------------------ #

    def handle_pre_prepare(self, sender: NodeId, message: PrePrepare) -> None:
        if message.view != self.view or self._view_changing:
            return
        if sender != self.primary_of(self.view) or message.primary != sender:
            return
        if not self.log.in_watermarks(message.seq):
            return
        entry = self.log.entry(self.view, message.seq)
        if entry.pre_prepare is not None:
            if entry.pre_prepare.batch_digest != message.batch_digest:
                # Equivocating primary: trigger a view change.
                self.start_view_change(self.next_view_target(self.view))
            return
        if not self._validate_batch(message):
            return
        entry.pre_prepare = message
        if self._is_config_batch(message.requests):
            entry.config_op = True
        self.nondet.accept(message.nondet)
        prepare = Prepare(view=self.view, seq=message.seq,
                          batch_digest=message.batch_digest, replica=self.node_id)
        entry.prepares[self.node_id] = prepare
        self.multicast(self.agreement_ids, prepare)
        self._try_prepared(entry)

    def _validate_batch(self, message: PrePrepare) -> bool:
        """Check request authenticity, digest binding, and nondet sanity.

        A config-operation (map-change) batch gets structural checks only:
        its one certificate must be signed by the proposing primary.
        *Semantic* validity -- does the change still apply to the current
        map? -- is deliberately deferred to the cut (release) point, where
        every correct node evaluates it at the same position in the agreed
        order; judging it here against each backup's possibly-lagging epoch
        would let timing decide what must be deterministic.

        A cross-shard request inside a mixed bundle is NOT rejected here
        either: classification depends on the partition-map epoch, and a
        backup whose router lags one cut behind the primary would refuse a
        correct proposal.  The release-time router handles it instead --
        judged at the deterministic release epoch, such a request is
        excluded from routing and ownership everywhere, so it is never
        executed against partial state and the client's retransmission
        re-orders it as a proper marker.
        """
        requests = message.requests
        if not requests:
            return False
        if self._is_config_batch(requests):
            authentic = self.crypto.verify_certificate(requests[0], 1, [message.primary])
        else:
            authentic = all(self.crypto.authentic_request(certificate, self.client_ids)
                            for certificate in requests)
        return (authentic
                and self.crypto.batch_digest(requests) == message.batch_digest
                and self.nondet.sanity_check(message.nondet, self.now))

    @staticmethod
    def _is_config_batch(requests: Tuple[Certificate, ...]) -> bool:
        """Whether a batch carries a config operation (exactly one cert
        whose payload is a :class:`ConfigOperation`; a config op smuggled
        into a mixed batch is rejected outright -- the cut semantics need
        the operation alone at its sequence number)."""
        if any(isinstance(cert.payload, ConfigOperation) for cert in requests):
            return (len(requests) == 1
                    and isinstance(requests[0].payload, ConfigOperation))
        return False

    def handle_prepare(self, sender: NodeId, message: Prepare) -> None:
        if message.view != self.view or self._view_changing:
            return
        if sender != message.replica or sender not in self.agreement_ids:
            return
        if not self.log.in_watermarks(message.seq):
            return
        entry = self.log.entry(self.view, message.seq)
        entry.prepares[sender] = message
        self._try_prepared(entry)

    def _try_prepared(self, entry: LogEntry) -> None:
        if entry.prepared or entry.pre_prepare is None:
            return
        digest = entry.pre_prepare.batch_digest
        # The pre-prepare counts as the primary's prepare; we need 2f matching
        # prepares from other replicas (our own included when we are a backup).
        others = sum(1 for replica, prepare in entry.prepares.items()
                     if prepare.batch_digest == digest
                     and replica != entry.pre_prepare.primary)
        if others < 2 * self.f:
            return
        entry.prepared = True
        self._commit_from(entry)

    def _commit_from(self, entry: Optional[LogEntry]) -> None:
        """Multicast the COMMITs of ``entry`` and the prepared batches after
        it, in order, while the local queue routes them -- each over the
        body the queue answers (its route, where the queue has routes), or
        the one a re-proposed batch was delivered under here -- then
        deliver what that committed."""
        committed = False
        while (entry is not None and entry.prepared
               and self.node_id not in entry.commits and not self._view_changing):
            body = entry.cert_body = entry.cert_body or self.local.route_body(
                self._cert_body(entry), entry.pre_prepare.requests)
            if body is None:
                break
            authenticator = self._make_cert_authenticator(body)
            entry.commits[self.node_id] = CommitMsg(
                view=entry.view, seq=entry.seq, batch_digest=body.batch_digest,
                replica=self.node_id, cert_authenticator=authenticator)
            entry.commit_authenticators[self.node_id] = authenticator
            self.multicast(self.agreement_ids, entry.commits[self.node_id])
            committed = self._mark_committed(entry) or committed
            entry = self.log.existing_entry(self.view, entry.seq + 1)
        if committed:
            self._deliver_in_order()

    def _cert_body(self, entry: LogEntry) -> AgreementCertBody:
        return AgreementCertBody(view=entry.view, seq=entry.seq,
                                 batch_digest=entry.pre_prepare.batch_digest,
                                 nondet=entry.pre_prepare.nondet)

    def _make_cert_authenticator(self, body: AgreementCertBody):
        """Authenticator over the agreement-certificate body, None if no
        node verifies agreement certificates.  Agreement certificates use
        MAC vectors (to ``cert_verifiers``) or signatures; threshold
        signatures are reserved for reply certificates."""
        if not self.cert_verifiers:
            return None
        if self.config.authentication is AuthenticationScheme.SIGNATURE:
            return self.crypto.sign(body)
        return self.crypto.mac_authenticator(body, self.cert_verifiers)

    # ------------------------------------------------------------------ #
    # COMMIT and delivery.
    # ------------------------------------------------------------------ #

    def handle_commit(self, sender: NodeId, message: CommitMsg) -> None:
        if message.view != self.view or self._view_changing:
            return
        if sender != message.replica or sender not in self.agreement_ids:
            return
        if not self.log.in_watermarks(message.seq):
            return
        entry = self.log.entry(self.view, message.seq)
        entry.commits[sender] = message
        entry.commit_authenticators[sender] = message.cert_authenticator
        if self._mark_committed(entry):
            self._deliver_in_order()

    def _mark_committed(self, entry: LogEntry) -> bool:
        """Whether ``entry`` just committed (2f + 1 COMMITs, its own too)."""
        if (entry.committed or self.node_id not in entry.commits
                or entry.commit_count(entry.cert_body.batch_digest) < 2 * self.f + 1):
            return False
        entry.committed = True
        if self.tracing:
            self._trace_batch(entry.pre_prepare.requests, "commit")
        proposal = self.proposer.inflight.get(entry.seq)
        if proposal is not None:
            self._h_agree_ms.observe(self.now - proposal.sent_at)
        return True

    def _deliver_in_order(self) -> None:
        """Deliver committed batches in order (and the COMMITs that waited
        for a delivered config operation)."""
        while (entry := self._committed_entry(self.log.last_delivered_seq + 1)):
            self._deliver(entry)
            self._commit_from(self.log.existing_entry(self.view, entry.seq + 1))

    def _committed_entry(self, seq: int, delivered: bool = False) -> Optional[LogEntry]:
        for view in range(self.view, -1, -1):
            entry = self.log.existing_entry(view, seq)
            if entry is not None and entry.committed and entry.delivered == delivered:
                return entry
        return None

    def _assemble_certificate(self, entry: LogEntry) -> Certificate:
        """Assemble the agreement certificate from the commit authenticators."""
        certificate = Certificate(
            payload=entry.cert_body,
            scheme=(AuthenticationScheme.SIGNATURE
                    if self.config.authentication is AuthenticationScheme.SIGNATURE
                    else AuthenticationScheme.MAC),
        )
        for replica, authenticator in entry.commit_authenticators.items():
            if authenticator is not None and authenticator.scheme is certificate.scheme:
                certificate.authenticators[replica] = authenticator
        return certificate

    def _deliver(self, entry: LogEntry) -> None:
        assert entry.pre_prepare is not None
        self.local.execute_batch(
            seq=entry.seq, view=entry.view,
            request_certificates=entry.pre_prepare.requests,
            agreement_certificate=self._assemble_certificate(entry),
            nondet=entry.pre_prepare.nondet,
        )
        entry.delivered = True
        self.log.last_delivered_seq = entry.seq
        self.batches_delivered += 1
        self.requests_delivered += len(entry.pre_prepare.requests)
        self._c_batches.inc()
        self._c_requests.inc(len(entry.pre_prepare.requests))
        self.proposer.on_delivered(entry.pre_prepare.requests)
        if self.log.is_checkpoint_seq(entry.seq):
            self._emit_checkpoint(entry.seq)
        if self.is_primary:
            self.proposer.maybe_make_batch()

    # ------------------------------------------------------------------ #
    # Checkpoints.
    # ------------------------------------------------------------------ #

    def _emit_checkpoint(self, seq: int) -> None:
        sync_state = self.local.checkpoint_sync_state(seq)
        if sync_state is None:
            # The queue's frontier at the cut awaits another log's (a
            # log-map cut): a vote now would certify the cut without the
            # frontier a lagging replica adopts, so vote once it can.
            self._deferred_checkpoints.add(seq)
            return
        digest = self.local.checkpoint_digest(seq)
        message = AgreementCheckpoint(seq=seq, state_digest=digest,
                                      replica=self.node_id,
                                      sync_state=sync_state)
        self.log.add_checkpoint_vote(seq, self.node_id, digest)
        self.log.sync_states[(seq, digest)] = sync_state
        self.multicast(self.agreement_ids, message)
        self._try_stable(seq, digest)

    def on_routes_resumed(self, seq: int) -> None:
        """The local queue routes past ``seq`` again (a log-map cut got its
        frontier, or a sync): cast a deferred vote, send waiting COMMITs."""
        if seq in self._deferred_checkpoints:
            self._deferred_checkpoints.discard(seq)
            self._emit_checkpoint(seq)
        self._commit_from(self.log.existing_entry(self.view, seq + 1))

    def handle_checkpoint(self, sender: NodeId, message: AgreementCheckpoint) -> None:
        if sender != message.replica or sender not in self.agreement_ids:
            return
        key = (message.seq, message.state_digest)
        if key not in self.log.sync_states and message.seq > self.log.stable_seq:
            # Keep the vote's transferable state only if it re-derives the
            # claimed digest: a Byzantine replica can echo the certified
            # digest but cannot forge frontier state that hashes to it.
            expected = self.local.sync_state_digest(message.seq, message.sync_state)
            if expected == message.state_digest:
                self.log.sync_states[key] = message.sync_state
        self.log.add_checkpoint_vote(message.seq, sender, message.state_digest)
        self._try_stable(message.seq, message.state_digest)

    def _try_stable(self, seq: int, digest: bytes, waited: bool = False) -> None:
        if seq <= self.log.stable_seq:
            return
        if self.log.checkpoint_support(seq, digest) >= 2 * self.f + 1:
            if (not waited and not self._view_changing
                    and self.log.lacks_only_commits(self.view, seq)):
                # Deliver those batches -- a primary sends them downstream
                # first -- and adopt the cut by state transfer only if their
                # COMMITs miss half the retransmission a sync would cost.
                self.set_timer(self.config.timers.agreement_retransmit_ms / 2,
                               lambda: self._try_stable(seq, digest, waited=True),
                               label=f"{self.node_id}:late-commits")
                return
            self.log.mark_stable(seq)
            if seq > self.log.last_delivered_seq:
                self._sync_to_checkpoint(seq, digest)
            self.local.on_stable_checkpoint(seq)
            self._deferred_checkpoints = {
                cut for cut in self._deferred_checkpoints if cut > seq}
            self._maybe_rotate_primary()

    def _maybe_rotate_primary(self) -> None:
        """Proactive rotation: planned view change every N stable checkpoints.

        Counted in sequence numbers from the view's starting checkpoint,
        which every replica of the view takes from the same view-change
        quorum: all 3f+1 reach the same rotation checkpoint -- however far
        behind a replica's own stable checkpoint was when it entered the
        view, or however late one of its checkpoints stabilises -- and vote
        for the same next view without any replica having to accuse the
        primary.  The view change assembles exactly like a failure-driven
        one, but the outgoing primary is not marked deposed.
        """
        interval = self.config.timers.rotation_interval_checkpoints
        if interval is None or self._view_changing:
            return
        rotate_at = (self._view_start_seq
                     + interval * self.config.checkpoint_interval)
        if self.log.stable_seq >= rotate_at:
            self.planned_rotations += 1
            self.start_view_change(self.next_view_target(self.view),
                                   planned=True)

    def _sync_to_checkpoint(self, seq: int, state_digest: bytes) -> None:
        """State transfer: jump a stranded delivery frontier to a stable cut.

        A quorum certified the checkpoint at ``seq``, so every batch up to
        it committed and was answered by correct replicas; this replica
        missed some of them (an equivocating primary fed it conflicting
        pre-prepares, or it fell behind past the watermark window) and can
        no longer replay them once the quorum garbage-collected the
        entries.  Adopt the checkpoint instead: advance the delivery
        frontier, hand the local queue the digest-verified frontier state a
        checkpoint vote carried (the 2f+1 quorum contains at least f+1
        correct voters, so a verified copy always arrived), and drop armed
        request deadlines.
        """
        self.log.last_delivered_seq = seq
        self.next_seq = max(self.next_seq, seq + 1)
        self.checkpoint_syncs += 1
        sync_state = self.log.sync_states.get((seq, state_digest), ())
        self.local.sync_to_checkpoint(seq, sync_state)
        self.proposer.on_checkpoint_sync()
        self.on_routes_resumed(seq)

    # ------------------------------------------------------------------ #
    # View changes.
    # ------------------------------------------------------------------ #

    def start_view_change(self, new_view: int, planned: bool = False) -> None:
        """Vote to move to ``new_view`` (carrying prepared-batch evidence).

        ``planned`` marks a proactive rotation (the
        ``rotation_interval_checkpoints`` knob): the outgoing primary did
        nothing wrong, so it is not recorded as deposed and stays in the
        rotation for future views.
        """
        if new_view <= self.view and self._target_view >= new_view:
            return
        if not self._view_changing and not planned:
            # Abandoning a live view: its primary failed us (timeout,
            # censorship, or equivocation) -- skip it for a rotation.
            self._note_deposed(self.primary_of(self.view), self.view)
        previous_target = self._target_view if self._view_changing else self.view
        self._view_changing = True
        self._target_view = max(self._target_view, new_view)
        if self.tracing and self._target_view > previous_target:
            self.trace_event(f"view-change:{self._target_view}",
                             "view_change_start")
        prepared = tuple(
            PreparedProof(view=entry.view, seq=entry.seq,
                          batch_digest=entry.pre_prepare.batch_digest,
                          requests=entry.pre_prepare.requests,
                          nondet=entry.pre_prepare.nondet)
            for entry in self.log.prepared_entries_above(self.log.stable_seq)
            if entry.pre_prepare is not None and not entry.delivered
        )
        vote = ViewChange(new_view=self._target_view,
                          last_stable_seq=self.log.stable_seq,
                          prepared=prepared, replica=self.node_id,
                          planned=planned)
        self._record_view_change(self.node_id, vote)
        self.multicast(self.agreement_ids, vote)
        # Escalate if the view change itself stalls, backing off
        # exponentially so cascading view changes under a long partition
        # re-vote ever less often instead of thrashing.
        self.set_timer(self._escalation_delay_ms(),
                       lambda: self._on_view_change_timeout(self._target_view),
                       label=f"{self.node_id}:view-change-escalate")

    def _escalation_delay_ms(self) -> float:
        """Backed-off re-vote delay for the current escalation attempt."""
        timers = self.config.timers
        delay = timers.view_change_ms * (
            VIEW_CHANGE_BACKOFF ** (self._view_change_attempts + 1))
        return min(delay, max(VIEW_CHANGE_BACKOFF_CAP_MS,
                              timers.view_change_ms))

    def _on_view_change_timeout(self, attempted_view: int) -> None:
        if self.view >= attempted_view:
            return
        # The attempted view's candidate failed to assemble a NEW-VIEW in
        # time: depose it too, and escalate past it with a longer fuse.
        self._view_change_attempts += 1
        self._note_deposed(self.primary_of(attempted_view), attempted_view)
        self.start_view_change(self.next_view_target(attempted_view))

    def handle_view_change(self, sender: NodeId, message: ViewChange) -> None:
        if (sender != message.replica or sender not in self.agreement_ids
                or message.new_view <= self.view
                or not message.within_watermarks(self.log.window)):
            return
        self._record_view_change(sender, message)
        votes = self._view_change_votes.get(message.new_view, {})
        # Join the view change once f + 1 replicas are already moving: this is
        # the standard liveness rule that prevents a slow replica from being
        # left behind.  Join a *planned* rotation as planned -- f + 1 planned
        # votes contain a correct one, so the outgoing primary did nothing
        # wrong and must not be marked deposed by laggards.
        if len(votes) >= self.f + 1 and self._target_view < message.new_view:
            planned = sum(
                1 for vote in votes.values() if vote.planned) >= self.f + 1
            self.start_view_change(message.new_view, planned=planned)
        if (self.primary_of(message.new_view) == self.node_id
                and len(votes) >= 2 * self.f + 1):
            self._send_new_view(message.new_view)

    def _record_view_change(self, sender: NodeId, message: ViewChange) -> None:
        self._view_change_votes.setdefault(message.new_view, {})[sender] = message

    def _send_new_view(self, view: int) -> None:
        if self.view >= view:
            return
        votes = self._view_change_votes.get(view, {})
        # Re-propose every prepared batch reported by any of the 2f + 1 votes,
        # keeping the highest-view evidence per sequence number.
        best: Dict[int, PreparedProof] = {}
        min_stable = 0
        for vote in votes.values():
            min_stable = max(min_stable, vote.last_stable_seq)
            for proof in vote.prepared:
                current = best.get(proof.seq)
                if current is None or proof.view > current.view:
                    best[proof.seq] = proof
        # Re-proposals start at the latest stable checkpoint among the votes
        # (PBFT's min-s) -- NOT at this primary's own delivered frontier.
        # An equivocating old primary can leave replicas stranded behind
        # holes the rest of the group long since delivered; only re-running
        # agreement from the checkpoint lets those laggards catch up, clear
        # their request deadlines, and stop escalating view changes.
        # Replicas that already delivered a re-proposed batch still vote for
        # it but skip re-execution (see _adopt_new_view_batches).
        pre_prepares = [
            PrePrepare(view=view, seq=proof.seq, batch_digest=proof.batch_digest,
                       requests=proof.requests, nondet=proof.nondet,
                       primary=self.node_id)
            for proof in (best[s] for s in sorted(best))
            if proof.seq > min_stable
        ]
        # Fill sequence holes with null batches.  A hole is a sequence number
        # no vote reported prepared: by quorum intersection it cannot have
        # committed anywhere, yet in-order delivery would wait on it forever
        # (a censoring primary that *dropped* a pre-prepare leaves exactly
        # this gap).  An empty batch is agreed through the normal three
        # phases and releases as a vacuous slot downstream.
        floor, ceiling = min_stable, min_stable + self.log.window
        for seq in range(floor + 1, min(max(best, default=floor), ceiling + 1)):
            if seq in best:
                continue
            digest = self.crypto.batch_digest(())
            pre_prepares.append(PrePrepare(
                view=view, seq=seq, batch_digest=digest, requests=(),
                nondet=self.nondet.propose(self.now, seed=digest),
                primary=self.node_id))
        pre_prepares = tuple(sorted(pre_prepares, key=lambda p: p.seq))
        new_view = NewView(view=view,
                           view_change_replicas=tuple(sorted(r.name for r in votes)),
                           pre_prepares=pre_prepares, primary=self.node_id)
        self._enter_view(view, min_stable, pre_prepares)
        self.multicast(self.agreement_ids, new_view)
        self._adopt_new_view_batches(pre_prepares)
        self.next_seq = max(self.next_seq, self.log.last_delivered_seq + 1,
                            max((p.seq for p in pre_prepares), default=0) + 1)
        # Give the NEW-VIEW a head start so backups are already in the new
        # view when the first fresh PRE-PREPARE reaches them.
        self.set_timer(2.0, self.proposer.maybe_make_batch,
                       label=f"{self.node_id}:new-view-batch")

    def handle_new_view(self, sender: NodeId, message: NewView) -> None:
        if message.view <= self.view:
            return
        if sender != self.primary_of(message.view) or message.primary != sender:
            return
        quorum = [vote.last_stable_seq for replica, vote
                  in self._view_change_votes.get(message.view, {}).items()
                  if replica.name in message.view_change_replicas]
        self._enter_view(message.view, max(quorum, default=self.log.stable_seq),
                         message.pre_prepares)
        self._adopt_new_view_batches(message.pre_prepares)

    def _enter_view(self, view: int, start_seq: int,
                    pre_prepares: Tuple[PrePrepare, ...]) -> None:
        """Enter ``view``, which starts from the stable checkpoint
        ``start_seq`` and carries ``pre_prepares`` forward."""
        if self.tracing:
            self.trace_event(f"view-change:{view}", "view_change_end")
        dropped = self._dropped_requests(view, start_seq, pre_prepares)
        self.view = view
        self._view_changing = False
        self._target_view = view
        self._view_change_attempts = 0
        self._view_start_seq = start_seq
        self.view_changes_completed += 1
        self.next_seq = max(self.next_seq, self.log.last_delivered_seq + 1)
        self.proposer.on_view_entered(dropped)
        self.local.on_view_entered(view)

    def _dropped_requests(self, view: int, start_seq: int,
                          pre_prepares: Tuple[PrePrepare, ...]
                          ) -> List[Certificate]:
        """Client requests an earlier view pre-prepared above the new view's
        starting checkpoint and this replica's delivery frontier that the
        NEW-VIEW does not carry forward.  Such a batch committed nowhere (a
        committed one is carried), and nobody would order its requests
        again before their clients retransmit -- the common case is a
        planned rotation overtaking the outgoing primary's last proposal."""
        carried = {(certificate.payload.client, certificate.payload.timestamp)
                   for pre_prepare in pre_prepares
                   for certificate in pre_prepare.requests
                   if isinstance(certificate.payload, ClientRequest)}
        dropped: Dict[Tuple[NodeId, int], Certificate] = {}
        floor = max(start_seq, self.log.last_delivered_seq)
        for pre_prepare in self.log.pre_prepares_before(view, floor):
            for certificate in pre_prepare.requests:
                request = certificate.payload
                if isinstance(request, ClientRequest):
                    key = (request.client, request.timestamp)
                    if key not in carried:
                        dropped.setdefault(key, certificate)
        return list(dropped.values())

    def _adopt_new_view_batches(self, pre_prepares: Tuple[PrePrepare, ...]) -> None:
        for pre_prepare in pre_prepares:
            entry = self.log.entry(pre_prepare.view, pre_prepare.seq)
            if pre_prepare.seq <= self.log.last_delivered_seq:
                # Already delivered here: vote so laggards can assemble the
                # prepare/commit quorums they need to catch up, but mark the
                # slot consumed so commit never re-executes it locally.
                entry.delivered = True
                entry.cert_body = self._delivered_body(pre_prepare)
            if entry.pre_prepare is None:
                entry.pre_prepare = pre_prepare
            if self._is_config_batch(pre_prepare.requests):
                entry.config_op = True
            if self.node_id != pre_prepare.primary:
                prepare = Prepare(view=pre_prepare.view, seq=pre_prepare.seq,
                                  batch_digest=pre_prepare.batch_digest,
                                  replica=self.node_id)
                entry.prepares[self.node_id] = prepare
                self.multicast(self.agreement_ids, prepare)
            self._try_prepared(entry)

    def _delivered_body(self, pre_prepare: PrePrepare) -> Optional[AgreementCertBody]:
        """The body this replica delivered ``pre_prepare``'s batch under,
        moved to its view (None if collected, or for another batch)."""
        earlier = self._committed_entry(pre_prepare.seq, delivered=True)
        body = None if earlier is None else earlier.cert_body
        if body is None or (body.batch_digest, body.nondet) != (
                pre_prepare.batch_digest, pre_prepare.nondet):
            return None
        return dataclasses.replace(body, view=pre_prepare.view)
