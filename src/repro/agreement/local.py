"""The local state machine interface of the agreement library.

The original BASE library executes each agreed request against the
application state machine hosted on the same node.  The paper's modification
replaces that state machine with a message queue; our agreement replica is
written against this small interface so that both the separated architecture
(message queue) and the coupled baseline (direct executor) plug in without
touching the agreement protocol.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

from ..crypto.certificate import Certificate
from ..messages.agreement import AgreementCertBody
from ..messages.request import ClientRequest
from ..statemachine.nondet import NonDetInput


class RetryOutcome(enum.Enum):
    """Result of :meth:`LocalExecutor.retry_hint` for a retransmitted request."""

    #: the executor handled the retransmission (sent a cached reply or
    #: retransmitted the pending certificates); nothing more to do.
    HANDLED = "handled"
    #: the executor has no record of the request; the agreement replica must
    #: run agreement again to assign the (old) request a fresh sequence number.
    NEED_ORDER = "need-order"


class LocalExecutor(ABC):
    """What the agreement replica 'executes' ordered batches against."""

    @abstractmethod
    def execute_batch(self, seq: int, view: int,
                      request_certificates: Tuple[Certificate, ...],
                      agreement_certificate: Certificate,
                      nondet: NonDetInput) -> None:
        """Deliver one agreed batch, in sequence-number order.

        For the message queue this enqueues the batch for asynchronous
        processing by the execution cluster; for the coupled baseline it runs
        the requests against the application and replies to clients.
        """

    @abstractmethod
    def retry_hint(self, request_certificate: Certificate,
                   relayed: bool = False) -> RetryOutcome:
        """Handle a client-initiated retransmission of an old request;
        ``relayed`` when a backup passed it to this primary rather than the
        client sending it here."""

    def route_body(self, body: AgreementCertBody,
                   requests: Tuple[Certificate, ...]) -> Optional[AgreementCertBody]:
        """The agreement-certificate body the hosting replica's COMMIT for
        ``requests`` at ``body.seq`` covers.  An executor that does not
        route answers ``body`` itself at once; a router answers the body
        with the batch's route, or ``None`` until the prefix below the
        batch is routed (the replica asks again after each COMMIT it sends,
        each delivery and ``on_routes_resumed``)."""
        return body

    def checkpoint_digest(self, seq: int) -> bytes:
        """Digest of the executor state at sequence number ``seq``.

        Used by the agreement cluster's checkpoint protocol.  The message
        queue's durable state at a checkpoint is fully determined by ``seq``
        (its reply cache is explicitly excluded from checkpoints), so the
        digest covers the sequence number plus whatever transferable
        frontier state :meth:`checkpoint_sync_state` ships with the vote.
        """
        return self.sync_state_digest(seq, self.checkpoint_sync_state(seq))

    def sync_state_digest(self, seq: int,
                          sync_state: Tuple[Tuple[str, object], ...]) -> bytes:
        """Digest binding a checkpoint cut to its transferable state.

        The hosting replica uses this to validate the ``sync_state`` carried
        by a peer's checkpoint vote against the quorum-certified digest
        before adopting it in a state transfer -- a Byzantine replica can
        claim the right digest but cannot forge state that matches it.
        """
        from ..crypto.digest import digest

        return digest({"local-state-at": seq, "sync": sync_state})

    def checkpoint_sync_state(
            self, seq: int) -> Optional[Tuple[Tuple[str, object], ...]]:
        """Transferable frontier state at the checkpoint cut (key/value
        pairs).  Deterministic across correct replicas at the same cut; the
        default executor carries none.  ``None`` means "not yet": the
        executor cannot describe the cut until its frontier there is known
        (a log-map cut awaiting the source log's), and then calls the
        hosting replica's ``on_routes_resumed(seq)``, which casts the
        deferred vote."""
        return ()

    def highest_ready_seq(self) -> Optional[int]:
        """Highest sequence number for which a reply is known.

        The agreement replica uses this for pipeline back-pressure: it will
        not start agreement for sequence number ``n`` until the executor has
        seen a reply for ``n - P`` (the paper's pipeline depth ``P``).
        ``None`` means "no back-pressure information" (coupled baseline).
        """
        return None

    def seq_answered(self, seq: int) -> bool:
        """Whether a reply for sequence number ``seq`` has been seen.

        With sharded execution replies complete out of global order, so this
        can be true for sequence numbers above the contiguous
        :meth:`highest_ready_seq` watermark; the default derives the answer
        from that watermark alone (the unsharded behaviour).
        """
        ready = self.highest_ready_seq()
        return ready is not None and seq <= ready

    def shard_outstanding(self, shard: int) -> int:
        """Batches sent towards execution shard ``shard`` but not yet
        answered (0 when the executor is not sharded).  The proposer
        combines this with its own proposals to size the per-shard windows
        (:attr:`repro.config.SystemConfig.per_shard_windows`)."""
        return 0

    def request_shard(self, request: ClientRequest) -> Optional[int]:
        """The shard that will execute ``request`` (its bundle queue and
        admission window at the proposer), or ``None`` when the executor
        does not shard."""
        return None

    def cross_shards(self, request: ClientRequest) -> Optional[List[int]]:
        """The ascending shards a cross-shard ``request`` touches -- the
        proposer orders it alone, as a marker whose sequence number is a
        consistent cut over them -- or ``None`` for any other request."""
        return None

    def on_stable_checkpoint(self, seq: int) -> None:
        """Notification that the agreement cluster's checkpoint at ``seq`` is stable."""

    def on_view_entered(self, view: int) -> None:
        """Notification that the hosting replica entered ``view``.  An
        executor whose first sends come from the primary alone hands the new
        primary what the old one may never have sent."""

    def sync_to_checkpoint(self, seq: int,
                           sync_state: Tuple[Tuple[str, object], ...]) -> None:
        """The hosting replica state-transferred its delivery frontier to a
        stable checkpoint at ``seq``; batches at or below it that were never
        delivered locally will never arrive.  ``sync_state`` is the
        digest-verified :meth:`checkpoint_sync_state` a correct replica
        shipped with its checkpoint vote.  Executors with release frontiers
        of their own must adopt it and skip the gap (the default executor
        has none, so this is a no-op)."""
