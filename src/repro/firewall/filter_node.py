"""A privacy-firewall filter node (Section 4.1 of the paper).

Each filter keeps ``maxN`` (the highest sequence number seen in a valid
agreement or reply certificate) and a bounded per-sequence-number table
``state_n`` whose entries are:

* ``None``   -- request ``n`` has not been seen,
* ``SEEN``   -- request ``n`` has been seen but its reply has not,
* a reply    -- the complete reply certificate for ``n``.

Requests (ordered batches) arriving from below are forwarded up (and answered
directly from the state table when the reply is already known).  Replies
arriving from above are only forwarded down once they carry a complete
threshold-signed certificate, and each reply is multicast down **at most once
per request seen** -- the rule that limits an adversary's ability to modulate
reply counts as a covert channel.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import List, Optional, Union

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..messages.agreement import OrderedBatch
from ..messages.reply import BatchReply
from ..net.message import Message
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..util.ids import NodeId
from ..util.seqtable import SeqTable


class _Seen(enum.Enum):
    SEEN = "seen"


SEEN = _Seen.SEEN


class FilterNode(Process):
    """One filter in the privacy-firewall array."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, row: int,
                 below: List[NodeId], above: List[NodeId],
                 agreement_ids: List[NodeId], execution_ids: List[NodeId],
                 client_ids: List[NodeId], threshold_group: str,
                 is_top_row: bool) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.row = row
        #: the row below (towards agreement nodes / clients)
        self.below = list(below)
        #: the row above (towards execution nodes)
        self.above = list(above)
        self.agreement_ids = list(agreement_ids)
        self.execution_ids = list(execution_ids)
        self.client_ids = list(client_ids)
        self.threshold_group = threshold_group
        self.is_top_row = is_top_row
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)

        self.max_n = 0
        #: state_n: None (absent), SEEN, or the full reply (body, certificate)
        self.state: SeqTable[int, Union[_Seen, BatchReply]] = SeqTable()
        #: top-row only: accumulation of threshold shares per (seq, body digest)
        self._share_collectors: SeqTable[tuple, Optional[Certificate]] = \
            SeqTable(seq_of=itemgetter(0))

        # Statistics used by tests and benchmarks.
        self.requests_forwarded = 0
        self.replies_forwarded = 0
        self.replies_filtered = 0

    # ------------------------------------------------------------------ #
    # Dispatch.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, OrderedBatch):
            if sender in self.below or sender in self.agreement_ids:
                self.handle_batch_from_below(message)
        elif isinstance(message, BatchReply):
            if sender in self.above or sender in self.execution_ids:
                self.handle_reply_from_above(sender, message)

    # ------------------------------------------------------------------ #
    # Requests flowing up.
    # ------------------------------------------------------------------ #

    def handle_batch_from_below(self, batch: OrderedBatch) -> None:
        seq = batch.seq
        if seq < self.max_n - self.config.pipeline_depth:
            return
        if not self._validate_batch(batch):
            return
        self.max_n = max(self.max_n, seq)
        self._garbage_collect()
        current = self.state.get(seq)
        if isinstance(current, BatchReply):
            # The reply is already known: answer from the state table instead
            # of disturbing the execution cluster again.
            self.multicast(self.below, current)
            self.replies_forwarded += 1
            return
        if current is None:
            self.state[seq] = SEEN
        self._forward_up(batch)
        self.requests_forwarded += 1

    def _forward_up(self, batch: OrderedBatch) -> None:
        """Forward a batch to the row above.

        Paper optimisation: nodes in all but the top row unicast to the single
        node directly above them (same column); the top row must multicast to
        every execution node.
        """
        if not self.is_top_row and len(self.above) > self.node_id.index:
            self.send(self.above[self.node_id.index], batch)
            return
        self.multicast(self.above, batch)

    def _validate_batch(self, batch: OrderedBatch) -> bool:
        """Filters verify certificates so garbage never crosses the firewall:
        the agreement certificate binds exactly this request list at this
        sequence number and view, and every request is a known client's."""
        requests = batch.request_certificates
        return (self.crypto.agreed_batch(batch.agreement_certificate, batch.seq,
                                         batch.view, requests,
                                         self.config.agreement_quorum,
                                         self.agreement_ids)
                and all(self.crypto.authentic_request(certificate, self.client_ids)
                        for certificate in requests))

    # ------------------------------------------------------------------ #
    # Replies flowing down.
    # ------------------------------------------------------------------ #

    def handle_reply_from_above(self, sender: NodeId, message: BatchReply) -> None:
        seq = message.seq
        if seq < self.max_n - self.config.pipeline_depth:
            return
        complete = self._complete_certificate(sender, message)
        if complete is None:
            return
        self.max_n = max(self.max_n, seq)
        self._garbage_collect()
        current = self.state.get(seq)
        # Remember the newest reply; multicast it only to a request seen and
        # not yet answered -- at most one multicast per request seen (one
        # arriving before any request waits until a request asks for it).
        self.state[seq] = complete
        if isinstance(current, BatchReply):
            self.replies_filtered += 1
        elif current is SEEN:
            self.multicast(self.below, complete)
            self.replies_forwarded += 1

    def _complete_certificate(self, sender: NodeId,
                              message: BatchReply) -> Optional[BatchReply]:
        """Return a reply carrying a complete certificate, assembling shares
        in the top row and verifying the group signature elsewhere."""
        certificate = message.certificate
        body = message.body
        if not (message.well_formed and body.complete):
            # The firewall relays every reply: it needs the whole bundle.
            return None
        if certificate.scheme is not AuthenticationScheme.THRESHOLD:
            # The privacy firewall requires threshold reply certificates.
            return None
        if certificate.threshold_signature is not None:
            if self.crypto.verify_certificate(certificate, self.config.reply_quorum):
                return message
            self.replies_filtered += 1
            return None
        if not self.is_top_row:
            # Only the top row may assemble shares; partial certificates this
            # low in the array indicate a faulty node above.
            self.replies_filtered += 1
            return None
        if sender not in self.execution_ids:
            return None
        complete = self.crypto.assemble(
            self._share_collectors, (message.seq, self.crypto.payload_digest(body)),
            certificate, sender, self.execution_ids, self.config.reply_quorum,
            AuthenticationScheme.THRESHOLD, self.threshold_group)
        if complete is None:
            return None
        return BatchReply(seq=message.seq, certificate=complete, sender=self.node_id)

    # ------------------------------------------------------------------ #
    # Housekeeping.
    # ------------------------------------------------------------------ #

    def _garbage_collect(self) -> None:
        horizon = self.max_n - self.config.pipeline_depth
        if horizon > 0:
            self.state.trim(horizon - 1)
            self._share_collectors.trim(horizon - 1)
