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
from typing import Dict, List, Optional, Union

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..messages.agreement import OrderedBatch
from ..messages.reply import BatchReply, BatchReplyBody
from ..messages.request import ClientRequest
from ..net.message import Message
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..util.ids import NodeId


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
        self.state: Dict[int, Union[_Seen, BatchReply]] = {}
        #: top-row only: accumulation of threshold shares per (seq, body digest)
        self._share_collectors: Dict[tuple, Certificate] = {}
        self._share_bodies: Dict[tuple, BatchReplyBody] = {}

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
        else:
            return

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
        """Filters verify certificates so garbage never crosses the firewall."""
        body = batch.agreement_certificate.payload
        if getattr(body, "seq", None) != batch.seq:
            return False
        if not self.crypto.verify_certificate(batch.agreement_certificate,
                                              self.config.agreement_quorum,
                                              self.agreement_ids):
            return False
        for certificate in batch.request_certificates:
            request = certificate.payload
            if not isinstance(request, ClientRequest):
                return False
            if request.client not in self.client_ids:
                return False
            if not self.crypto.verify_certificate(certificate, 1, [request.client]):
                return False
        return True

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
        if isinstance(current, BatchReply):
            # Already forwarded (or stored): store the newest but do not
            # multicast again -- at most one multicast per request seen.
            self.state[seq] = complete
            self.replies_filtered += 1
            return
        if current is SEEN:
            self.multicast(self.below, complete)
            self.replies_forwarded += 1
            self.state[seq] = complete
        else:
            # Reply arrived before any request was seen: remember it but do
            # not forward until a request asks for it.
            self.state[seq] = complete

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
        key = (message.seq, self.crypto.payload_digest(body))
        collector = self._share_collectors.get(key)
        if collector is None:
            collector = Certificate(payload=body,
                                    scheme=AuthenticationScheme.THRESHOLD,
                                    threshold_group=self.threshold_group)
            self._share_collectors[key] = collector
            self._share_bodies[key] = body
        if collector.threshold_signature is not None:
            # Already assembled (and sent, so its wire form is memoised):
            # re-forward the completed certificate instead of mutating it.
            return BatchReply(seq=message.seq, certificate=collector,
                              sender=self.node_id)
        collector.merge(certificate)
        valid = self.crypto.valid_signers(collector, self.execution_ids)
        if len(valid) < self.config.reply_quorum:
            return None
        if collector.threshold_signature is None:
            collector.threshold_signature = self.crypto.threshold_combine(
                body, self.threshold_group, collector.authenticator_list())
        return BatchReply(seq=message.seq, certificate=collector,
                          sender=self.node_id)

    # ------------------------------------------------------------------ #
    # Housekeeping.
    # ------------------------------------------------------------------ #

    def _garbage_collect(self) -> None:
        horizon = self.max_n - self.config.pipeline_depth
        if horizon <= 0:
            return
        self.state = {seq: value for seq, value in self.state.items() if seq >= horizon}
        self._share_collectors = {
            key: value for key, value in self._share_collectors.items()
            if key[0] >= horizon
        }
        self._share_bodies = {
            key: value for key, value in self._share_bodies.items()
            if key[0] >= horizon
        }
