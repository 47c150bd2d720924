"""The agreement replica's message log.

One :class:`LogEntry` per sequence number tracks the pre-prepare, the prepare
and commit votes received, and the delivery status.  The :class:`AgreementLog`
also tracks checkpoint votes and the stable checkpoint, and implements the
watermark window that bounds how far ahead of the stable checkpoint the
protocol may run (PBFT's ``[h, h + L]`` window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..crypto.certificate import Authenticator, Certificate
from ..messages.agreement import AgreementCertBody, CommitMsg, Prepare, PrePrepare
from ..util.ids import NodeId


@dataclass
class LogEntry:
    """Protocol state for one (view, sequence number) slot."""

    seq: int
    view: int
    pre_prepare: Optional[PrePrepare] = None
    prepares: Dict[NodeId, Prepare] = field(default_factory=dict)
    commits: Dict[NodeId, CommitMsg] = field(default_factory=dict)
    commit_authenticators: Dict[NodeId, Optional[Authenticator]] = field(default_factory=dict)
    prepared: bool = False
    #: the certificate body this replica's COMMIT covers (set when it is
    #: sent: once prepared, and -- with a routing queue -- once the batch
    #: below is routed too, which fixes the route in the body; for a batch
    #: a NEW-VIEW re-proposes that was delivered here, the body it was
    #: delivered under)
    cert_body: Optional[AgreementCertBody] = None
    committed: bool = False
    delivered: bool = False
    #: the batch carries a config operation (e.g. a partition-map change):
    #: its position in the log is an epoch cut, and at most one such entry
    #: may be in flight at a time (the proposer checks the log first)
    config_op: bool = False

    def batch_digest(self) -> Optional[bytes]:
        if self.pre_prepare is None:
            return None
        return self.pre_prepare.batch_digest

    def prepare_count(self, digest: bytes) -> int:
        """Distinct replicas that sent a PREPARE for ``digest`` in this slot."""
        return sum(1 for p in self.prepares.values() if p.batch_digest == digest)

    def commit_count(self, digest: bytes) -> int:
        """Distinct replicas that sent a COMMIT for ``digest`` in this slot."""
        return sum(1 for c in self.commits.values() if c.batch_digest == digest)


class AgreementLog:
    """Sequence-number-indexed log plus checkpoint bookkeeping."""

    def __init__(self, checkpoint_interval: int, window: Optional[int] = None) -> None:
        self.checkpoint_interval = checkpoint_interval
        #: how far past the stable checkpoint agreement may run
        self.window = window if window is not None else 2 * checkpoint_interval
        self._entries: Dict[Tuple[int, int], LogEntry] = {}
        self.stable_seq = 0
        self.last_delivered_seq = 0
        #: per-sequence-number checkpoint votes: seq -> replica -> digest
        self.checkpoint_votes: Dict[int, Dict[NodeId, bytes]] = {}

    # ------------------------------------------------------------------ #
    # Entries.
    # ------------------------------------------------------------------ #

    def entry(self, view: int, seq: int) -> LogEntry:
        """Get or create the log entry for ``(view, seq)``."""
        key = (view, seq)
        if key not in self._entries:
            self._entries[key] = LogEntry(seq=seq, view=view)
        return self._entries[key]

    def existing_entry(self, view: int, seq: int) -> Optional[LogEntry]:
        return self._entries.get((view, seq))

    def prepared_entries_above(self, seq: int) -> List[LogEntry]:
        """All prepared-but-possibly-undelivered entries above ``seq``
        (across views) -- the evidence a view change must carry forward."""
        best: Dict[int, LogEntry] = {}
        for (view, entry_seq), entry in self._entries.items():
            if entry_seq <= seq or not entry.prepared or entry.pre_prepare is None:
                continue
            current = best.get(entry_seq)
            if current is None or view > current.view:
                best[entry_seq] = entry
        return [best[s] for s in sorted(best)]

    def pre_prepares_before(self, view: int, above: int) -> List[PrePrepare]:
        """Pre-prepares of views before ``view`` at sequence numbers above
        ``above``, in (view, sequence number) order."""
        return [entry.pre_prepare for (entry_view, seq), entry
                in sorted(self._entries.items())
                if entry_view < view and seq > above
                and entry.pre_prepare is not None]

    # ------------------------------------------------------------------ #
    # Config operations (partition-map changes).
    # ------------------------------------------------------------------ #

    def note_config_op(self, view: int, seq: int) -> None:
        """Mark the entry at ``(view, seq)`` as carrying a config operation."""
        self.entry(view, seq).config_op = True

    def pending_config_seqs(self) -> List[int]:
        """Sequence numbers of config operations not yet delivered.

        The map-change proposer refuses to order a new change while one is
        in flight: two concurrent cuts would make the second a cut-time
        no-op anyway (its ``parent_epoch`` goes stale), so serialising them
        here avoids burning sequence numbers on dead proposals.
        """
        return sorted({seq for (_, seq), entry in self._entries.items()
                       if entry.config_op and not entry.delivered
                       and seq > self.last_delivered_seq})

    def has_pending_config_op(self) -> bool:
        return bool(self.pending_config_seqs())

    # ------------------------------------------------------------------ #
    # Watermarks.
    # ------------------------------------------------------------------ #

    @property
    def low_watermark(self) -> int:
        return self.stable_seq

    @property
    def high_watermark(self) -> int:
        return self.stable_seq + self.window

    def in_watermarks(self, seq: int) -> bool:
        return self.low_watermark < seq <= self.high_watermark

    # ------------------------------------------------------------------ #
    # Checkpoints.
    # ------------------------------------------------------------------ #

    def is_checkpoint_seq(self, seq: int) -> bool:
        return seq % self.checkpoint_interval == 0

    def add_checkpoint_vote(self, seq: int, replica: NodeId, digest: bytes) -> None:
        self.checkpoint_votes.setdefault(seq, {})[replica] = digest

    def checkpoint_support(self, seq: int, digest: bytes) -> int:
        votes = self.checkpoint_votes.get(seq, {})
        return sum(1 for d in votes.values() if d == digest)

    def mark_stable(self, seq: int) -> None:
        """Advance the stable checkpoint and garbage collect older state."""
        if seq <= self.stable_seq:
            return
        self.stable_seq = seq
        self._entries = {
            key: entry for key, entry in self._entries.items() if key[1] > seq
        }
        self.checkpoint_votes = {
            s: votes for s, votes in self.checkpoint_votes.items() if s > seq
        }

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests.
    # ------------------------------------------------------------------ #

    def size(self) -> int:
        """Number of live log entries (post garbage collection)."""
        return len(self._entries)
