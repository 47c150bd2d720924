"""Confidentiality auditing.

The paper's confidentiality guarantee is *output set confidentiality*: the
sequence of reply bodies that crosses the correct cut of filters must be a
sequence that a single correct, unreplicated implementation of the service
could also have produced over an unreliable network (which may drop, delay,
replicate, and reorder replies).

The :class:`ConfidentialityAuditor` installs a network tap that records every
message crossing the boundary below the firewall (filters/agreement -> clients
or agreement nodes) and checks two things:

* no plaintext confidential payload crosses the boundary (bodies must be
  encrypted objects the receiving role cannot open), and
* every reply body forwarded below the correct cut matches the reply a
  reference (correct, unreplicated) execution of the agreed request sequence
  produces -- i.e. minority/corrupt replies from faulty execution nodes were
  filtered out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..crypto.digest import digest
from ..messages.reply import BatchReply, ClientReply
from ..messages.request import EncryptedBody
from ..net.message import Message
from ..net.network import Network
from ..util.ids import NodeId, Role


@dataclass(frozen=True)
class LeakObservation:
    """A potential confidentiality violation observed on the wire."""

    source: NodeId
    destination: NodeId
    description: str
    seq: Optional[int] = None


@dataclass
class ReplyObservation:
    """A reply body observed crossing the firewall boundary."""

    source: NodeId
    destination: NodeId
    seq: int
    client: NodeId
    timestamp: int
    result_digest: bytes


class ConfidentialityAuditor:
    """Observes the boundary below the privacy firewall."""

    def __init__(self, boundary_sources: List[NodeId],
                 boundary_destinations: List[NodeId]) -> None:
        #: nodes above the boundary (filters in the bottom row / agreement nodes)
        self.boundary_sources = set(boundary_sources)
        #: nodes below the boundary (clients / agreement nodes)
        self.boundary_destinations = set(boundary_destinations)
        self.leaks: List[LeakObservation] = []
        self.reply_observations: List[ReplyObservation] = []

    # ------------------------------------------------------------------ #
    # Wiring.
    # ------------------------------------------------------------------ #

    def install(self, network: Network) -> None:
        """Attach this auditor as a network tap."""
        network.add_tap(self._tap)

    def _tap(self, source: NodeId, destination: NodeId,
             message: Message) -> Optional[Message]:
        if source not in self.boundary_sources:
            return None
        if destination not in self.boundary_destinations:
            return None
        self._inspect(source, destination, message)
        return None

    # ------------------------------------------------------------------ #
    # Inspection.
    # ------------------------------------------------------------------ #

    def _inspect(self, source: NodeId, destination: NodeId, message: Message) -> None:
        if isinstance(message, (BatchReply, ClientReply)):
            body = message.body
            for reply in body.carried:
                if not isinstance(reply.result, EncryptedBody):
                    self.leaks.append(LeakObservation(
                        source=source, destination=destination, seq=body.seq,
                        description="plaintext reply body crossed the firewall boundary",
                    ))
                    result_digest = digest(reply.result)
                else:
                    result_digest = reply.result.ciphertext_digest
                self.reply_observations.append(ReplyObservation(
                    source=source, destination=destination, seq=body.seq,
                    client=reply.client, timestamp=reply.timestamp,
                    result_digest=result_digest,
                ))

    # ------------------------------------------------------------------ #
    # Verdicts.
    # ------------------------------------------------------------------ #

    def observed_result_digests(self) -> Dict[Tuple[NodeId, int], set]:
        """Map (client, timestamp) -> set of distinct reply digests observed."""
        out: Dict[Tuple[NodeId, int], set] = {}
        for obs in self.reply_observations:
            out.setdefault((obs.client, obs.timestamp), set()).add(obs.result_digest)
        return out

    def check_output_set(self, reference: Dict[Tuple[NodeId, int], bytes]) -> List[LeakObservation]:
        """Compare observed reply digests against a reference execution.

        ``reference`` maps (client, timestamp) to the digest of the reply a
        correct unreplicated server would produce.  Every observed digest must
        match its reference entry; mismatches are returned (and recorded) as
        leak observations.
        """
        violations: List[LeakObservation] = []
        for (client, timestamp), digests in self.observed_result_digests().items():
            expected = reference.get((client, timestamp))
            if expected is None:
                continue
            for observed in digests:
                if observed != expected:
                    violation = LeakObservation(
                        source=client, destination=client, seq=None,
                        description=(
                            f"reply for ({client}, t={timestamp}) does not match the "
                            "reference correct execution"
                        ),
                    )
                    violations.append(violation)
        self.leaks.extend(violations)
        return violations

    @property
    def clean(self) -> bool:
        """True when no confidentiality violation has been observed."""
        return not self.leaks
