"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so that callers
can catch the whole family with a single ``except`` clause while still being
able to discriminate between configuration problems, protocol violations,
cryptographic verification failures, and simulation errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A system configuration is internally inconsistent or violates the
    replication-cost arithmetic required by the protocol (e.g. fewer than
    ``3f + 1`` agreement nodes)."""


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class VerificationError(CryptoError):
    """A MAC, signature, threshold signature, or certificate failed to verify."""


class UnknownKeyError(CryptoError):
    """A key required for an operation is not present in the keystore."""


class CertificateError(CryptoError):
    """A certificate is malformed or does not carry enough valid authenticators."""


class ProtocolError(ReproError):
    """A protocol participant received a message that violates the protocol
    (wrong view, bad sequence number, duplicate with conflicting contents...)."""


class StateMachineError(ReproError):
    """The replicated application state machine rejected an operation."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency
    (e.g. scheduling an event in the past)."""


class NetworkError(ReproError):
    """The simulated network was asked to do something impossible, such as
    delivering a message over a link that the topology forbids."""


class TopologyError(NetworkError):
    """A node attempted to communicate with a peer it has no physical link to.

    In the privacy-firewall deployment this is the error that enforces the
    paper's restricted-communication requirement."""


class DecodeError(NetworkError):
    """Bytes from a peer are not a complete, canonical frame or reply table
    of the wire codec (:mod:`repro.net.codec`)."""


class EncodeError(NetworkError):
    """A value has no wire form in the codec: a type it cannot name, or a
    number, length or nesting outside the format's ranges."""


class FirewallError(ReproError):
    """A privacy-firewall filter node detected a protocol violation."""


class LivenessTimeoutError(ReproError):
    """A bounded simulation ran out of virtual time before an operation that
    the liveness argument says must complete actually completed."""
