"""Per-node cryptographic operations.

A :class:`CryptoProvider` is bound to one node and exposes exactly the
operations the paper's trust model allows that node to perform: hashing,
MACing to known destinations, signing with its own private key, producing its
own threshold share, verifying anything, and combining ``k`` valid shares into
a group signature.  It cannot produce another node's authenticator, which is
how the simulation upholds the "cryptography is not subverted" assumption even
for Byzantine nodes.

Every operation charges its virtual-time cost (from
:class:`repro.config.CryptoCosts`) through the ``charge`` callback -- usually
``Process.charge`` -- and records an operation count for the cost-model
benchmarks (Figure 4).
"""

from __future__ import annotations

import hmac
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..config import AuthenticationScheme, CryptoCosts, PerfConfig
from ..errors import CertificateError, CryptoError, VerificationError
from ..net.message import Message
from ..util.ids import NodeId
from ..util.wirecache import wire_memo
from .cache import VerifiedCertificateCache
from .certificate import Authenticator, Certificate
from .digest import digest, mac
from .keys import Keystore

ChargeFn = Callable[[float], None]
RecordFn = Callable[[str], None]


def _noop_charge(_: float) -> None:
    return None


def _noop_record(_: str) -> None:
    return None


class CryptoProvider:
    """Cryptographic operations available to one node."""

    def __init__(self, node: NodeId, keystore: Keystore,
                 costs: Optional[CryptoCosts] = None,
                 charge: Optional[ChargeFn] = None,
                 record: Optional[RecordFn] = None,
                 perf: Optional[PerfConfig] = None) -> None:
        self.node = node
        self.keystore = keystore
        self.costs = costs or CryptoCosts()
        self.perf = perf or PerfConfig()
        #: per-node memo of successful verifications (None when disabled);
        #: never shared between nodes, so no node benefits from another
        #: node's verification work.
        self.cache: Optional[VerifiedCertificateCache] = (
            VerifiedCertificateCache()
            if self.perf.verified_cert_cache else None)
        self._charge = charge or _noop_charge
        self._record = record or _noop_record
        keystore.register_node(node)

    def bind(self, charge: ChargeFn, record: RecordFn) -> None:
        """Attach the cost-accounting callbacks (done when a Process is built)."""
        self._charge = charge
        self._record = record

    # ------------------------------------------------------------------ #
    # Digests.
    # ------------------------------------------------------------------ #

    def digest(self, value: Any, size_hint: Optional[int] = None) -> bytes:
        """Digest ``value``, charging hashing time proportional to its size."""
        result = digest(value)
        if size_hint is None:
            size_hint = len(value) if isinstance(value, bytes) else 64
        self._charge(self.costs.digest_ms(size_hint))
        self._record("digest")
        return result

    def payload_digest(self, payload: Any) -> bytes:
        """Digest of a message/payload, charging based on its wire size.

        For protocol messages (immutable) the digest is memoised on the
        message (:mod:`repro.util.wirecache`); with ``perf.digest_memo``
        enabled the virtual hashing cost is charged only the first time
        *this node* touches the message -- later touches record
        ``digest_cached`` and charge nothing, and other nodes still pay for
        their own first hash.
        """
        memo = wire_memo(payload, "digest") if isinstance(payload, Message) else None
        if memo is not None:
            if self.perf.digest_memo:
                if self.node.name in memo.charged:
                    self._record("digest_cached")
                    return memo.digest
                memo.charged.add(self.node.name)
            self._charge(self.costs.digest_ms(memo.size + payload.padding_bytes))
            self._record("digest")
            return memo.digest
        size = payload.wire_size() if hasattr(payload, "wire_size") else None
        return self.digest(payload, size_hint=size)

    # ------------------------------------------------------------------ #
    # MAC authenticators.
    # ------------------------------------------------------------------ #

    def mac_authenticator(self, payload: Any,
                          destinations: Iterable[NodeId]) -> Authenticator:
        """Produce a MAC-vector authenticator for ``payload`` to ``destinations``."""
        payload_digest = self.payload_digest(payload)
        node, pair_secret = self.node, self.keystore.pair_secret
        tokens: Dict[str, bytes] = {
            destination.name: mac(pair_secret(node, destination), payload_digest)
            for destination in destinations}
        self._charge(self.costs.mac_ms)
        self._record("mac_sign")
        return Authenticator(signer=self.node, scheme=AuthenticationScheme.MAC,
                             payload_digest=payload_digest, token=tokens)

    def verify_mac(self, payload: Any, authenticator: Authenticator) -> bool:
        """Verify the MAC entry addressed to this node.

        A cache hit means this node previously proved that the same signer
        vouches for the same payload digest; re-asserting a proven fact is
        accepted without charging (see :mod:`repro.crypto.cache`).
        """
        if authenticator.scheme is not AuthenticationScheme.MAC:
            return False
        payload_digest = self.payload_digest(payload)
        key = ("mac", authenticator.signer, payload_digest)
        if self.cache is not None and self.cache.seen(key):
            self._record("mac_verify_cached")
            return True
        if not authenticator.covers(payload_digest):
            return False
        token = authenticator.token
        entry = token.get(self.node.name) if isinstance(token, dict) else None
        if not isinstance(entry, bytes):
            return False
        secret = self.keystore.pair_secret(authenticator.signer, self.node)
        expected = mac(secret, payload_digest)
        self._charge(self.costs.mac_ms)
        self._record("mac_verify")
        ok = hmac.compare_digest(entry, expected)
        if ok and self.cache is not None:
            self.cache.add(key)
        return ok

    # ------------------------------------------------------------------ #
    # Public-key signatures (simulated).
    # ------------------------------------------------------------------ #

    def sign(self, payload: Any) -> Authenticator:
        """Sign ``payload`` with this node's private key."""
        payload_digest = self.payload_digest(payload)
        key = self.keystore.private_key(self.node)
        signature = mac(key, b"sig:" + payload_digest)
        self._charge(self.costs.signature_sign_ms)
        self._record("signature_sign")
        return Authenticator(signer=self.node, scheme=AuthenticationScheme.SIGNATURE,
                             payload_digest=payload_digest, token=signature)

    def verify_signature(self, payload: Any, authenticator: Authenticator) -> bool:
        """Verify another node's signature over ``payload``."""
        if authenticator.scheme is not AuthenticationScheme.SIGNATURE:
            return False
        payload_digest = self.payload_digest(payload)
        cache_key = ("sig", authenticator.signer, payload_digest)
        if self.cache is not None and self.cache.seen(cache_key):
            self._record("signature_verify_cached")
            return True
        if not authenticator.covers(payload_digest) or not isinstance(
                authenticator.token, bytes):
            return False
        try:
            key = self.keystore.private_key(authenticator.signer)
        except CryptoError:
            return False
        expected = mac(key, b"sig:" + payload_digest)
        self._charge(self.costs.signature_verify_ms)
        self._record("signature_verify")
        ok = hmac.compare_digest(authenticator.token, expected)
        if ok and self.cache is not None:
            self.cache.add(cache_key)
        return ok

    # ------------------------------------------------------------------ #
    # Threshold signatures (simulated k-of-n).
    # ------------------------------------------------------------------ #

    def threshold_share(self, payload: Any, group_name: str) -> Authenticator:
        """Produce this node's signature share for ``payload`` in ``group_name``."""
        group = self.keystore.threshold_group(group_name)
        share_key = group.share_key(self.node)
        payload_digest = self.payload_digest(payload)
        share = mac(share_key, b"share:" + payload_digest)
        self._charge(self.costs.threshold_share_ms)
        self._record("threshold_share")
        return Authenticator(signer=self.node, scheme=AuthenticationScheme.THRESHOLD,
                             payload_digest=payload_digest, token=share)

    def verify_threshold_share(self, payload: Any, authenticator: Authenticator,
                               group_name: str) -> bool:
        """Verify that a share was produced by a group member over ``payload``."""
        if authenticator.scheme is not AuthenticationScheme.THRESHOLD:
            return False
        group = self.keystore.threshold_group(group_name)
        if authenticator.signer not in group.members:
            return False
        payload_digest = self.payload_digest(payload)
        cache_key = ("share", group_name, authenticator.signer, payload_digest)
        if self.cache is not None and self.cache.seen(cache_key):
            self._record("threshold_share_verify_cached")
            return True
        if not authenticator.covers(payload_digest) or not isinstance(
                authenticator.token, bytes):
            return False
        expected = mac(group.share_key(authenticator.signer), b"share:" + payload_digest)
        self._charge(self.costs.mac_ms)
        self._record("threshold_share_verify")
        ok = hmac.compare_digest(authenticator.token, expected)
        if ok and self.cache is not None:
            self.cache.add(cache_key)
        return ok

    def threshold_combine(self, payload: Any, group_name: str,
                          shares: Iterable[Authenticator]) -> bytes:
        """Combine ``k`` valid shares into the group signature.

        Raises :class:`VerificationError` if fewer than the group threshold of
        *distinct, valid* shares are provided.  The combined value is a
        deterministic function of the payload alone -- matching the paper's
        observation that threshold signatures prevent an adversary from
        leaking information through certificate membership sets.
        """
        group = self.keystore.threshold_group(group_name)
        payload_digest = self.payload_digest(payload)
        valid_signers = set()
        for share in shares:
            if self.verify_threshold_share(payload, share, group_name):
                valid_signers.add(share.signer)
        if len(valid_signers) < group.threshold:
            raise VerificationError(
                f"threshold combine needs {group.threshold} valid shares, "
                f"got {len(valid_signers)}"
            )
        self._charge(self.costs.threshold_combine_ms)
        self._record("threshold_combine")
        return mac(group.group_key, b"combined:" + payload_digest)

    def verify_threshold_signature(self, payload: Any, signature: bytes,
                                   group_name: str) -> bool:
        """Verify a combined group signature over ``payload``.

        The cache key includes the signature bytes themselves, so a forged
        group signature can never hit a fact proven for the genuine one.
        """
        if not isinstance(signature, bytes):
            return False
        group = self.keystore.threshold_group(group_name)
        payload_digest = self.payload_digest(payload)
        cache_key = ("tsig", group_name, payload_digest, signature)
        if self.cache is not None and self.cache.seen(cache_key):
            self._record("threshold_verify_cached")
            return True
        expected = mac(group.group_key, b"combined:" + payload_digest)
        self._charge(self.costs.threshold_verify_ms)
        self._record("threshold_verify")
        ok = hmac.compare_digest(signature, expected)
        if ok and self.cache is not None:
            self.cache.add(cache_key)
        return ok

    # ------------------------------------------------------------------ #
    # Certificates.
    # ------------------------------------------------------------------ #

    def authenticate(self, certificate: Certificate,
                     destinations: Iterable[NodeId]) -> Certificate:
        """Add this node's authenticator to ``certificate`` and return it."""
        if certificate.scheme is AuthenticationScheme.MAC:
            certificate.add(self.mac_authenticator(certificate.payload, destinations))
        elif certificate.scheme is AuthenticationScheme.SIGNATURE:
            certificate.add(self.sign(certificate.payload))
        elif certificate.scheme is AuthenticationScheme.THRESHOLD:
            if certificate.threshold_group is None:
                raise CertificateError("threshold certificate has no group name")
            certificate.add(self.threshold_share(certificate.payload,
                                                 certificate.threshold_group))
        else:  # pragma: no cover - exhaustive over the enum
            raise CertificateError(f"unknown scheme {certificate.scheme}")
        return certificate

    def new_certificate(self, payload: Any, scheme: AuthenticationScheme,
                        destinations: Iterable[NodeId],
                        threshold_group: Optional[str] = None) -> Certificate:
        """Create a certificate for ``payload`` carrying this node's authenticator."""
        certificate = Certificate(payload=payload, scheme=scheme,
                                  threshold_group=threshold_group)
        return self.authenticate(certificate, destinations)

    def valid_signers(self, certificate: Certificate,
                      universe: Optional[Iterable[NodeId]] = None) -> List[NodeId]:
        """Return the distinct signers whose authenticators verify at this node."""
        allowed = None if universe is None else frozenset(universe)
        valid: List[NodeId] = []
        for authenticator in certificate.authenticator_list():
            if allowed is not None and authenticator.signer not in allowed:
                continue
            if certificate.scheme is AuthenticationScheme.MAC:
                ok = self.verify_mac(certificate.payload, authenticator)
            elif certificate.scheme is AuthenticationScheme.SIGNATURE:
                ok = self.verify_signature(certificate.payload, authenticator)
            else:
                if certificate.threshold_group is None:
                    ok = False
                else:
                    ok = self.verify_threshold_share(certificate.payload, authenticator,
                                                     certificate.threshold_group)
            if ok:
                valid.append(authenticator.signer)
        return valid

    def verify_certificate(self, certificate: Certificate, required: int,
                           universe: Optional[Iterable[NodeId]] = None) -> bool:
        """Check that the certificate carries ``required`` valid authenticators.

        A threshold certificate with a combined signature verifies directly
        against the group signature regardless of which shares are attached.
        """
        if (certificate.scheme is AuthenticationScheme.THRESHOLD
                and certificate.threshold_signature is not None
                and certificate.threshold_group is not None):
            return self.verify_threshold_signature(
                certificate.payload, certificate.threshold_signature,
                certificate.threshold_group,
            )
        allowed = None if universe is None else frozenset(universe)
        cache_key = None
        if self.cache is not None:
            cache_key = (
                "cert",
                self.payload_digest(certificate.payload),
                certificate.scheme.value,
                certificate.signers,
                required,
                allowed,
            )
            if self.cache.seen(cache_key):
                self._record("certificate_cached")
                return True
        ok = len(self.valid_signers(certificate, allowed)) >= required
        if ok and cache_key is not None:
            self.cache.add(cache_key)
        return ok

    def require_certificate(self, certificate: Certificate, required: int,
                            universe: Optional[Iterable[NodeId]] = None,
                            description: str = "certificate") -> None:
        """Raise :class:`VerificationError` unless the certificate verifies."""
        if not self.verify_certificate(certificate, required, universe):
            raise VerificationError(
                f"{description} does not carry {required} valid authenticators"
            )
