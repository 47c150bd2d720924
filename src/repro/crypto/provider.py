"""Per-node cryptographic operations, and the one home of every certificate rule.

A :class:`CryptoProvider` is bound to one node and exposes exactly the
operations the paper's trust model allows that node to perform: hashing,
MACing to known destinations, signing with its own private key, producing its
own threshold share, verifying anything, and combining ``k`` valid shares into
a group signature.  It cannot produce another node's authenticator, which is
how the simulation upholds the "cryptography is not subverted" assumption even
for Byzantine nodes.

Every hop of the separated architecture is gated by the same four
certificate rules, each written here once: checking one fact
(:meth:`CryptoProvider._check` over a :class:`Fact`), binding a batch
(:meth:`~CryptoProvider.agreed_batch`), authenticating a request
(:meth:`~CryptoProvider.authentic_request`) and assembling a reply quorum
(:meth:`~CryptoProvider.assemble`).

Every operation charges its virtual-time cost (from
:class:`repro.config.CryptoCosts`) through the ``charge`` callback -- usually
``Process.charge`` -- and records an operation count for the cost-model
benchmarks (Figure 4).
"""

from __future__ import annotations

import hmac
from typing import (Any, Callable, Dict, Hashable, Iterable, List,
                    MutableMapping, NamedTuple, Optional, Sequence, Tuple)

from ..config import AuthenticationScheme, CryptoCosts, PerfConfig
from ..errors import CertificateError, CryptoError, VerificationError
from ..messages.request import ClientRequest
from ..net.message import Message
from ..util.ids import NodeId
from ..util.wirecache import WIRE_CACHE, wire_memo
from .cache import VerifiedCertificateCache
from .certificate import Authenticator, Certificate
from .digest import digest, mac
from .keys import Keystore

ChargeFn = Callable[[float], None]
RecordFn = Callable[[str], None]

#: a verification fact and its cache key: ``(tag, threshold group or None,
#: signer -- a group signature's own bytes --, payload digest)``
FactKey = Tuple[str, Optional[str], Any, bytes]


class Fact(NamedTuple):
    """One kind of fact, "a signer vouches for a payload digest", proved by
    ``token == HMAC(material, prefix + digest)``: the prefix separates the
    domains of schemes that share a key.  ``cost`` names the
    :class:`~repro.config.CryptoCosts` field a check costs, ``op`` and
    ``cached_op`` the operations recorded for a check and a cache hit, and
    ``material(crypto, key)`` -- the key material as the verifying
    :class:`CryptoProvider` holds it -- raises :class:`CryptoError` for a
    signer, group or member it does not know."""

    tag: str
    scheme: AuthenticationScheme
    prefix: bytes
    cost: str
    op: str
    cached_op: str
    material: Callable[["CryptoProvider", FactKey], bytes]

    def key(self, group: Optional[str], who: Any, payload_digest: bytes) -> FactKey:
        return (self.tag, group, who, payload_digest)

    def token(self, crypto: "CryptoProvider", key: FactKey) -> bytes:
        """The token proving ``key`` to ``crypto``'s node (what its signer
        made)."""
        return mac(self.material(crypto, key), self.prefix + key[3])


MAC_FACT = Fact("mac", AuthenticationScheme.MAC, b"", "mac_ms", "mac_verify",
                "mac_verify_cached",
                lambda crypto, key: crypto.pair_secret(key[2]))
SIGNATURE_FACT = Fact("sig", AuthenticationScheme.SIGNATURE, b"sig:",
                      "signature_verify_ms", "signature_verify", "signature_verify_cached",
                      lambda crypto, key: crypto.keystore.private_key(key[2]))
SHARE_FACT = Fact("share", AuthenticationScheme.THRESHOLD, b"share:", "mac_ms",
                  "threshold_share_verify", "threshold_share_verify_cached",
                  lambda crypto, key: crypto.keystore.threshold_group(key[1]).share_key(key[2]))
GROUP_FACT = Fact("tsig", AuthenticationScheme.THRESHOLD, b"combined:",
                  "threshold_verify_ms", "threshold_verify", "threshold_verify_cached",
                  lambda crypto, key: crypto.keystore.threshold_group(key[1]).group_key)
#: the fact each scheme's authenticators assert
FACT_OF_SCHEME = {fact.scheme: fact for fact in (MAC_FACT, SIGNATURE_FACT, SHARE_FACT)}


def fact_token(fact: Fact, authenticator: Authenticator,
               verifier_name: str) -> Optional[bytes]:
    """What ``authenticator`` offers the verifier named ``verifier_name`` as
    proof of ``fact`` (over the verifier's own payload digest, in the key):
    None unless it is of the fact's scheme and carries bytes for it."""
    if authenticator.scheme is not fact.scheme:
        return None
    token = authenticator.token
    if fact is MAC_FACT:
        token = token.get(verifier_name) if isinstance(token, dict) else None
    return token if isinstance(token, bytes) else None


def _noop(_: Any) -> None:
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
        self._charge = charge or _noop
        self._record = record or _noop
        #: authenticators :meth:`assemble` dropped instead of merging
        self.dropped_authenticators = 0
        #: the MAC secret shared with each peer, looked up once
        self._secrets: Dict[NodeId, bytes] = {}
        keystore.register_node(node)

    def bind(self, charge: ChargeFn, record: RecordFn) -> None:
        """Attach the cost-accounting callbacks (done when a Process is built)."""
        self._charge = charge
        self._record = record

    def pair_secret(self, peer: NodeId) -> bytes:
        """The MAC secret this node shares with ``peer``."""
        secret = self._secrets.get(peer)
        if secret is None:
            secret = self._secrets[peer] = self.keystore.pair_secret(self.node, peer)
        return secret

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
    # Checking one fact.
    # ------------------------------------------------------------------ #

    def _check(self, fact: Fact, key: FactKey, token: Optional[bytes]) -> bool:
        """Whether ``token`` proves ``key`` to this node.  A fact proven
        before is accepted uncharged (:mod:`repro.crypto.cache`); key
        material this node cannot find fails the check, uncharged."""
        cache = self.cache
        if cache is not None and cache.seen(key):
            self._record(fact.cached_op)
            return True
        if token is None:
            return False
        try:
            expected = fact.token(self, key)
        except CryptoError:
            return False
        self._charge(getattr(self.costs, fact.cost))
        self._record(fact.op)
        if not hmac.compare_digest(token, expected):
            return False
        if cache is not None:
            cache.add(key)
        return True

    def _admits(self, fact: Fact, authenticator: Authenticator,
                group: Optional[str]) -> bool:
        """The tests that come before the payload digest, so an
        authenticator failing them costs no hashing: its scheme is the
        fact's, and a share comes from a member of a group this node
        knows."""
        return authenticator.scheme is fact.scheme and (
            fact is not SHARE_FACT or (
                self.keystore.has_threshold_group(group)
                and authenticator.signer in self.keystore.threshold_group(group).members))

    def _check_over(self, fact: Fact, payload_digest: bytes,
                    authenticator: Authenticator, group: Optional[str]) -> bool:
        """Check one admitted authenticator over ``payload_digest``."""
        return self._check(fact, fact.key(group, authenticator.signer, payload_digest),
                           fact_token(fact, authenticator, self.node.name))

    def _verify(self, fact: Fact, payload: Any, authenticator: Authenticator,
                group: Optional[str] = None) -> bool:
        """Check one authenticator over ``payload``."""
        return (self._admits(fact, authenticator, group)
                and self._check_over(fact, self.payload_digest(payload),
                                     authenticator, group))

    def verify_mac(self, payload: Any, authenticator: Authenticator) -> bool:
        """Verify the MAC entry addressed to this node."""
        return self._verify(MAC_FACT, payload, authenticator)

    def verify_signature(self, payload: Any, authenticator: Authenticator) -> bool:
        """Verify another node's signature over ``payload``."""
        return self._verify(SIGNATURE_FACT, payload, authenticator)

    def verify_threshold_share(self, payload: Any, authenticator: Authenticator,
                               group_name: str) -> bool:
        """Verify that a share was produced by a group member over ``payload``."""
        return self._verify(SHARE_FACT, payload, authenticator, group_name)

    def verify_threshold_signature(self, payload: Any, signature: bytes,
                                   group_name: str) -> bool:
        """Verify a combined group signature over ``payload``.  The fact
        includes the signature bytes, so a forged one never hits the cache."""
        if (not isinstance(signature, bytes)
                or not self.keystore.has_threshold_group(group_name)):
            return False
        key = GROUP_FACT.key(group_name, signature, self.payload_digest(payload))
        return self._check(GROUP_FACT, key, signature)

    # ------------------------------------------------------------------ #
    # Producing authenticators.
    # ------------------------------------------------------------------ #

    def mac_authenticator(self, payload: Any,
                          destinations: Iterable[NodeId]) -> Authenticator:
        """Produce a MAC-vector authenticator for ``payload`` to ``destinations``."""
        payload_digest = self.payload_digest(payload)
        pair_secret = self.pair_secret
        tokens: Dict[str, bytes] = {
            destination.name: mac(pair_secret(destination), payload_digest)
            for destination in destinations}
        self._charge(self.costs.mac_ms)
        self._record("mac_sign")
        return Authenticator(self.node, AuthenticationScheme.MAC, tokens)

    def _own_token(self, fact: Fact, group: Optional[str], payload_digest: bytes) -> bytes:
        return fact.token(self, fact.key(group, self.node, payload_digest))

    def sign(self, payload: Any) -> Authenticator:
        """Sign ``payload`` with this node's private key."""
        payload_digest = self.payload_digest(payload)
        signature = self._own_token(SIGNATURE_FACT, None, payload_digest)
        self._charge(self.costs.signature_sign_ms)
        self._record("signature_sign")
        return Authenticator(self.node, AuthenticationScheme.SIGNATURE, signature)

    def threshold_share(self, payload: Any, group_name: str) -> Authenticator:
        """Produce this node's signature share for ``payload`` in ``group_name``."""
        payload_digest = self.payload_digest(payload)
        share = self._own_token(SHARE_FACT, group_name, payload_digest)
        self._charge(self.costs.threshold_share_ms)
        self._record("threshold_share")
        return Authenticator(self.node, AuthenticationScheme.THRESHOLD, share)

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
        valid_signers = {share.signer for share in shares
                         if self.verify_threshold_share(payload, share, group_name)}
        if len(valid_signers) < group.threshold:
            raise VerificationError(
                f"threshold combine needs {group.threshold} valid shares, "
                f"got {len(valid_signers)}"
            )
        self._charge(self.costs.threshold_combine_ms)
        self._record("threshold_combine")
        return self._own_token(GROUP_FACT, group_name, payload_digest)

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
        elif certificate.threshold_group is None:
            raise CertificateError("threshold certificate has no group name")
        else:
            certificate.add(self.threshold_share(certificate.payload,
                                                 certificate.threshold_group))
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
        """Return the distinct signers whose authenticators verify at this
        node.  A message payload is digested once for the whole certificate
        where a repeat would be free anyway (its memo is charged once per
        node); any other payload is digested, and charged, per
        authenticator."""
        allowed = None if universe is None else frozenset(universe)
        fact = FACT_OF_SCHEME[certificate.scheme]
        group = certificate.threshold_group if fact is SHARE_FACT else None
        payload = certificate.payload
        once = (self.perf.digest_memo and WIRE_CACHE.enabled
                and isinstance(payload, Message))
        payload_digest = None
        signers = []
        for authenticator in certificate.authenticator_list():
            if ((allowed is not None and authenticator.signer not in allowed)
                    or not self._admits(fact, authenticator, group)):
                continue
            if payload_digest is None or not once:
                payload_digest = self.payload_digest(payload)
            if self._check_over(fact, payload_digest, authenticator, group):
                signers.append(authenticator.signer)
        return signers

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
            cache_key = ("cert", self.payload_digest(certificate.payload),
                         certificate.scheme.value, certificate.signers, required, allowed)
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

    # ------------------------------------------------------------------ #
    # Batches, requests and reply quorums.
    # ------------------------------------------------------------------ #

    def batch_digest(self, requests: Sequence[Certificate]) -> bytes:
        """What an agreement certificate binds a batch by: the digest of its
        ordered request digests."""
        return self.digest({"batch": [self.payload_digest(certificate.payload)
                                      for certificate in requests]})

    def agreed_batch(self, certificate: Certificate, seq: int, view: int,
                     requests: Sequence[Certificate], quorum: int,
                     agreement_ids: Iterable[NodeId],
                     slot: Optional[Tuple[int, int]] = None) -> bool:
        """Whether the agreement ``certificate`` (``quorum`` of
        ``agreement_ids``) commits exactly ``requests`` at ``seq`` in
        ``view`` -- and, given a shard replica's ``(shard, shard_seq)``
        ``slot``, routes the batch to that slot."""
        body = certificate.payload
        if getattr(body, "seq", None) != seq or getattr(body, "view", None) != view:
            return False
        if slot is not None and slot not in getattr(body, "route", ()):
            return False
        if not self.verify_certificate(certificate, quorum, agreement_ids):
            return False
        return self.batch_digest(requests) == body.batch_digest

    @staticmethod
    def client_request(certificate: Certificate,
                       clients: Iterable[NodeId]) -> Optional[ClientRequest]:
        """``certificate``'s request if one of ``clients`` made it (unverified)."""
        request = certificate.payload
        if isinstance(request, ClientRequest) and request.client in clients:
            return request
        return None

    def authentic_request(self, certificate: Certificate,
                          clients: Iterable[NodeId]) -> Optional[ClientRequest]:
        """``certificate``'s request if one of ``clients`` made it and its
        authenticator verifies here."""
        request = self.client_request(certificate, clients)
        if request is None or not self.verify_certificate(certificate, 1,
                                                          [request.client]):
            return None
        return request

    def addressed_here(self, authenticator: Authenticator,
                       relays: Iterable[NodeId] = ()) -> bool:
        """Whether ``authenticator`` is addressed as a frame to this node
        must be: a MAC vector names this node, and besides it only
        ``relays`` (the nodes this one relays the certificate to).  A
        signature or a share is not a vector, and is."""
        if authenticator.scheme is not AuthenticationScheme.MAC:
            return True
        token = authenticator.token
        own = self.node.name
        return (isinstance(token, dict) and own in token
                and (len(token) == 1
                     or token.keys() <= {own, *(node.name for node in relays)}))

    def assemble(self, table: MutableMapping[Hashable, Optional[Certificate]],
                 key: Hashable, partial: Certificate, sender: NodeId,
                 universe: Iterable[NodeId], quorum: int,
                 scheme: AuthenticationScheme,
                 group: Optional[str] = None,
                 relays: Iterable[NodeId] = ()) -> Optional[Certificate]:
        """Merge ``sender``'s own authenticator in ``partial`` into the
        certificate ``table`` assembles under ``key`` (of the caller's
        ``scheme``; a threshold one in its ``group``) and return it, shares
        combined, once ``quorum`` signers of ``universe`` verify.

        Only that one authenticator, of ``scheme`` and addressed here
        (:meth:`addressed_here`: a MAC vector names this node and else
        only ``relays``), is merged: whatever else a partial carries --
        other signers' authenticators, another scheme's, a vector cut for
        another node -- is dropped and counted in
        :attr:`dropped_authenticators`, so no sender can overwrite another
        signer's entry or make the merge raise.  A sender outside
        ``universe`` (an agreement node relaying a reply, or answering
        from its cache) counts only with a certificate of ``scheme`` that
        carries the quorum on its own.  A returned certificate may be on
        the wire: its key then maps to None and later partials are dropped.
        The caller owns the table: its keys, trimming and any cap on new
        entries."""
        if key in table and table[key] is None:
            return None
        allowed = frozenset(universe)
        authenticators = partial.authenticators
        if sender not in allowed:
            if (partial.scheme is scheme
                    and len(self.valid_signers(partial, allowed)) >= quorum):
                table[key] = None
                return partial
            self.dropped_authenticators += len(authenticators)
            return None
        collector = table.get(key)
        if collector is None:
            collector = table[key] = Certificate(
                payload=partial.payload, scheme=scheme,
                threshold_group=(group if scheme is AuthenticationScheme.THRESHOLD
                                 else None))
        own = authenticators.get(sender)
        merged = (own is not None and own.signer == sender
                  and own.scheme is scheme and self.addressed_here(own, relays))
        self.dropped_authenticators += len(authenticators) - merged
        if not merged:
            return None
        collector.add(own)
        if len(self.valid_signers(collector, allowed)) < quorum:
            return None
        if collector.scheme is AuthenticationScheme.THRESHOLD:
            collector.threshold_signature = self.threshold_combine(
                collector.payload, collector.threshold_group,
                collector.authenticator_list())
        table[key] = None
        return collector
