"""Unit tests for agreement-library components: log, batching, local executor."""

import pytest

from repro.agreement.batching import Batcher
from repro.agreement.local import LocalExecutor, RetryOutcome
from repro.agreement.log import AgreementLog, LogEntry
from repro.config import AuthenticationScheme
from repro.crypto.keys import Keystore
from repro.crypto.provider import CryptoProvider
from repro.messages.agreement import CommitMsg, Prepare, PrePrepare
from repro.messages.request import ClientRequest
from repro.statemachine.interface import Operation
from repro.statemachine.nondet import NonDetInput
from repro.util.ids import agreement_id, client_id


def request_cert(keystore, client_index=0, timestamp=1):
    client = client_id(client_index)
    provider = CryptoProvider(client, keystore)
    request = ClientRequest(operation=Operation(kind="null"), timestamp=timestamp,
                            client=client)
    return provider.new_certificate(request, AuthenticationScheme.MAC, [agreement_id(0)])


class TestBatcher:
    def test_fifo_order(self):
        keystore = Keystore()
        batcher = Batcher(bundle_size=2)
        certs = [request_cert(keystore, 0, t) for t in range(1, 4)]
        for cert in certs:
            assert batcher.add(cert)
        assert batcher.take() == certs[:2]
        assert batcher.take() == certs[2:]
        assert not batcher.has_work()

    def test_duplicates_folded(self):
        keystore = Keystore()
        batcher = Batcher(bundle_size=4)
        cert = request_cert(keystore, 0, 1)
        assert batcher.add(cert)
        assert not batcher.add(request_cert(keystore, 0, 1))
        assert len(batcher) == 1

    def test_full_bundle_detection(self):
        keystore = Keystore()
        batcher = Batcher(bundle_size=3)
        for t in range(1, 3):
            batcher.add(request_cert(keystore, 0, t))
        assert not batcher.has_full_bundle()
        batcher.add(request_cert(keystore, 1, 1))
        assert batcher.has_full_bundle()

    def test_remove(self):
        keystore = Keystore()
        batcher = Batcher(bundle_size=4)
        batcher.add(request_cert(keystore, 0, 1))
        batcher.add(request_cert(keystore, 1, 1))
        batcher.remove(client_id(0), 1)
        assert len(batcher) == 1
        assert not batcher.contains(client_id(0), 1)

    def test_take_limit(self):
        keystore = Keystore()
        batcher = Batcher(bundle_size=10)
        for t in range(1, 6):
            batcher.add(request_cert(keystore, 0, t))
        assert len(batcher.take(limit=2)) == 2
        assert len(batcher) == 3

    def test_invalid_bundle_size(self):
        with pytest.raises(ValueError):
            Batcher(bundle_size=0)


class TestAgreementLog:
    def test_entry_creation_and_lookup(self):
        log = AgreementLog(checkpoint_interval=4)
        entry = log.entry(view=0, seq=1)
        assert entry is log.entry(view=0, seq=1)
        assert log.existing_entry(view=0, seq=2) is None

    def test_watermarks(self):
        log = AgreementLog(checkpoint_interval=4)
        assert log.low_watermark == 0
        assert log.high_watermark == 8
        assert log.in_watermarks(1)
        assert log.in_watermarks(8)
        assert not log.in_watermarks(0)
        assert not log.in_watermarks(9)

    def test_mark_stable_garbage_collects(self):
        log = AgreementLog(checkpoint_interval=4)
        for seq in range(1, 9):
            log.entry(0, seq)
        log.add_checkpoint_vote(4, agreement_id(0), b"d")
        log.mark_stable(4)
        assert log.stable_seq == 4
        assert log.existing_entry(0, 3) is None
        assert log.existing_entry(0, 5) is not None
        assert log.in_watermarks(12)

    def test_mark_stable_never_regresses(self):
        log = AgreementLog(checkpoint_interval=4)
        log.mark_stable(8)
        log.mark_stable(4)
        assert log.stable_seq == 8

    def test_checkpoint_support_counts_matching_digests(self):
        log = AgreementLog(checkpoint_interval=4)
        log.add_checkpoint_vote(4, agreement_id(0), b"d")
        log.add_checkpoint_vote(4, agreement_id(1), b"d")
        log.add_checkpoint_vote(4, agreement_id(2), b"other")
        assert log.checkpoint_support(4, b"d") == 2
        assert log.checkpoint_support(4, b"other") == 1

    def test_prepare_and_commit_counts(self):
        log = AgreementLog(checkpoint_interval=4)
        entry = log.entry(0, 1)
        digest = b"x" * 32
        for i in range(3):
            entry.prepares[agreement_id(i)] = Prepare(view=0, seq=1, batch_digest=digest,
                                                      replica=agreement_id(i))
        entry.prepares[agreement_id(3)] = Prepare(view=0, seq=1, batch_digest=b"y" * 32,
                                                  replica=agreement_id(3))
        assert entry.prepare_count(digest) == 3
        assert entry.prepare_count(b"y" * 32) == 1

    def test_prepared_entries_above_prefers_latest_view(self):
        log = AgreementLog(checkpoint_interval=4)
        keystore = Keystore()
        cert = request_cert(keystore)
        for view in (0, 1):
            entry = log.entry(view, 5)
            entry.prepared = True
            entry.pre_prepare = PrePrepare(view=view, seq=5, batch_digest=bytes([view]) * 32,
                                           requests=(cert,), nondet=NonDetInput.empty(),
                                           primary=agreement_id(view))
        found = log.prepared_entries_above(0)
        assert len(found) == 1
        assert found[0].view == 1


class TestLocalExecutorDefaults:
    class _Minimal(LocalExecutor):
        def execute_batch(self, seq, view, request_certificates,
                          agreement_certificate, nondet):
            return None

        def retry_hint(self, request_certificate, relayed=False):
            return RetryOutcome.NEED_ORDER

    def test_default_checkpoint_digest_depends_only_on_seq(self):
        executor = self._Minimal()
        assert executor.checkpoint_digest(4) == executor.checkpoint_digest(4)
        assert executor.checkpoint_digest(4) != executor.checkpoint_digest(8)

    def test_default_highest_ready_is_none(self):
        assert self._Minimal().highest_ready_seq() is None
