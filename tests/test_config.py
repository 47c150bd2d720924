"""Tests for SystemConfig: replication-cost arithmetic and validation."""

import dataclasses

import pytest

from repro.config import (
    AuthenticationScheme,
    CryptoCosts,
    Deployment,
    NetworkConfig,
    SystemConfig,
    TimerConfig,
)
from repro.errors import ConfigurationError


class TestClusterSizes:
    def test_agreement_cluster_is_3f_plus_1(self):
        for f in range(4):
            assert SystemConfig(f=f).num_agreement_nodes == 3 * f + 1

    def test_execution_cluster_is_2g_plus_1(self):
        for g in range(4):
            assert SystemConfig(g=g).num_execution_nodes == 2 * g + 1

    def test_agreement_quorum_is_2f_plus_1(self):
        for f in range(4):
            assert SystemConfig(f=f).agreement_quorum == 2 * f + 1

    def test_reply_quorum_is_g_plus_1(self):
        for g in range(4):
            assert SystemConfig(g=g).reply_quorum == g + 1

    def test_firewall_grid_is_h_plus_1_squared(self):
        config = SystemConfig.privacy_firewall(h=2)
        assert config.firewall_rows == 3
        assert config.firewall_columns == 3
        assert config.num_firewall_nodes == 9

    def test_no_firewall_means_no_filter_nodes(self):
        config = SystemConfig.separate_different_mac()
        assert config.num_firewall_nodes == 0
        assert config.firewall_rows == 0

    def test_paper_machine_count_for_one_fault_with_firewall(self):
        """Paper Section 5.3: four agreement+filter machines, two extra filter
        machines, three execution machines = nine machines."""
        config = SystemConfig.privacy_firewall()
        assert config.num_agreement_nodes == 4
        assert config.num_execution_nodes == 3
        assert config.total_server_machines == 9

    def test_coupled_deployment_shares_machines(self):
        config = SystemConfig.separate_same_mac()
        assert config.total_server_machines == config.num_agreement_nodes


class TestValidation:
    def test_negative_fault_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(f=-1)
        with pytest.raises(ConfigurationError):
            SystemConfig(g=-1)
        with pytest.raises(ConfigurationError):
            SystemConfig(h=-1)

    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_clients=0)

    def test_pipeline_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(pipeline_depth=0)

    def test_bundle_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(bundle_size=0)

    def test_firewall_requires_threshold_signatures(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(use_privacy_firewall=True,
                         authentication=AuthenticationScheme.MAC,
                         deployment=Deployment.DIFFERENT)

    def test_firewall_requires_separate_machines(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(use_privacy_firewall=True,
                         authentication=AuthenticationScheme.THRESHOLD,
                         deployment=Deployment.SAME)

    def test_negative_app_processing_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(app_processing_ms=-1.0)

    def test_network_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(network=NetworkConfig(drop_probability=1.5))

    def test_network_delay_ordering_validated(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(network=NetworkConfig(min_delay_ms=2.0, max_delay_ms=1.0))

    def test_timers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(timers=TimerConfig(batch_timeout_ms=0.0))


class TestConstructors:
    def test_paper_configurations_build(self):
        assert SystemConfig.base_coupled().deployment is Deployment.SAME
        assert SystemConfig.separate_same_mac().deployment is Deployment.SAME
        assert SystemConfig.separate_different_mac().deployment is Deployment.DIFFERENT
        thresh = SystemConfig.separate_different_threshold()
        assert thresh.authentication is AuthenticationScheme.THRESHOLD
        firewall = SystemConfig.privacy_firewall()
        assert firewall.use_privacy_firewall

    def test_constructors_accept_overrides(self):
        config = SystemConfig.privacy_firewall(bundle_size=10, num_clients=8)
        assert config.bundle_size == 10
        assert config.num_clients == 8

    def test_replace_returns_modified_copy(self):
        config = SystemConfig()
        other = config.replace(bundle_size=5)
        assert other.bundle_size == 5
        assert config.bundle_size == 1

    def test_config_is_frozen(self):
        config = SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.f = 2  # type: ignore[misc]


class TestCryptoCosts:
    def test_defaults_match_paper_measurements(self):
        costs = CryptoCosts()
        assert costs.mac_ms == pytest.approx(0.2)
        assert costs.threshold_share_ms == pytest.approx(15.0)
        assert costs.threshold_verify_ms == pytest.approx(0.7)

    def test_digest_cost_scales_with_size(self):
        costs = CryptoCosts()
        assert costs.digest_ms(0) == 0.0
        assert costs.digest_ms(50_000) == pytest.approx(1.0)
        assert costs.digest_ms(100_000) > costs.digest_ms(50_000)

    def test_scaled_reduces_costs(self):
        costs = CryptoCosts().scaled(0.1)
        assert costs.threshold_share_ms == pytest.approx(1.5)
        assert costs.mac_ms == pytest.approx(0.02)
