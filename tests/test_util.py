"""Tests for utilities: node ids, quorum arithmetic, the sequence-number
table."""

import dataclasses
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.util.ids import (
    NodeId,
    Role,
    agreement_id,
    client_id,
    execution_id,
    firewall_id,
    node_of_code,
    server_id,
)
from repro.util.quorum import (
    agreement_cluster_size,
    agreement_quorum,
    coupled_reply_quorum,
    execution_cluster_size,
    firewall_grid_size,
    has_quorum,
    max_agreement_faults,
    max_execution_faults,
    reply_quorum,
)
from repro.util.seqtable import SeqTable


class TestNodeIds:
    def test_names(self):
        assert agreement_id(0).name == "A0"
        assert execution_id(2).name == "E2"
        assert client_id(3).name == "C3"
        assert firewall_id(1, 0).name == "F1.0"
        assert server_id().name == "S0"

    def test_firewall_requires_row(self):
        with pytest.raises(ValueError):
            NodeId(Role.FIREWALL, 0)

    def test_non_firewall_rejects_row(self):
        with pytest.raises(ValueError):
            NodeId(Role.CLIENT, 0, row=1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            NodeId(Role.CLIENT, -1)

    def test_ordering_is_total_and_deterministic(self):
        nodes = [execution_id(1), agreement_id(0), client_id(5),
                 firewall_id(0, 1), firewall_id(1, 0), agreement_id(2)]
        ordered = sorted(nodes)
        assert ordered == sorted(reversed(nodes))
        assert len(set(nodes)) == len(nodes)

    def test_equality_and_hash(self):
        assert agreement_id(1) == agreement_id(1)
        assert agreement_id(1) != execution_id(1)
        assert len({agreement_id(1), agreement_id(1)}) == 1

    def test_role_short(self):
        assert [role.short() for role in Role] == ["C", "A", "E", "F", "S"]

    def test_name_is_computed_once(self):
        node = firewall_id(2, 1)
        assert node.name is node.name
        assert str(node) == "F2.1"
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.name = "A0"


#: the wire code of each id (role position, row + 1, index: see
#: ``repro.util.ids``): frames and reply tables name ids by it, and the
#: reply tables sit under checkpoint digests, so these must not move
GOLDEN_CODES = {
    client_id(3): 0x00000003,
    agreement_id(0): 0x10000000,
    execution_id(2): 0x20000002,
    firewall_id(1, 0): 0x30200000,
    server_id(): 0x40000000,
}


class TestNodeIdWireCode:
    @pytest.mark.parametrize("node", list(GOLDEN_CODES), ids=lambda n: n.name)
    def test_code_is_the_three_fields(self, node):
        assert node._code == GOLDEN_CODES[node]
        assert node_of_code(node._code) == node

    def test_ids_outside_the_code_ranges_have_none(self):
        assert client_id(0xFFFFF)._code == 0xFFFFF
        assert client_id(0x100000)._code is None
        assert firewall_id(0xFE, 0)._code == 0x3FF00000
        assert firewall_id(0xFF, 0)._code is None

    @pytest.mark.parametrize("code", [0x50000000, 0xF0000000,   # no such role
                                      0x00100000,                # row on a client
                                      0x30000001])               # firewall, no row
    def test_a_code_of_no_id_is_refused(self, code):
        with pytest.raises(ValueError):
            node_of_code(code)

    @pytest.mark.parametrize("node", list(GOLDEN_CODES), ids=lambda n: n.name)
    def test_decoded_id_is_interchangeable_with_a_constructed_one(self, node):
        copy = node_of_code(node._code)
        assert copy is not node and copy == node
        assert copy.name == node.name
        assert hash(copy) == hash(node) == hash((node.role, node.index, node.row))
        assert {node: 1}[copy] == 1
        others = list(GOLDEN_CODES) + [agreement_id(1), firewall_id(0, 1)]
        assert sorted(others + [copy]) == sorted(others + [node])
        assert not copy < node and copy <= node and copy >= node


class TestQuorums:
    def test_cluster_sizes(self):
        assert agreement_cluster_size(1) == 4
        assert execution_cluster_size(1) == 3
        assert agreement_quorum(1) == 3
        assert reply_quorum(1) == 2
        assert coupled_reply_quorum(1) == 2
        assert firewall_grid_size(1) == (2, 2)

    def test_zero_fault_degenerate_cases(self):
        assert agreement_cluster_size(0) == 1
        assert execution_cluster_size(0) == 1
        assert reply_quorum(0) == 1

    def test_negative_inputs_rejected(self):
        for fn in (agreement_cluster_size, execution_cluster_size, agreement_quorum,
                   reply_quorum, coupled_reply_quorum):
            with pytest.raises(ConfigurationError):
                fn(-1)

    def test_max_faults_inverse_of_cluster_size(self):
        for f in range(5):
            assert max_agreement_faults(agreement_cluster_size(f)) == f
        for g in range(5):
            assert max_execution_faults(execution_cluster_size(g)) == g

    def test_has_quorum_counts_distinct_members(self):
        nodes = [agreement_id(i) for i in range(4)]
        assert has_quorum(nodes[:3], 3)
        assert not has_quorum([nodes[0], nodes[0], nodes[0]], 2)
        assert has_quorum(nodes, 3, universe=nodes[:3])
        assert not has_quorum(nodes[:3], 3, universe=nodes[:2])

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_execution_cluster_majority_property(self, g):
        """2g+1 replicas: any g+1 subset is a majority and overlaps any other."""
        size = execution_cluster_size(g)
        quorum = reply_quorum(g)
        assert 2 * quorum > size


#: what the protocol does to its per-sequence-number windows: insert under a
#: sequence number (late and Byzantine ones land anywhere), drop one entry,
#: move the horizon (a queue's moves with the reply just assembled, so it
#: also goes back)
_SEQS = st.integers(-3, 40)
_TABLE_STEPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), _SEQS, st.sampled_from([b"a", b"b", b"c"])),
    st.tuples(st.just("delete"), _SEQS, st.sampled_from([b"a", b"b", b"c"])),
    st.tuples(st.just("trim"), _SEQS, st.none())), max_size=60)


class TestSeqTable:
    @pytest.mark.parametrize("keyed", ["seq", "seq-and-digest"])
    @given(steps=_TABLE_STEPS)
    @settings(max_examples=200, deadline=None)
    def test_same_contents_as_rebuilding_after_every_step(self, keyed, steps):
        """Against the comprehension each trim used to be, entry order
        included (``recent_batches.values()`` is iterated)."""
        if keyed == "seq":
            table, key_of, seq_of = SeqTable(), (lambda seq, tag: seq), (lambda key: key)
        else:
            table, key_of, seq_of = (SeqTable(seq_of=itemgetter(0)),
                                     (lambda seq, tag: (seq, tag)), itemgetter(0))
        model = {}
        for number, (step, seq, tag) in enumerate(steps):
            if step == "insert":
                table[key_of(seq, tag)] = model[key_of(seq, tag)] = number
            elif step == "delete":
                table.pop(key_of(seq, tag), None)
                model.pop(key_of(seq, tag), None)
            else:
                table.trim(seq)
                model = {key: value for key, value in model.items()
                         if seq_of(key) > seq}
            assert list(table.items()) == list(model.items())
        # nothing is remembered about entries that are gone
        table.trim(40)
        assert not table and not table._heap

    def test_trim_pops_only_what_fell_below(self):
        popped = []

        class Watched(SeqTable):
            def pop(self, key, default=None):
                popped.append(key)
                return super().pop(key, default)

        table = Watched()
        for seq in range(1, 129):
            table[seq] = seq
        table.trim(0)
        table.trim(1)
        table.trim(1)
        assert popped == [1] and len(table) == 127
