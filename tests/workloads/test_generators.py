"""Tests for the workload generators: structure + decider ground truth."""

import pytest

from repro.answerability import decide_monotone_answerability
from repro.constraints import ConstraintClass
from repro.workloads import (
    directory_instance,
    fd_determinacy_workload,
    id_width_workload,
    lookup_chain_workload,
    lookup_fanout_workload,
    random_id_workload,
    tgd_transfer_workload,
    uid_fd_workload,
)


class TestStructure:
    def test_lookup_chain_shape(self):
        wl = lookup_chain_workload(3, dump_bound=7)
        assert len(wl.schema.relations) == 4
        assert wl.schema.method("dump").result_bound == 7
        assert len(wl.query.atoms) == 3
        assert (
            wl.schema.constraint_class()
            is ConstraintClass.BOUNDED_WIDTH_IDS
        )

    def test_fd_workload_shape(self):
        wl = fd_determinacy_workload(3, bound=4)
        assert wl.schema.relation("R").arity == 5
        assert len(wl.schema.constraints) == 3
        assert wl.schema.constraint_class() is ConstraintClass.FDS

    def test_uid_fd_class(self):
        assert (
            uid_fd_workload(2).schema.constraint_class()
            is ConstraintClass.UIDS_AND_FDS
        )

    def test_tgd_class(self):
        fragment = tgd_transfer_workload(2).schema.constraint_class()
        assert fragment in (
            ConstraintClass.FRONTIER_GUARDED_TGDS,
            ConstraintClass.GUARDED_TGDS,
        )

    def test_random_reproducible(self):
        a = random_id_workload(11)
        b = random_id_workload(11)
        assert repr(a.schema) == repr(b.schema)
        assert repr(a.query) == repr(b.query)

    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_random_query_atoms_fit_their_relations(self, arity):
        for seed in range(40):
            workload = random_id_workload(seed, arity=arity)
            arities = workload.schema.arities()
            for a in workload.query.atoms:
                assert a.arity == arities[a.relation] == arity, (
                    seed, workload.query
                )

    def test_random_binary_output_is_pinned(self):
        # Seeded corpora are built from the arity-2 output: it must not
        # drift when the other arities change.
        assert repr(random_id_workload(3).query) == (
            "Qrand3() :- N3(x0, x1), N2(x1, x2)"
        )
        assert repr(random_id_workload(11).query) == (
            "Qrand11() :- N1(x0, x1), N4(x1, x2)"
        )

    def test_directory_instance(self):
        inst = directory_instance(5, lookups=2)
        assert len(inst.facts_of("Dir")) == 5
        assert len(inst.facts_of("L0")) == 5
        assert len(inst.facts_of("L1")) == 5


@pytest.mark.parametrize(
    "workload",
    [
        lookup_chain_workload(1, dump_bound=None),
        lookup_chain_workload(1, dump_bound=5),
        lookup_chain_workload(3, dump_bound=None),
        lookup_chain_workload(3, dump_bound=5),
        lookup_fanout_workload(1),
        lookup_fanout_workload(3),
        id_width_workload(1),
        id_width_workload(2),
        id_width_workload(2, bounded=False),
        fd_determinacy_workload(1),
        fd_determinacy_workload(3),
        fd_determinacy_workload(2, ask_undetermined=True),
        fd_determinacy_workload(2, bound=50),
        uid_fd_workload(1, with_fd=True),
        uid_fd_workload(1, with_fd=False),
        uid_fd_workload(3, with_fd=True),
        tgd_transfer_workload(1),
        tgd_transfer_workload(3),
    ],
    ids=lambda wl: wl.name,
)
def test_ground_truth(workload):
    """Every generated family decides to its constructed ground truth."""
    result = decide_monotone_answerability(workload.schema, workload.query)
    assert not result.is_unknown, workload.name
    assert result.is_yes == workload.expected_answerable, workload.name
