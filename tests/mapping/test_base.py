"""Tests for the Mapping abstraction."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.errors import MappingError
from repro.mapping.base import Mapping


class TestConstruction:
    def test_rejects_empty_assignment(self):
        with pytest.raises(MappingError):
            Mapping(assignment=(), processors=4)

    def test_rejects_out_of_range_processor(self):
        with pytest.raises(MappingError):
            Mapping(assignment=(0, 4), processors=4)

    @pytest.mark.parametrize("bad", [-1, 100_000])
    def test_large_assignment_names_the_first_bad_thread(self, bad):
        # The range check is one min/max pass (numpy for arrays); the
        # message must still name the offending thread, not just report
        # a failure.
        assignment = list(range(100_000))
        assignment[73_419] = bad
        for build in (
            lambda: Mapping(assignment=tuple(assignment), processors=100_000),
            lambda: Mapping(np.array(assignment), 100_000),
        ):
            with pytest.raises(MappingError) as caught:
                build()
            assert str(caught.value) == (
                f"thread 73419 mapped to processor {bad}, outside 0..99999"
            )

    def test_rejects_bad_processor_count(self):
        with pytest.raises(MappingError):
            Mapping(assignment=(0,), processors=0)

    def test_from_array_is_the_tuple_built_mapping(self):
        values = np.array([3, 0, 2, 1])
        mapping = Mapping(values, processors=4)
        same = Mapping(assignment=(3, 0, 2, 1), processors=4)
        # Equality, hashing and repr do not depend on the constructor.
        assert mapping == same and hash(mapping) == hash(same)
        assert repr(mapping) == repr(same)
        assert type(mapping.assignment) is tuple
        assert all(type(p) is int for p in mapping.assignment)
        # It is a read-only copy, and survives pickling (process fan-out).
        values[0] = 0
        assert mapping.as_array().tolist() == [3, 0, 2, 1]
        assert not mapping.as_array().flags.writeable
        assert pickle.loads(pickle.dumps(mapping)).as_array().tolist() == [3, 0, 2, 1]
        assert same.as_array().tolist() == [3, 0, 2, 1]
        assert same.as_array() is same.as_array()
        # Deep copies (run_serial's) and pickles are equal, immutable
        # mappings; every constructor's mapping is one set member and one
        # dict key.
        for copied in (copy.deepcopy(mapping), pickle.loads(pickle.dumps(same))):
            assert copied == same and hash(copied) == hash(same)
            assert not copied.as_array().flags.writeable
            with pytest.raises(FrozenInstanceError):
                copied.processors = 5
        built = (
            mapping,
            same,
            Mapping(np.array([3, 0, 2, 1], dtype=np.int32), 4),
            copy.deepcopy(same),
        )
        assert len(set(built)) == 1
        assert {key: index for index, key in enumerate(built)} == {same: 3}
        assert Mapping((3, 0, 2, 1), 5) not in set(built)
        for built_mapping in built:
            assert type(built_mapping.processor_of(0)) is int
            assert all(type(p) is int for p in built_mapping.assignment)
            assert repr(built_mapping) == (
                "Mapping(assignment=(3, 0, 2, 1), processors=4)"
            )
        # Entries must be integers: whole-number floats are taken as their
        # integers, a fraction or a value beyond int64 is a MappingError
        # (the tuple form once kept 0.5 silently).
        assert Mapping((3.0, 0, 2, 1), 4) == same
        with pytest.raises(MappingError) as caught:
            Mapping((1, 0.5), 2)
        assert str(caught.value) == "thread 1 mapped to non-integer processor 0.5"
        for values in ((0.5, 1), [0, 2**63], [0, 2**64], [-(2**63) - 1, 0]):
            with pytest.raises(MappingError):
                Mapping(values, 2)

    def test_from_array_rejects_what_the_tuple_form_rejects(self):
        for values, processors in (([], 4), ([0], 0), ([[0, 1]], 2)):
            with pytest.raises(MappingError):
                Mapping(np.array(values, dtype=np.int64), processors)

    def test_from_sequence_coerces_ints(self):
        mapping = Mapping([0.0, 1.0], processors=2)
        assert mapping.assignment == (0, 1)


class TestIntrospection:
    @pytest.fixture
    def collocated(self):
        return Mapping(assignment=(0, 0, 1, 1), processors=2)

    def test_threads_count(self, collocated):
        assert collocated.threads == 4

    def test_processor_of(self, collocated):
        assert collocated.processor_of(2) == 1

    def test_processor_of_rejects_bad_thread(self, collocated):
        with pytest.raises(MappingError):
            collocated.processor_of(4)

    def test_bijectivity_detection(self, collocated):
        assert not collocated.is_bijective
        assert Mapping(assignment=(1, 0), processors=2).is_bijective
        # As many threads as processors, one processor used twice; and
        # too few threads to cover every processor.
        for values, processors in (([0, 2, 2], 3), ([0, 1], 3)):
            assert not Mapping(tuple(values), processors).is_bijective
            assert not Mapping(np.array(values), processors).is_bijective
        assert Mapping(np.array([2, 0, 1]), 3).is_bijective

    def test_require_bijective(self, collocated):
        with pytest.raises(MappingError):
            collocated.require_bijective()
        bijection = Mapping(assignment=(1, 0), processors=2)
        assert bijection.require_bijective() is bijection
