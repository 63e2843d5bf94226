"""Tests for the Mapping abstraction."""

import pickle

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
            lambda: Mapping.from_array(np.array(assignment), 100_000),
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
        mapping = Mapping.from_array(values, processors=4)
        same = Mapping(assignment=(3, 0, 2, 1), processors=4)
        # The kept array stays out of equality, hashing and repr.
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

    def test_from_array_rejects_what_the_tuple_form_rejects(self):
        for values, processors in (([], 4), ([0], 0), ([[0, 1]], 2)):
            with pytest.raises(MappingError):
                Mapping.from_array(np.array(values, dtype=np.int64), processors)

    def test_from_sequence_coerces_ints(self):
        mapping = Mapping.from_sequence([0.0, 1.0], processors=2)
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

    def test_threads_on(self, collocated):
        assert collocated.threads_on(0) == [0, 1]

    def test_threads_on_rejects_bad_processor(self, collocated):
        with pytest.raises(MappingError):
            collocated.threads_on(2)

    def test_load(self, collocated):
        assert collocated.load() == {0: 2, 1: 2}

    def test_bijectivity_detection(self, collocated):
        assert not collocated.is_bijective
        assert Mapping(assignment=(1, 0), processors=2).is_bijective
        # As many threads as processors, one processor used twice; and
        # too few threads to cover every processor.
        for values, processors in (([0, 2, 2], 3), ([0, 1], 3)):
            assert not Mapping(tuple(values), processors).is_bijective
            assert not Mapping.from_array(np.array(values), processors).is_bijective
        assert Mapping.from_array(np.array([2, 0, 1]), 3).is_bijective

    def test_require_bijective(self, collocated):
        with pytest.raises(MappingError):
            collocated.require_bijective()
        bijection = Mapping(assignment=(1, 0), processors=2)
        assert bijection.require_bijective() is bijection


class TestTransformation:
    def test_compose_applies_permutation(self):
        mapping = Mapping(assignment=(0, 1, 2), processors=3)
        rotate = Mapping(assignment=(1, 2, 0), processors=3)
        assert mapping.compose(rotate).assignment == (1, 2, 0)

    def test_compose_requires_bijection(self):
        mapping = Mapping(assignment=(0, 1), processors=2)
        squash = Mapping(assignment=(0, 0), processors=2)
        with pytest.raises(MappingError):
            mapping.compose(squash)

    def test_compose_requires_matching_sizes(self):
        mapping = Mapping(assignment=(0, 1, 2), processors=3)
        small = Mapping(assignment=(1, 0), processors=2)
        with pytest.raises(MappingError):
            mapping.compose(small)

    def test_swapped(self):
        mapping = Mapping(assignment=(0, 1, 2), processors=3)
        swapped = mapping.swapped(0, 2)
        assert swapped.assignment == (2, 1, 0)
        # Original unchanged.
        assert mapping.assignment == (0, 1, 2)

    def test_swapped_same_thread_is_identity(self):
        mapping = Mapping(assignment=(0, 1), processors=2)
        assert mapping.swapped(1, 1) is mapping

    def test_items(self):
        mapping = Mapping(assignment=(2, 0), processors=3)
        assert list(mapping.items()) == [(0, 2), (1, 0)]
