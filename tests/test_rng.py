"""Per-step substream keys against numpy's own SeedSequence derivation."""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oclopt.rng import _step_key, step_streams, substream


def reference(seed, *path):
    ss = np.random.SeedSequence(seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


seeds = st.sampled_from([0, 2**32 - 1, 2**32, 2**128]) | st.integers(0, 2**130)
purposes = st.integers(0, 8) | st.sampled_from([2**32, 2**40])
steps = st.sampled_from([0, 1023, 1024, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, purpose=purposes, t=steps, other=steps)
@example(seed=0, purpose=0, t=1, other=1025)
def test_step_keys_equal_seedsequence(seed, purpose, t, other):
    # two steps of one purpose, possibly in different cached blocks
    for step in (t, other):
        want = np.random.SeedSequence(seed, spawn_key=(purpose, step)).generate_state(
            2, np.uint64)
        np.testing.assert_array_equal(_step_key(seed, purpose, step), want)


@pytest.mark.parametrize("path", [(3,), (6,), (0, 2**32), (0, 5, 7)])
def test_other_paths_equal_seedsequence(path):
    np.testing.assert_equal(substream(11, *path).bit_generator.state,
                            reference(11, *path).bit_generator.state)


@pytest.mark.parametrize("seed, path", [(-1, (0, 1)), (0, (-1, 1)), (0, (0, -1))])
def test_negative_values_raise(seed, path):
    with pytest.raises(ValueError):
        substream(seed, *path)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, purpose=st.integers(0, 8),
       first=st.sampled_from([0, 1, 1020, 2**32 - 3]) | st.integers(0, 2**32 - 1),
       count=st.integers(1, 12))
def test_step_streams_start_where_substream_starts(seed, purpose, first, count):
    # the block crossing 2**32 leaves the key table for substream's own path
    for t, g in zip(range(first, first + count), step_streams(seed, purpose, first,
                                                              first + count)):
        np.testing.assert_equal(g.bit_generator.state,
                                substream(seed, purpose, t).bit_generator.state)
        assert g.random(3).tobytes() == reference(seed, purpose, t).random(3).tobytes()


def test_step_generators_spawn_like_seedsequence_generators():
    (child,) = substream(3, 0, 5).spawn(1)
    (want,) = reference(3, 0, 5).spawn(1)
    assert child.random(2).tobytes() == want.random(2).tobytes()
