"""Per-step substream keys against numpy's own SeedSequence derivation."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oclopt.rng import step_streams, substream


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = substream(seed, purpose, t)
    ref = reference(seed, purpose, t)
    np.testing.assert_equal(g.bit_generator.state, ref.bit_generator.state)
    assert g.random(4).tobytes() == ref.random(4).tobytes()
    # two steps of one purpose, drawn interleaved, draw what each draws alone
    a, b = substream(seed, purpose, t), substream(seed, purpose, other)
    mixed = [(a.integers(0, 2**62), b.integers(0, 2**62)) for _ in range(3)]
    alone_a, alone_b = reference(seed, purpose, t), reference(seed, purpose, other)
    assert [x for x, _ in mixed] == [alone_a.integers(0, 2**62) for _ in range(3)]
    assert [y for _, y in mixed] == [alone_b.integers(0, 2**62) for _ in range(3)]


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
