"""Property tests of the band-flow stream: ``BandFlow.blocks`` against its
slow twin on drawn geometries, bands, batch shapes and block budgets, fed
arrays or row sources, and ``ons.NormalRows`` against the whole matrix it
hands out.  hypothesis is an optional test dependency."""

import math
from unittest import mock

import numpy as np
import pytest

from strichartz_lab import geometry
from strichartz_lab.geometry import BandFlow, torus, waveguide
from strichartz_lab.harness import _flow_ratios
from strichartz_lab.ons import NormalRows

from oracles import collect_blocks, slow_flow, standard_complex

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def geometries(draw):
    """A torus in 1-3 D or a waveguide in 2-3 D on grids of 8-32 points per
    axis, at most 8192 points, and the largest band index on its axes."""
    sizes = draw(st.lists(st.sampled_from([8, 16, 32]), min_size=1,
                          max_size=3).filter(lambda g: math.prod(g) <= 8192))
    if len(sizes) == 1 or draw(st.booleans()):
        return torus(sizes), max(sizes) // 2
    n_free = draw(st.integers(1, len(sizes) - 1))
    L = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    geom = waveguide(sizes[:n_free], sizes[n_free:], trunc_length=L)
    return geom, max(max(sizes) // 2, math.ceil(max(sizes[:n_free]) / 2 / L))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=geometries(), data=st.data())
def test_blocks_match_slow_twin(case, data):
    # N up to the full band, ragged time blocks and sample chunks: every
    # half and gap of the unshifted layout is written by some pass.  More
    # samples than times streams sample-major, drawing a source's rows
    # chunk by chunk; otherwise time-major.
    geom, top = case
    N = data.draw(st.integers(1, top), label="N")
    samples = data.draw(st.integers(1, 6), label="samples")
    times = data.draw(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4),
                      label="times")
    frame = math.prod(geom.grid_sizes)
    budget = data.draw(st.integers(1, 4 * frame), label="budget")
    flow = BandFlow(geom, N, 2.5)
    seed = len(times) + samples
    rows = standard_complex(np.random.default_rng(seed), samples, flow.size)
    with mock.patch.object(geometry, "_BLOCK_ELEMENTS", budget):
        film = collect_blocks(flow, rows, times)
        drawn = collect_blocks(flow, NormalRows(np.random.default_rng(seed),
                                                samples, flow.size), times)
        # the quotients of an array and of a source of the same rows
        steps = max(2, len(times))
        assert np.array_equal(
            _flow_ratios(geom, N, rows, 2.5, steps, 4.0, 4.0),
            _flow_ratios(geom, N, NormalRows(np.random.default_rng(seed),
                                             samples, flow.size),
                         2.5, steps, 4.0, 4.0))
    assert np.array_equal(drawn, film)
    slow = slow_flow(geom, N, 2.5, rows, times)
    assert np.max(np.abs(film - slow)) < 1e-12 * max(1.0, np.max(np.abs(slow)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 3000),
       cuts=st.lists(st.floats(0.0, 1.0), max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_normal_rows_are_the_whole_draw(rows, cols, cuts, seed):
    # any chunking of the draws hands out the rows of the whole matrix,
    # and the generator ends where the whole draw leaves it
    rng = np.random.default_rng(seed)
    source = NormalRows(rng, rows, cols)
    assert source.shape == (rows, cols)
    ends = sorted({int(c * rows) for c in cuts} | {rows})
    got = np.concatenate([source.draw(b - a)
                          for a, b in zip([0] + ends, ends)])
    oracle = np.random.default_rng(seed)
    assert np.array_equal(got, standard_complex(oracle, rows, cols))
    assert np.array_equal(rng.standard_normal(4), oracle.standard_normal(4))
