"""Property test of the band-flow stream: ``BandFlow.blocks`` against its
slow twin on drawn geometries, bands, batch shapes and block budgets.
hypothesis is an optional test dependency."""

import math
from unittest import mock

import numpy as np
import pytest

from strichartz_lab import geometry
from strichartz_lab.geometry import BandFlow, torus, waveguide

from oracles import collect_blocks, slow_flow

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
    # half and gap of the unshifted layout is written by some pass
    geom, top = case
    N = data.draw(st.integers(1, top), label="N")
    samples = data.draw(st.integers(1, 4), label="samples")
    times = data.draw(st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4),
                      label="times")
    frame = math.prod(geom.grid_sizes)
    budget = data.draw(st.integers(1, 4 * frame), label="budget")
    flow = BandFlow(geom, N, 2.5)
    rng = np.random.default_rng(len(times) + samples)
    rows = rng.standard_normal((samples, flow.size)) \
        + 1j * rng.standard_normal((samples, flow.size))
    with mock.patch.object(geometry, "_BLOCK_ELEMENTS", budget):
        film = collect_blocks(flow, rows, times)
    slow = slow_flow(geom, N, 2.5, rows, times)
    assert np.max(np.abs(film - slow)) < 1e-12 * max(1.0, np.max(np.abs(slow)))
