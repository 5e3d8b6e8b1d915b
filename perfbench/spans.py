"""Per-layer spans timed from outside the package.

``install`` replaces module attributes that callers resolve at call time
with timing wrappers.  The package's modules hold their own bound copies
of some functions (``harness.dispersive_sup``, ``ons._frac_product``, ...),
so each copy is wrapped where it is looked up.  ``numpy.fft.*`` and
``numpy.linalg.{eigh,svd,qr}`` are looked up through ``np.`` at call time,
so wrapping the attributes of those two numpy modules catches every call
the package makes.

Each thread keeps its own span stack, so the spans of cells running on the
harness thread pool nest correctly.  A span's self time is its duration
minus the durations of its direct child spans.  Spans are kept in memory
and only summarised and written out after the workload ends.

Importing this module changes nothing; only ``install`` patches.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np

_perf = time.perf_counter

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft")
LINALG_FUNCS = ("eigh", "svd", "qr")
MAX_COUNTERS = frozenset({"harness.flow.spectral_bytes"})  # max, not sum


class _ThreadState:
    def __init__(self, tid):
        self.tid = tid
        self.stack = []       # open frames: [span id, child seconds]
        self.spans = []       # (id, parent id, name, t0, t1, self seconds)
        self.counts = {}      # counter name -> value


class Tracer:
    """Collects spans and counters from every thread that calls a wrapper."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)   # next() is atomic in CPython

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(threading.get_ident())
                self._states.append(st)
            self._local.st = st
        return st

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span; ``count(counts, args, kwargs, result)``
        may add counters measured at the same boundary."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1][0] if stack else 0
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st.spans.append((frame[0], parent, name, t0, t1,
                                 dur - frame[1]))
            if count is not None:
                count(st.counts, args, kwargs, out)
            return out

        return wrapper

    def counter(self, fn, count):
        """Wrap ``fn`` with a counter only, no span (its time stays in the
        enclosing span's self time)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(tracer._state().counts, args, kwargs, out)
            return out

        return wrapper

    def spans(self):
        return [(st.tid,) + s for st in self._states for s in st.spans]

    def counts(self) -> dict:
        total = {}
        for st in self._states:
            for key, value in st.counts.items():
                if key in MAX_COUNTERS:
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
        return total

    def layer_totals(self) -> dict:
        """name -> (calls, self seconds, span seconds, longest span)."""
        out = {}
        for st in self._states:
            for _, _, name, t0, t1, self_s in st.spans:
                calls, own, total, longest = out.get(name, (0, 0.0, 0.0, 0.0))
                out[name] = (calls + 1, own + self_s, total + (t1 - t0),
                             max(longest, t1 - t0))
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("thread\tid\tparent\tname\tstart\tend\tself_s\n")
            for tid, sid, parent, name, t0, t1, self_s in self.spans():
                fh.write(f"{tid}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t"
                         f"{t1:.9f}\t{self_s:.9f}\n")


# ---------------------------------------------------------------------------
# counters measured at the wrapped boundaries


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_fft(counts, args, kwargs, out):
    a = np.asarray(args[0] if args else kwargs["a"])
    _add(counts, "fft.points", int(a.size))
    _add(counts, "fft.bytes_computed", int(a.nbytes) + int(out.nbytes))


def _linalg_flops(name, a, args, kwargs):
    # dense-cost estimates from the operand shape (Golub & Van Loan
    # operation counts); complex arithmetic counts four real flops each
    m, n = a.shape[-2], a.shape[-1]
    batch = a.size // max(1, m * n)
    k, big = min(m, n), max(m, n)
    if name == "eigh":  # always with eigenvectors
        flops = 9 * n ** 3
    elif name == "svd":
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        flops = (4 * big ** 2 * k + 8 * big * k ** 2 + 9 * k ** 3) if uv \
            else (4 * big * k ** 2 - 4 * k ** 3 / 3)
    else:  # qr: Householder factorization plus forming the reduced Q
        flops = 4 * big * k ** 2 - 4 * k ** 3 / 3
    if a.dtype.kind == "c":
        flops *= 4
    return batch * flops


def _count_linalg(name):
    def count(counts, args, kwargs, out):
        a = np.asarray(args[0] if args else kwargs["a"])
        _add(counts, "linalg.flops_computed",
             int(_linalg_flops(name, a, args, kwargs)))
    return count


def _count_flow(counts, args, kwargs, out):
    # _flow_ratios(geometry, N, coef_rows, theta, time_pts, p, q)
    geometry, coef_rows, time_pts = args[0], args[2], args[4]
    _add(counts, "harness.flow.time_steps", int(time_pts))
    points = 1
    for g in geometry.grid_sizes:
        points *= int(g)
    spectral = int(coef_rows.shape[0]) * points * 16
    key = "harness.flow.spectral_bytes"
    counts[key] = max(counts.get(key, 0), spectral)


def _count_sup(counts, args, kwargs, out):
    _add(counts, "kernels.reports", 1)
    _add(counts, "kernels.refined", int(bool(out.refined)))


def _count_grid(counts, args, kwargs, out):
    # _scaled_kernel_max(N, theta, ts, xs)
    _add(counts, "kernels.grid_evals", len(args[2]) * len(args[3]))


def _count_vdc(counts, args, kwargs, out):
    _add(counts, "kernels.vdc.panels", int(out.panels))


def _count_fixed_point(counts, args, kwargs, out):
    _add(counts, "hartree.fixed_point.iterations", len(out.iterates))


# ---------------------------------------------------------------------------


def _wrap_cells(tracer, driver):
    """Wrap a harness driver so the ``run_cell`` it returns is a span."""
    @functools.wraps(driver)
    def wrapped(echo):
        header, cells, run_cell, finalize = driver(echo)
        return header, cells, tracer.span("harness.cell", run_cell), finalize
    return wrapped


def install(tracer: Tracer) -> None:
    """Wrap the package's layer entry points and numpy's FFT and dense
    linear algebra.  Call once, after ``strichartz_lab`` is imported."""
    from strichartz_lab import (geometry, harness, hartree, kernels, norms,
                                ons, schatten)

    def wrap(modules, attr, name, count=None):
        for mod in modules:
            if hasattr(mod, attr):
                setattr(mod, attr, tracer.span(name, getattr(mod, attr),
                                               count))

    for kind, driver in list(harness._DRIVERS.items()):
        harness._DRIVERS[kind] = _wrap_cells(tracer, driver)
    wrap([harness], "_flow_ratios", "harness.flow", _count_flow)
    everywhere = [geometry, harness, hartree, kernels, norms, ons, schatten]
    wrap(everywhere, "_frac_product", "geometry.frac_product")
    wrap(everywhere, "forward_transform", "geometry.transform")
    wrap(everywhere, "inverse_transform", "geometry.transform")
    for f in FFT_FUNCS:
        wrap([np.fft], f, "fft", _count_fft)
    for f in LINALG_FUNCS:
        wrap([np.linalg], f, "linalg", _count_linalg(f))
    wrap([harness], "dispersive_sup", "kernels.sup", _count_sup)
    kernels._scaled_kernel_max = tracer.counter(kernels._scaled_kernel_max,
                                                _count_grid)
    wrap([harness], "vdc_integral_oracle", "kernels.vdc", _count_vdc)
    wrap([ons], "density_field", "ons.density_field")
    wrap(everywhere, "mixed_norm", "norms.mixed_norm")
    wrap([harness], "evolve", "hartree.evolve")
    wrap([harness, hartree], "split_step", "hartree.split_step")
    wrap([hartree], "hartree_energy", "hartree.energy")
    wrap([hartree], "duhamel_map", "hartree.duhamel")
    wrap([hartree], "_xt_distance", "hartree.distance")
    harness.fixed_point_iterate = tracer.counter(harness.fixed_point_iterate,
                                                 _count_fixed_point)
    wrap(everywhere, "sobolev_schatten_norm", "schatten.sobolev")
    wrap([harness], "duality_check", "schatten.duality")
