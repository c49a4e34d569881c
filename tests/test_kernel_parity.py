"""Gather, scatter and max-pool kernels against their earlier formulations.

Each kernel was rewritten for speed without changing a bit: ``im2col``
gathers with ``np.take``, ``col2im`` scatters with strided slice-adds, max
pooling keeps a running ``np.maximum``, the compiled plan's conv gather
takes with ``mode="clip"`` and ``Tensor.__getitem__`` slice-adds basic
indices.  The earlier forms live on here, verbatim, as oracles: values
*and* memory layout must match, because GEMM rounding depends on operand
strides.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backend import GraphBuilder, ReferenceExecutor, ops
from repro.nn import functional as F
from repro.nn.functional import (_conv_out_size, _patch_indices, col2im,
                                 im2col, pad2d_const, pool_output_size)
from repro.nn.tensor import Tensor, no_grad

DTYPES = [np.float16, np.float32, np.float64]


# ---------------------------------------------------------------------------
# Oracles: the earlier formulations, copied verbatim
# ---------------------------------------------------------------------------

def old_im2col(x, kh, kw, stride, pad, dilation=1, pad_value=0.0,
               out_hw=None):
    n, c, h, w = x.shape
    if out_hw is None:
        oh = _conv_out_size(h, kh, stride, pad, dilation)
        ow = _conv_out_size(w, kw, stride, pad, dilation)
    else:
        oh, ow = out_hw
    # Pad enough on the right/bottom for ceil-mode windows that overrun.
    need_h = (oh - 1) * stride + dilation * (kh - 1) + 1
    need_w = (ow - 1) * stride + dilation * (kw - 1) + 1
    pad_b = max(0, need_h - (h + pad))
    pad_r = max(0, need_w - (w + pad))
    xp = pad2d_const(x, pad, pad_b, pad, pad_r, pad_value)
    rows, cols = _patch_indices(h, w, kh, kw, stride, dilation, oh, ow)
    patches = xp[:, :, rows, cols]              # (N, C, kh*kw, OH*OW)
    cols_out = patches.reshape(n, c * kh * kw, oh * ow)
    meta = (x.shape, kh, kw, stride, pad, dilation, oh, ow, pad_b, pad_r)
    return cols_out, meta


def old_col2im(cols, meta):
    (n, c, h, w), kh, kw, stride, pad, dilation, oh, ow, pad_b, pad_r = meta
    xp = np.zeros((n, c, h + pad + pad_b, w + pad + pad_r), dtype=cols.dtype)
    rows, rcols = _patch_indices(h, w, kh, kw, stride, dilation, oh, ow)
    patches = cols.reshape(n, c, kh * kw, oh * ow)
    np.add.at(xp, (slice(None), slice(None), rows, rcols), patches)
    return xp[:, :, pad:pad + h, pad:pad + w]


def old_pool_windows(x, k, stride, padding, oh, ow, pad_value):
    n, c, h, w = x.shape
    need_h = (oh - 1) * stride + k
    need_w = (ow - 1) * stride + k
    pad_b = max(0, need_h - (h + padding))
    pad_r = max(0, need_w - (w + padding))
    xp = pad2d_const(x, padding, pad_b, padding, pad_r, pad_value)
    view = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return view[:, :, ::stride, ::stride][:, :, :oh, :ow]


def old_functional_max_pool(x, kernel_size, stride, padding, ceil_mode):
    """The earlier no-grad path of ``F.max_pool2d``."""
    n, c, h, w = x.shape
    oh = pool_output_size(h, kernel_size, stride, padding, ceil_mode)
    ow = pool_output_size(w, kernel_size, stride, padding, ceil_mode)
    view = old_pool_windows(x, kernel_size, stride, padding, oh, ow, -np.inf)
    return view.max(axis=(-2, -1))


def old_pool2d(x, kernel_size, stride, padding, ceil_mode, reduce_fn,
               pad_value):
    n, c, h, w = x.shape
    oh = pool_output_size(h, kernel_size, stride, padding, ceil_mode)
    ow = pool_output_size(w, kernel_size, stride, padding, ceil_mode)
    # Pad enough on the right/bottom for ceil-mode windows that run off-edge.
    need_h = (oh - 1) * stride + kernel_size
    need_w = (ow - 1) * stride + kernel_size
    pad_r = max(need_h - h - padding, padding)
    pad_c = max(need_w - w - padding, padding)
    xp = pad2d_const(x, padding, pad_r, padding, pad_c, pad_value)
    view = np.lib.stride_tricks.sliding_window_view(
        xp, (kernel_size, kernel_size), axis=(2, 3))
    view = view[:, :, ::stride, ::stride][:, :, :oh, :ow]
    return reduce_fn(view, axis=(-2, -1))


def old_ops_max_pool(x, kernel_size, stride, padding, ceil_mode=False):
    return old_pool2d(x, kernel_size, stride, padding, ceil_mode, np.max,
                      -np.inf)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def unfold_cases(draw):
    """A valid (x, kh, kw, stride, pad, dilation, out_hw) geometry."""
    k = draw(st.sampled_from([1, 2, 3, 5, 7]))
    kw = draw(st.sampled_from([k, 1, 3]))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 3))
    dilation = draw(st.integers(1, 2))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    out_hw = None
    if draw(st.booleans()) and dilation == 1:
        # Pooling's ceil-mode extent: windows may overrun the right edge.
        out_hw = (pool_output_size(h, k, stride, pad, True),
                  pool_output_size(w, kw, stride, pad, True))
        assume(min(out_hw) >= 1)
    else:
        assume(_conv_out_size(h, k, stride, pad, dilation) >= 1)
        assume(_conv_out_size(w, kw, stride, pad, dilation) >= 1)
    dtype = draw(st.sampled_from(DTYPES))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x = np.random.default_rng(seed).normal(size=(n, c, h, w)).astype(dtype)
    return x, k, kw, stride, pad, dilation, out_hw


@st.composite
def pool_cases(draw):
    k = draw(st.integers(1, 4))
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, k // 2))
    ceil = draw(st.booleans())
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    h, w = draw(st.integers(k, 12)), draw(st.integers(k, 12))
    dtype = draw(st.sampled_from(DTYPES))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x = np.random.default_rng(seed).normal(size=(n, c, h, w)).astype(dtype)
    return x, k, stride, pad, ceil


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

class TestIm2col:
    @settings(max_examples=150, deadline=None)
    @given(case=unfold_cases(),
           pad_value=st.sampled_from([0.0, np.nan, -np.inf]))
    def test_values_and_strides_match_fancy_gather(self, case, pad_value):
        x, kh, kw, stride, pad, dilation, out_hw = case
        got, meta = im2col(x, kh, kw, stride, pad, dilation,
                           pad_value=pad_value, out_hw=out_hw)
        want, want_meta = old_im2col(x, kh, kw, stride, pad, dilation,
                                     pad_value=pad_value, out_hw=out_hw)
        assert meta == want_meta
        assert got.strides == want.strides
        assert_same_bytes(got, want)

    def test_multichannel_k3_is_c_contiguous(self):
        x = np.random.default_rng(0).normal(size=(4, 3, 8, 8))
        cols, _ = im2col(x, 3, 3, 1, 1)
        assert cols.flags.c_contiguous


class TestCol2im:
    @settings(max_examples=150, deadline=None)
    @given(case=unfold_cases())
    def test_bytes_match_add_at(self, case):
        x, kh, kw, stride, pad, dilation, out_hw = case
        _, meta = im2col(x, kh, kw, stride, pad, dilation, out_hw=out_hw)
        (n, c, _, _), oh, ow = meta[0], meta[6], meta[7]
        rng = np.random.default_rng(x.size)
        g = rng.normal(size=(n, c * kh * kw, oh * ow)).astype(x.dtype)
        assert_same_bytes(col2im(g, meta), old_col2im(g, meta))

    def test_non_contiguous_columns(self):
        """Backward passes hand col2im einsum outputs of any layout."""
        rng = np.random.default_rng(1)
        _, meta = im2col(rng.normal(size=(2, 3, 9, 9)), 3, 3, 1, 1)
        g = rng.normal(size=(81, 2, 27)).transpose(1, 2, 0)
        assert_same_bytes(col2im(g, meta), old_col2im(g, meta))


# ---------------------------------------------------------------------------
# Max pooling, module (no-grad) and backend paths
# ---------------------------------------------------------------------------

class TestMaxPool:
    @settings(max_examples=150, deadline=None)
    @given(case=pool_cases(), relu=st.booleans())
    def test_bytes_match_window_reduction(self, case, relu):
        # Normal draws carry no ±0 ties; ReLU outputs carry only +0.0.
        x, k, stride, pad, ceil = case
        if relu:
            x = np.maximum(x, 0)
        xt = Tensor(x)                      # the module path's own dtype
        with no_grad():
            got = F.max_pool2d(xt, k, stride, pad, ceil_mode=ceil).data
        assert_same_bytes(got, old_functional_max_pool(xt.data, k, stride,
                                                       pad, ceil))
        assert_same_bytes(ops.max_pool2d(x, k, stride, pad, ceil),
                          old_ops_max_pool(x, k, stride, pad, ceil))

    @settings(max_examples=100, deadline=None)
    @given(case=pool_cases(), data=st.data())
    def test_nan_placement_matches(self, case, data):
        x, k, stride, pad, ceil = case
        flat = x.reshape(-1)
        holes = data.draw(st.lists(st.integers(0, flat.size - 1),
                                   min_size=1, max_size=4))
        flat[holes] = np.nan
        for got, want in (
                (ops.max_pool2d(x, k, stride, pad, ceil),
                 old_ops_max_pool(x, k, stride, pad, ceil)),
                (F.max_pool_windows(
                    x, k, stride, pad,
                    pool_output_size(x.shape[2], k, stride, pad, ceil),
                    pool_output_size(x.shape[3], k, stride, pad, ceil)),
                 old_functional_max_pool(x, k, stride, pad, ceil))):
            assert got.shape == want.shape
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            np.testing.assert_array_equal(got[~np.isnan(got)],
                                          want[~np.isnan(want)])

    def test_result_is_c_contiguous(self):
        x = np.random.default_rng(2).normal(size=(2, 3, 9, 9))
        assert ops.max_pool2d(x, 3, 2, 1, True).flags.c_contiguous


# ---------------------------------------------------------------------------
# Compiled plan conv gather
# ---------------------------------------------------------------------------

@st.composite
def conv_graphs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    groups = draw(st.sampled_from([1, 2]))
    cin = groups * draw(st.integers(1, 3))
    cout = groups * draw(st.integers(1, 3))
    k = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.integers(1, 2))
    pad = draw(st.integers(0, k // 2))
    dilation = draw(st.integers(1, 2))
    hw = draw(st.integers(dilation * (k - 1) + 1, 10))
    b = GraphBuilder("conv")
    w = b.add_initializer("w", rng.normal(size=(cout, cin // groups, k, k)))
    y = b.emit("conv2d", ["x", w], attrs=dict(
        stride=stride, padding=pad, dilation=dilation, groups=groups))
    x = rng.normal(size=(draw(st.integers(1, 3)), cin, hw, hw))
    return b.finish(y), x


class TestPlanGather:
    @settings(max_examples=60, deadline=None)
    @given(case=conv_graphs())
    def test_clip_take_matches_buffered_take(self, case):
        g, x = case
        got = ReferenceExecutor().compile(g).run(x)
        take = np.take

        def raising_take(*args, **kwargs):        # the earlier buffered form
            kwargs.pop("mode", None)
            return take(*args, **kwargs)

        with mock.patch.object(np, "take", raising_take):
            want = ReferenceExecutor().compile(g).run(x)
        assert_same_bytes(got, want)
        assert_same_bytes(got, ReferenceExecutor().run(g, x))

    def test_single_input_channel_matches_interpreter(self):
        """One input channel makes im2col's gather a strided view whose
        GEMM rounds differently from a contiguous copy; the plan must
        feed the GEMM that same view."""
        rng = np.random.default_rng(0)
        b = GraphBuilder("c1")
        w = b.add_initializer("w", rng.normal(size=(1, 1, 3, 3)))
        g = b.finish(b.emit("conv2d", ["x", w], attrs=dict(
            stride=1, padding=0, dilation=1, groups=1)))
        x = rng.normal(size=(3, 1, 5, 5))
        assert_same_bytes(ReferenceExecutor().compile(g).run(x),
                          ReferenceExecutor().run(g, x))


# ---------------------------------------------------------------------------
# Tensor.__getitem__ backward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("idx", [
    0, -1, slice(1, 3), slice(None, None, 2), (slice(None), 0),
    (Ellipsis, 1), (0, slice(None), None), np.int64(2), (1, -1, 0),
    [0, 0, 2], np.array([1, 1]), (slice(None), np.array([0, 2, 0])),
])
def test_getitem_backward_matches_add_at(idx):
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
    y = x[idx]
    g = rng.normal(size=y.shape)
    y.backward(g)
    want = np.zeros_like(x.data)
    np.add.at(want, idx, g)
    assert_same_bytes(x.grad, want)
