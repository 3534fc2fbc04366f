import os
import threading
import time
import warnings

import numpy as np
import pytest

from dimlab import autodiff as ad
from dimlab import penalty as pen
from dimlab.errors import DimensionError, ParameterError
from oracles import (conv1d_same_reference, dense, gradient_check,
                     row_products_sum_reference)


# ---------------------------------------------------------------- oracles

def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv1d_oracle(x, kernels, bias):
    batch, length, in_ch = x.shape
    out_ch = kernels.shape[0]
    out = np.zeros((batch, length, out_ch))
    for b in range(batch):
        for t in range(length):
            for o in range(out_ch):
                acc = bias[o]
                for k in range(3):
                    s = t + k - 1
                    if 0 <= s < length:
                        for c in range(in_ch):
                            acc += x[b, s, c] * kernels[o, c, k]
                out[b, t, o] = acc
    return out


def fd_grad(f, x, h=1e-6):
    # central differences, one coordinate at a time
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        up = flat.copy()
        dn = flat.copy()
        up[i] += h
        dn[i] -= h
        gf[i] = (f(up.reshape(x.shape)) - f(dn.reshape(x.shape))) / (2 * h)
    return g


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    a = ad.leaf([[1.0, 0.0], [0.0, 1.0]])
    b = ad.leaf([[3.0], [4.0]])
    assert np.array_equal(ad.matmul(a, b).value, [[3.0], [4.0]])


def test_matmul_dot():
    out = ad.matmul(ad.leaf([[1.0, 2.0]]), ad.leaf([[3.0], [4.0]]))
    assert np.array_equal(out.value, [[11.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = ad.matmul(ad.leaf(a), ad.leaf(b)).value
    assert np.max(np.abs(got - matmul_oracle(a, b))) <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((2, 3))))


def test_matmul_backward():
    rng = np.random.default_rng(1)
    a_val = rng.normal(size=(3, 4))
    b_val = rng.normal(size=(4, 2))
    a = ad.leaf(a_val, requires_grad=True)
    b = ad.leaf(b_val, requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.matmul(a, b)))

    ga = fd_grad(lambda v: (v @ b_val).sum(), a_val)
    gb = fd_grad(lambda v: (a_val @ v).sum(), b_val)
    assert np.max(np.abs(a.grad - ga)) < 1e-6
    assert np.max(np.abs(b.grad - gb)) < 1e-6


# ---------------------------------------------------------------- relu

def test_relu_sign_cases():
    out = ad.relu(ad.leaf([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.value, [0.0, 0.0, 2.0])


def test_relu_identity_on_positives():
    x = np.array([0.5, 1.0, 7.25])
    assert np.array_equal(ad.relu(ad.leaf(x)).value, x)


def test_relu_gradient_is_positivity_indicator():
    x = ad.leaf([-1.0, 2.0], requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_relu_subgradient_zero_at_zero():
    x = ad.leaf([0.0], requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.relu(x)))
    assert x.grad[0] == 0.0


def _masked_cases():
    """(mask, x) pairs over special values and the views relu's backward
    receives: conv1d_same hands it a slice, global_avg_pool a stride-0
    broadcast."""
    rng = np.random.default_rng(21)
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny,
                        -tiny, 5 * tiny, 1.5, -2.5, np.finfo(np.float64).max])
    base = rng.normal(size=(6, 8))
    padded = rng.normal(size=(3, 7, 4))
    yield special > 0, special
    yield rng.random(special.shape) < 0.5, special
    yield rng.random((8, 6)) < 0.5, base.T
    yield rng.random((3, 5, 4)) < 0.5, padded[:, 1:-1, :]
    yield rng.random((3, 5, 4)) < 0.5, np.broadcast_to(
        rng.normal(size=(3, 1, 4)), (3, 5, 4))
    yield rng.random((3, 3)) < 0.5, base[::2, 1:7:2]
    yield np.asarray(True), np.asarray(-0.0)


@pytest.mark.parametrize("mask,x", list(_masked_cases()))
def test_masked_equals_where_byte_for_byte(mask, x):
    got = ad._masked(mask, x)
    want = np.where(mask, x, 0.0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- dense

def _dense_inputs(seed=31, kink=True):
    """A layer's inputs; with ``kink``, a zero row of h and two zero
    biases put pre-activations exactly at relu's kink."""
    rng = np.random.default_rng(seed)
    h, b = rng.normal(size=(7, 5)), rng.normal(size=6)
    if kink:
        h[0], b[:2] = 0.0, 0.0
    return (ad.leaf(h, requires_grad=True),
            ad.leaf(rng.normal(size=(5, 6)), requires_grad=True),
            ad.leaf(b, requires_grad=True))


def _dense_run(layer, rate):
    """Value, gradients of h, w, b and the generator's next draw, for one
    layer built by ``layer`` and a loss that weights every output entry."""
    h, w, b = _dense_inputs()
    rng = np.random.default_rng(5)
    out = layer(h, w, b, rate, rng)
    weights = np.random.default_rng(6).normal(size=out.value.shape)
    ad.backward_pass(ad.sum_all(ad.mul(out, ad.constant(weights))))
    return (out.value, h.grad, w.grad, b.grad, rng.random(4))


def _unfused(h, w, b, rate, rng):
    return ad.dropout(ad.relu(ad.add(ad.matmul(h, w), b)), rate, training=True,
                      rng=rng)


@pytest.mark.parametrize("rate", [0.0, 0.2])
def test_dense_matches_unfused_chain_byte_for_byte(rate):
    fused = _dense_run(dense, rate)
    chain = _dense_run(_unfused, rate)
    for name, got, want in zip(("value", "h", "w", "b", "next draw"),
                               fused, chain):
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("which", ["h", "w", "b"])
@pytest.mark.parametrize("rate", [0.0, 0.2])
def test_dense_gradient_check(which, rate):
    h, w, b = (x.value for x in _dense_inputs(seed=8, kink=False))
    weights = ad.constant(np.random.default_rng(9).normal(size=(7, 6)))

    def loss(p):
        args = {"h": ad.constant(h), "w": ad.constant(w), "b": ad.constant(b)}
        args[which] = p
        out = dense(args["h"], args["w"], args["b"], rate,
                    np.random.default_rng(4))  # one mask for every call
        return ad.sum_all(ad.square(ad.mul(out, weights)))

    point = {"h": h, "w": w, "b": b}[which]
    assert gradient_check(loss, point, step=1e-6) < 1e-6


def test_dense_rejects_bad_shapes_and_rates():
    h, w, b = _dense_inputs()
    with pytest.raises(DimensionError):
        dense(w, w, b, 0.0)
    with pytest.raises(DimensionError):
        dense(h, w, ad.leaf(np.zeros((1, 6))), 0.0)
    with pytest.raises(ParameterError):
        dense(h, w, b, 1.0, np.random.default_rng(0))
    with pytest.raises(ParameterError):
        dense(h, w, b, 0.2)  # dropout needs a generator


# ---------------------------------------------------------------- head, mse

@pytest.mark.parametrize("which", ["h", "w", "b"])
def test_linear_head_gradient_check(which):
    data = np.random.default_rng(10)
    point = {"h": data.normal(size=(5, 3)), "w": data.normal(size=(3, 1)),
             "b": data.normal(size=1)}
    weights = ad.constant(data.normal(size=5))

    def loss(p):
        args = {k: ad.constant(v) for k, v in point.items()}
        args[which] = p
        out = ad.linear_head(args["h"], args["w"], args["b"])
        return ad.sum_all(ad.square(ad.mul(out, weights)))

    assert gradient_check(loss, point[which], step=1e-6) < 1e-6


def mse(preds, y):
    """The training objective at lambda 0, which is the MSE alone."""
    X = np.arange(float(preds.value.size))[:, None]
    return pen.build_loss_terms(preds, y, X, pen.MonotonicitySpec((0,)), 0.0)[0]


def test_mse_gradient_check():
    data = np.random.default_rng(11)
    y = data.normal(size=6)
    err = gradient_check(lambda p: mse(p, y), data.normal(size=6),
                         step=1e-6)
    assert err < 1e-6


def test_scalars_are_shape_one_not_zero_d():
    for x in (2.5, np.float64(2.5), np.array(2.5)):
        assert ad.as_tensor(x).shape == (1,)
    p = ad.leaf([1.0, 2.0], requires_grad=True)
    for node in (ad.sum_all(p), ad.scale(ad.sum_all(p), 2.0),
                 mse(p, np.zeros(2))):
        assert node.value.shape == (1,)


def test_as_tensor_returns_a_float64_c_contiguous_array_as_it_is():
    x = np.arange(6.0).reshape(2, 3)
    assert ad.as_tensor(x) is x
    for other in (x.T, x.astype(np.float32), x[:, ::2]):
        got = ad.as_tensor(other)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, other)


# ---------------------------------------------------------------- conv1d

def _kernel(taps, out_ch=1, in_ch=1):
    k = np.zeros((out_ch, in_ch, 3))
    k[0, 0, :] = taps
    return k


def test_conv1d_identity_kernel():
    x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
    out = ad.conv1d_same(ad.leaf(x), ad.leaf(_kernel([0, 1, 0])),
                         ad.leaf(np.zeros(1)))
    assert np.array_equal(out.value, x)


def test_conv1d_box_filter_zero_padding():
    x = np.ones((1, 4, 1))
    out = ad.conv1d_same(ad.leaf(x), ad.leaf(_kernel([1, 1, 1])),
                         ad.leaf(np.zeros(1)))
    assert np.array_equal(out.value[0, :, 0], [2.0, 3.0, 3.0, 2.0])


def test_conv1d_against_sliding_window():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 3))
    k = rng.normal(size=(4, 3, 3))
    b = rng.normal(size=4)
    got = ad.conv1d_same(ad.leaf(x), ad.leaf(k), ad.leaf(b)).value
    assert np.max(np.abs(got - conv1d_oracle(x, k, b))) <= 1e-12


def test_conv1d_channel_mismatch():
    with pytest.raises(DimensionError):
        ad.conv1d_same(ad.leaf(np.zeros((1, 4, 2))),
                       ad.leaf(np.zeros((1, 3, 3))),
                       ad.leaf(np.zeros(1)))


@pytest.mark.parametrize("x, kernels, bias", [
    ((4, 1), (1, 1, 3), (1,)),
    ((1, 4, 1), (1, 3), (1,)),
    ((1, 4, 1), (1, 1, 2), (1,)),
    ((1, 4, 1), (1, 1, 3), (2,))],
    ids=["input_2d", "kernels_2d", "kernel_width_2", "bias_width"])
def test_conv1d_rejects_bad_shapes(x, kernels, bias):
    with pytest.raises(DimensionError):
        ad.conv1d_same(*(ad.leaf(np.zeros(s)) for s in (x, kernels, bias)))


def test_conv1d_backward_all_parents():
    rng = np.random.default_rng(3)
    x_val = rng.normal(size=(2, 4, 2))
    k_val = rng.normal(size=(3, 2, 3))
    b_val = rng.normal(size=3)
    x = ad.leaf(x_val, requires_grad=True)
    k = ad.leaf(k_val, requires_grad=True)
    b = ad.leaf(b_val, requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.square(ad.conv1d_same(x, k, b))))

    def loss(xv, kv, bv):
        return (conv1d_oracle(xv, kv, bv) ** 2).sum()

    assert np.max(np.abs(x.grad - fd_grad(lambda v: loss(v, k_val, b_val), x_val))) < 1e-6
    assert np.max(np.abs(k.grad - fd_grad(lambda v: loss(x_val, v, b_val), k_val))) < 1e-6
    assert np.max(np.abs(b.grad - fd_grad(lambda v: loss(x_val, k_val, v), b_val))) < 1e-6


# The grid's channel pairs at batch 256, length 4 include the benchmark's
# three cnn1d layers: 1->128, 128->64 and 64->32. Length 1 keeps the kernel
# taps as views and every longer length multiplies by their contiguous copy
# (see conv1d_same), so the grid covers both sides of that branch. conv1d_same
# splits batch rows and output channels into halves (_on_both_cores): batch
# 2 gives one-row halves, odd batches and 3 output channels unequal ones.
# Every case runs split, as on two CPUs, and inline, as on one, whatever
# the host has.
CONV_BATCHES, CONV_LENGTHS = (1, 2, 7, 256), (1, 2, 3, 4, 9)
CONV_CHANNELS = [(c, o) for c in (1, 2, 64, 128) for o in (1, 2, 3, 32, 64, 128)]


def _conv1d_against_reference(batch, length, in_ch, out_ch):
    """The node's (value, x, kernels, bias gradients), split and inline,
    and the reference's, for relu-like inputs with exact zeros and an output gradient holding
    +0.0 and -0.0 entries."""
    rng = np.random.default_rng([batch, length, in_ch, out_ch])
    x = np.maximum(rng.normal(size=(batch, length, in_ch)), 0.0)
    k = rng.normal(size=(out_ch, in_ch, 3))
    b = rng.normal(size=out_ch)
    g = rng.normal(size=(batch, length, out_ch))
    zero = rng.random(g.shape) < 0.2
    g[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    got = []
    for cpus in (2, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_CPUS", cpus)
            nodes = [ad.leaf(v, requires_grad=True) for v in (x, k, b)]
            out = ad.conv1d_same(*nodes)
            ad.backward_pass(ad.sum_all(ad.mul(out, ad.constant(g))))
        got.append((out.value, *(n.grad for n in nodes)))
    return got, conv1d_same_reference(x, k, b, g)


def _same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("length", CONV_LENGTHS)
@pytest.mark.parametrize("batch", CONV_BATCHES)
def test_conv1d_matches_reference_byte_for_byte(batch, length):
    for in_ch, out_ch in CONV_CHANNELS:
        if in_ch == out_ch == 1:
            continue  # test_conv1d_one_channel_kernel_grad_within_rounding
        runs, want = _conv1d_against_reference(batch, length, in_ch, out_ch)
        for cpus, got in zip((2, 1), runs):
            for name, a, b in zip(("value", "x", "kernels", "bias"), got, want):
                assert _same_bytes(a, b), (name, batch, length, in_ch, out_ch, cpus)


@pytest.mark.parametrize("length", CONV_LENGTHS)
@pytest.mark.parametrize("batch", CONV_BATCHES)
def test_conv1d_one_channel_kernel_grad_within_rounding(batch, length):
    """With one input and one output channel numpy sums the contiguous
    window copy with its own accumulators, not in (batch, length) order,
    so the kernel gradient may move in its last bits; the rest is exact."""
    runs, want = _conv1d_against_reference(batch, length, 1, 1)
    for got in runs:
        for i, name in ((0, "value"), (1, "x"), (3, "bias")):
            assert _same_bytes(got[i], want[i]), name
        assert np.allclose(got[2], want[2], rtol=1e-12, atol=0)


@pytest.mark.parametrize("batch, length, in_ch, out_ch", [
    (2, 4, 2, 2), (3, 4, 3, 5), (5, 2, 4, 3), (7, 9, 2, 3), (16, 4, 5, 4)])
def test_kernel_grad_einsum_sums_each_entry_in_row_order(batch, length, in_ch,
                                                         out_ch):
    """The kernel gradient's einsum, on a whole output gradient and on each
    output-channel half, adds each entry's products one row at a time in
    (batch, length) order, as the Python loop does. conv1d_same's split by
    output channel keeps its bytes only because of this."""
    rng = np.random.default_rng([batch, length, in_ch, out_ch])
    # magnitudes 1e-8..1e8, so that another order of the adds moves the sums
    g = rng.normal(size=(batch, length, out_ch)) * 10.0 ** rng.integers(
        -8, 9, size=(batch, length, out_ch))
    g[rng.random(g.shape) < 0.2] = -0.0
    window = rng.normal(size=(batch, length, in_ch))
    window[rng.random(window.shape) < 0.2] = 0.0
    rows_g, rows_p = g.reshape(-1, out_ch), window.reshape(-1, in_ch)
    want = row_products_sum_reference(rows_g, rows_p)
    assert not _same_bytes(row_products_sum_reference(rows_g[::-1], rows_p[::-1]),
                           want), "reversing the rows must move some sum"
    half = out_ch // 2
    for lo, hi in ((0, out_ch), (0, half), (half, out_ch)):
        got = np.einsum("blo,blc->oc", g[:, :, lo:hi], window)
        assert _same_bytes(got, want[lo:hi]), (
            f"np.einsum no longer sums kernel-gradient entries over rows in "
            f"order (channels {lo}:{hi}), so conv1d_same's output-channel "
            f"halves and its reference may part; see conv1d_same")


def _conv1d_bytes():
    """The value and the three gradients of one small conv, as bytes."""
    (split, _), _ = _conv1d_against_reference(8, 4, 3, 4)
    return b"".join(a.tobytes() for a in split)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_conv1d_in_a_forked_child_matches_the_parent(monkeypatch):
    """A child forked after the parent's conv started the helper thread has
    no such thread; conv1d_same must start its own, not queue work to the
    parent's and wait forever."""
    monkeypatch.setattr(ad, "_CPUS", 2)
    parent = _conv1d_bytes()
    assert ad._helper is not None
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
        pid = os.fork()
    if pid == 0:  # the child: write its bytes and leave without cleanup
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as out:
                out.write(_conv1d_bytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    deadline = time.monotonic() + 60
    while not (ended := os.waitpid(pid, os.WNOHANG))[0] and \
            time.monotonic() < deadline:
        time.sleep(0.01)
    if not ended[0]:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        os.close(read_end)
        pytest.fail("the forked child's conv did not finish within 60 s")
    with os.fdopen(read_end, "rb") as child_out:
        child = child_out.read()
    assert os.waitstatus_to_exitcode(ended[1]) == 0
    assert child == parent


def test_on_both_cores_splits_into_halves_on_two_threads(monkeypatch):
    monkeypatch.setattr(ad, "_CPUS", 2)
    seen = []
    ad._on_both_cores(lambda lo, hi: seen.append(
        (lo, hi, threading.get_ident())), 5)
    (lo0, hi0, caller), (lo1, hi1, helper) = sorted(seen)
    assert (lo0, hi0, lo1, hi1) == (0, 2, 2, 5)
    assert caller == threading.get_ident() != helper


@pytest.mark.parametrize("cpus, n", [(2, 1), (2, 0), (1, 5)])
def test_on_both_cores_runs_inline_on_one_cpu_or_one_entry(monkeypatch, cpus, n):
    monkeypatch.setattr(ad, "_CPUS", cpus)
    seen = []
    ad._on_both_cores(lambda lo, hi: seen.append(
        (lo, hi, threading.get_ident())), n)
    assert seen == [(0, n, threading.get_ident())]


@pytest.mark.parametrize("faulty", ["caller", "helper"])
def test_on_both_cores_fault_propagates_after_both_halves_end(monkeypatch,
                                                              faulty):
    """The other half is slow, so a caller that did not wait for it would
    raise before it ends."""
    monkeypatch.setattr(ad, "_CPUS", 2)
    ended = []

    def work(lo, hi):
        half = "caller" if lo == 0 else "helper"
        if half == faulty:
            raise ValueError(half)
        time.sleep(0.1)
        ended.append(half)

    with pytest.raises(ValueError, match=faulty):
        ad._on_both_cores(work, 4)
    assert ended == [{"caller": "helper", "helper": "caller"}[faulty]]
    assert not ad._helper_idle.locked()


def test_on_both_cores_runs_inline_while_another_split_holds_the_helper(
        monkeypatch):
    """A second thread's split does not queue behind the first for the
    helper: it runs whole on its own thread while the first still runs,
    and the next split takes the helper once it is free."""
    monkeypatch.setattr(ad, "_CPUS", 2)
    helper_busy, first_may_end = threading.Event(), threading.Event()

    def first(lo, hi):
        if lo:
            helper_busy.set()
            assert first_may_end.wait(10)

    other = threading.Thread(target=ad._on_both_cores, args=(first, 4))
    other.start()
    assert helper_busy.wait(10)
    seen = []
    ad._on_both_cores(lambda lo, hi: seen.append(
        (lo, hi, threading.get_ident())), 4)
    first_may_end.set()
    other.join(10)
    assert seen == [(0, 4, threading.get_ident())]
    seen.clear()
    ad._on_both_cores(lambda lo, hi: seen.append((lo, hi)), 4)
    assert sorted(seen) == [(0, 2), (2, 4)]


# ---------------------------------------------------------------- pooling

def test_gap_single_position():
    x = np.array([[[3.0, -1.0]]])
    assert np.array_equal(ad.global_avg_pool(ad.leaf(x)).value, [[3.0, -1.0]])


def test_gap_mean():
    x = np.array([[[1.0], [3.0]]])
    assert np.array_equal(ad.global_avg_pool(ad.leaf(x)).value, [[2.0]])


def test_gap_against_sum_over_length():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 7, 2))
    got = ad.global_avg_pool(ad.leaf(x)).value
    assert np.allclose(got, x.sum(axis=1) / 7, atol=1e-15)


@pytest.mark.parametrize("shape", [(2, 3), (1, 0, 2)])
def test_gap_rejects_bad_shapes(shape):
    with pytest.raises(DimensionError):
        ad.global_avg_pool(ad.leaf(np.zeros(shape)))


def test_gap_backward_distributes_over_length():
    x = ad.leaf(np.arange(6.0).reshape(1, 3, 2), requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.global_avg_pool(x)))
    assert np.allclose(x.grad, np.full((1, 3, 2), 1.0 / 3.0))


# ---------------------------------------------------------------- dropout

def test_dropout_eval_identity():
    x = ad.leaf([1.0, 2.0, 3.0])
    out = ad.dropout(x, 0.5, training=False)
    assert np.array_equal(out.value, x.value)


def test_dropout_rate_zero_identity_in_training():
    x = ad.leaf([1.0, 2.0])
    out = ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    assert np.array_equal(out.value, x.value)


def test_dropout_survivor_fraction_and_scale():
    rng = np.random.default_rng(7)
    x = ad.leaf(np.ones(100_000))
    out = ad.dropout(x, 0.2, training=True, rng=rng)
    survivors = out.value[out.value != 0.0]
    assert abs(survivors.size / 100_000 - 0.8) < 0.01
    assert np.all(survivors == 1.25)


def test_dropout_backward_masks_like_forward():
    x = ad.leaf(np.ones(1000), requires_grad=True)
    out = ad.dropout(x, 0.3, training=True, rng=np.random.default_rng(11))
    ad.backward_pass(ad.sum_all(out))
    # gradient is the same mask that scaled the forward values
    assert np.array_equal(x.grad, out.value)


def test_dropout_rate_out_of_range():
    x = ad.leaf([1.0])
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ParameterError):
            ad.dropout(x, bad, training=True, rng=np.random.default_rng(0))


# ---------------------------------------------------------------- gather

def test_gather_identity():
    x = np.arange(6.0).reshape(3, 2)
    out = ad.gather_rows(ad.leaf(x), [0, 1, 2])
    assert np.array_equal(out.value, x)


def test_gather_cyclic_shift():
    x = np.array([[1.0], [2.0], [3.0]])  # rows a, b, c
    out = ad.gather_rows(ad.leaf(x), [2, 0, 1])
    assert np.array_equal(out.value, [[3.0], [1.0], [2.0]])


def test_gather_backward_scatters_ones():
    x = ad.leaf(np.zeros((4, 1)), requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.gather_rows(x, [3, 1, 0, 2])))
    assert np.array_equal(x.grad, np.ones((4, 1)))


def test_gather_backward_routes_through_inverse():
    x = ad.leaf(np.zeros(3), requires_grad=True)
    out = ad.gather_rows(x, [2, 0, 1])
    # weight output rows 0,1,2 by 1,10,100; source rows get them back
    ad.backward_pass(ad.sum_all(ad.mul(out, ad.constant([1.0, 10.0, 100.0]))))
    assert np.array_equal(x.grad, [10.0, 100.0, 1.0])


def test_gather_rejects_non_bijection():
    x = ad.leaf(np.zeros(3))
    for bad in ([0, 0, 1], [0, 1], [0, 1, 3]):
        with pytest.raises(ParameterError, match="not a permutation"):
            ad.gather_rows(x, bad)


# ---------------------------------------------------------------- backward

def test_backward_seed_gradient():
    x = ad.leaf(2.0, requires_grad=True)
    ad.backward_pass(x)
    assert x.grad == 1.0


def test_backward_fanout_accumulation():
    x = ad.leaf(3.0, requires_grad=True)
    ad.backward_pass(ad.add(x, x))
    assert x.grad == 2.0


def test_backward_k_fold_accumulation():
    x = ad.leaf(1.5, requires_grad=True)
    total = x
    for _ in range(6):
        total = ad.add(total, x)
    ad.backward_pass(total)
    assert x.grad == 7.0


def test_backward_shared_gradient_is_not_written_in_place():
    # add hands one gradient array to both parents; the later scale
    # contribution to a must not reach b through it
    a = ad.leaf(np.zeros(3), requires_grad=True)
    b = ad.leaf(np.zeros(3), requires_grad=True)
    ad.backward_pass(ad.add(ad.sum_all(ad.add(a, b)),
                            ad.sum_all(ad.scale(a, 3.0))))
    assert np.array_equal(a.grad, np.full(3, 4.0))
    assert np.array_equal(b.grad, np.ones(3))


def test_backward_leaves_constants_and_unreached_nodes_without_grad():
    x = ad.leaf([1.0, 2.0], requires_grad=True)
    c = ad.constant([3.0, 4.0])
    unused = ad.leaf([5.0], requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.mul(x, c)))
    assert np.array_equal(x.grad, [3.0, 4.0])
    assert c.grad is None and unused.grad is None


def test_backward_rejects_non_scalar_root():
    with pytest.raises(DimensionError, match="scalar root"):
        ad.backward_pass(ad.leaf([1.0, 2.0], requires_grad=True))


def test_backward_relu_network_matches_finite_differences():
    rng = np.random.default_rng(5)
    w_val = rng.normal(size=(4, 3))
    x_val = rng.normal(size=(3, 1))
    w = ad.leaf(w_val, requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.relu(ad.matmul(w, ad.constant(x_val)))))

    g_fd = fd_grad(lambda v: np.maximum(v @ x_val, 0.0).sum(), w_val)
    denom = np.maximum(1e-8, np.abs(w.grad) + np.abs(g_fd))
    assert np.max(np.abs(w.grad - g_fd) / denom) < 1e-6


# ---------------------------------------------------------------- checker

def test_gradient_check_quadratic():
    err = gradient_check(
        lambda p: ad.sum_all(ad.square(p)), np.array([1.0, 2.0]), step=1e-5)
    assert err < 1e-8


def test_gradient_check_linear_is_exact_to_rounding():
    c = ad.constant([3.0, -2.0, 0.5])
    err = gradient_check(
        lambda p: ad.sum_all(ad.mul(p, c)), np.array([1.0, 4.0, -2.0]), step=1e-4)
    assert err < 1e-9


def test_gradient_check_unreached_point_has_zero_gradient():
    c = ad.constant([3.0, -2.0])
    err = gradient_check(lambda p: ad.sum_all(c), np.array([1.0, 4.0]),
                         step=1e-4)
    assert err == 0.0


def test_gradient_check_rejects_bad_step():
    with pytest.raises(ParameterError):
        gradient_check(lambda p: ad.sum_all(p), np.zeros(2), step=0.0)


# ---------------------------------------------------------------- misc ops

def test_adjacent_diff_values_and_grad():
    x = ad.leaf([1.0, 4.0, 2.0, 2.0], requires_grad=True)
    d = ad.adjacent_diff(x)
    assert np.array_equal(d.value, [3.0, -2.0, 0.0])
    ad.backward_pass(ad.sum_all(ad.mul(d, ad.constant([1.0, 10.0, 100.0]))))
    # each interior point enters two differences with opposite signs
    assert np.array_equal(x.grad, [-1.0, 1.0 - 10.0, 10.0 - 100.0, 100.0])


def test_adjacent_diff_rejects_matrix():
    with pytest.raises(DimensionError):
        ad.adjacent_diff(ad.leaf(np.zeros((2, 2))))


def test_broadcast_add_unbroadcasts_gradient():
    a = ad.leaf(np.zeros((3, 2)), requires_grad=True)
    b = ad.leaf(np.zeros((1, 2)), requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.add(a, b)))
    assert np.array_equal(a.grad, np.ones((3, 2)))
    assert np.array_equal(b.grad, np.full((1, 2), 3.0))


def test_scale_and_square_grads():
    x = ad.leaf([2.0, -3.0], requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.scale(ad.square(x), 0.5)))
    assert np.array_equal(x.grad, [2.0, -3.0])


def test_reshape_roundtrips_gradient():
    x = ad.leaf(np.arange(6.0), requires_grad=True)
    ad.backward_pass(ad.sum_all(ad.square(ad.reshape(x, (2, 3)))))
    assert np.array_equal(x.grad, 2.0 * np.arange(6.0))


# ---------------------------------------------------------------- invariants

def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(6)
    x_val = rng.normal(size=(3, 3))
    snapshot = x_val.copy()
    x = ad.leaf(x_val, requires_grad=True)
    y = ad.leaf(rng.normal(size=(3, 3)))
    out = ad.sum_all(ad.relu(ad.add(ad.matmul(x, y), y)))
    ad.backward_pass(out)
    assert np.array_equal(x.value, snapshot)


def test_forward_and_gradients_are_deterministic():
    def run():
        rng = np.random.default_rng(42)
        w = ad.leaf(rng.normal(size=(5, 4)), requires_grad=True)
        x = ad.constant(rng.normal(size=(4, 2)))
        drop = ad.dropout(ad.relu(ad.matmul(w, x)), 0.2, training=True,
                          rng=np.random.default_rng(9))
        ad.backward_pass(ad.sum_all(ad.square(drop)))
        return drop.value.copy(), w.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_finite_forward_on_finite_inputs():
    rng = np.random.default_rng(8)
    x = ad.leaf(rng.normal(size=(2, 6, 1)) * 1e3)
    k = ad.leaf(rng.normal(size=(2, 1, 3)))
    b = ad.leaf(rng.normal(size=2))
    out = ad.global_avg_pool(ad.relu(ad.conv1d_same(x, k, b)))
    assert np.all(np.isfinite(out.value))
