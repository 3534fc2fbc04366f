"""Property tests, derandomized so that every run draws the same examples.

A degenerate fit and an undefined compliance are None exactly when the
input leaves nothing to fit; the stacked batch fit, each batch of one
penalty kernel call over many, the epoch pass, the loss terms and
``conv1d_same`` keep the bytes of their references in
``tests/oracles.py``, and ``dense`` those of
the op chain it fuses, as do the linear head and the MSE of the objective;
``backward_pass`` runs the node closures in the order of its frozen walk;
monotonic names map to their features' positions or
are refused; and the config validator accepts a value only when it is
valid and stores it in one canonical form.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from dimlab import autodiff as ad
from dimlab import penalty as pen
from dimlab.errors import ConfigError, DimensionError
from dimlab.models import set_numbers
from oracles import (conv1d_same_reference, dense, fit_batch_reference,
                     loss_terms_reference, topo_order_reference)

# a failing example is reported as found: shrinking a byte-for-byte
# mismatch takes minutes and shows no more than the first example does
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate,
                            Phase.target))

# tie-heavy values on a 1/8 grid, plus wide ones rounded to 3 decimals;
# either way a non-constant column's variance cannot underflow to 0
VALUES = st.one_of(st.integers(-4, 4).map(lambda k: k / 8),
                   st.floats(-1e6, 1e6).map(lambda v: round(v, 3)))


@st.composite
def batches(draw):
    """(preds, X, spec): 0-6 rows, 1-3 columns, some of them constant."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 3))
    columns = []
    for _ in range(d):
        if draw(st.booleans()):
            columns.append([draw(VALUES)] * n)
        else:
            columns.append(draw(st.lists(VALUES, min_size=n, max_size=n)))
    preds = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    X = np.array(columns, dtype=np.float64).reshape(d, n).T
    spec = pen.MonotonicitySpec(draw(st.sets(st.integers(0, d - 1))))
    return preds, X, spec


@PROPERTY
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.lists(VALUES, min_size=n, max_size=n),
                        st.lists(VALUES, min_size=n, max_size=n))))
def test_fit_is_none_exactly_for_short_or_constant_columns(xp):
    x, p = xp
    f = pen.fit_batch(p, np.array(x, dtype=np.float64)[:, None],
                      pen.MonotonicitySpec([0])).features[0]
    b = None if f is None else f.baseline
    assert (b is None) == (len(x) < 2 or len(set(x)) == 1)
    if b is not None:
        assert b.x_var > 0 and math.isfinite(b.slope)


@PROPERTY
@given(batches(), st.sampled_from(pen.BASELINE_MODES))
def test_compliance_is_none_exactly_when_every_feature_is_skipped(batch, mode):
    preds, X, spec = batch
    fit = pen.fit_batch(preds, X, spec, mode)
    c = fit.compliance()
    assert (c is None) == (fit.skipped == spec.indices)
    if c is not None:
        assert 0.0 <= c <= 1.0
    if mode == "frozen":
        assert pen.compliance_score(preds, X, spec) == c


def feature_bits(f):
    """A feature's fit as bytes: its line, ``dx``, violations and
    coefficients; None for a skipped feature."""
    if f is None:
        return None
    b = f.baseline
    return (bits(b.slope), bits(b.intercept), bits(b.x_mean), bits(b.x_var),
            f.dx.tobytes(), f.violations.tobytes(),
            None if f.coeffs is None else f.coeffs.tobytes())


def fit_bits(fit):
    """A batch fit's fields as bytes: per feature its :func:`feature_bits`,
    then the fit's own fields."""
    features = {j: feature_bits(f) for j, f in fit.features.items()}
    out = (fit.batch_size, fit.perm.tobytes(), features, fit.skipped,
           fit.compliance())
    if fit.batch_size:
        out += ({j: bits(v) for j, v in fit.per_feature.items()},
                bits(fit.total))
    return out


def column_values(draw, n, constant):
    return [draw(VALUES)] * n if constant else draw(
        st.lists(VALUES, min_size=n, max_size=n))


@st.composite
def stacked_batches(draw):
    """(preds, X, spec): 0-3 or up to 40 rows, 1-5 columns, tie-heavy,
    wide or constant, X in C, Fortran or strided order, and 0-4 monotonic
    features."""
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 40)))
    d = draw(st.integers(1, 5))
    X = np.array([column_values(draw, n, draw(st.booleans()))
                  for _ in range(d)], dtype=np.float64).reshape(d, n).T
    layout = draw(st.sampled_from(("C", "F", "strided")))
    if layout == "strided":
        wide = np.zeros((n, 2 * d))
        wide[:, ::2] = X
        X = wide[:, ::2]
    else:
        X = np.asarray(X, order=layout)
    preds = np.array(column_values(draw, n, False))
    k = draw(st.integers(0, min(4, d)))
    spec = pen.MonotonicitySpec(draw(st.permutations(range(d)))[:k])
    return preds, X, spec


@PROPERTY
@given(stacked_batches(), st.sampled_from(pen.BASELINE_MODES))
def test_stacked_fit_matches_the_per_feature_reference_byte_for_byte(batch,
                                                                     mode):
    preds, X, spec = batch
    assert (fit_bits(pen.fit_batch(preds, X, spec, mode))
            == fit_bits(fit_batch_reference(preds, X, spec, mode)))


@st.composite
def batch_stacks(draw):
    """(preds (B, N), X (B, N, d), spec): 2-5 batches of 2-12 rows, 1-4
    columns, each of them constant in some batches, and 1-4 monotonic
    features."""
    b, n = draw(st.integers(2, 5)), draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    X = np.array([[column_values(draw, n, draw(st.booleans()))
                   for _ in range(d)] for _ in range(b)]).transpose(0, 2, 1)
    preds = np.array([column_values(draw, n, False) for _ in range(b)])
    spec = pen.MonotonicitySpec(draw(st.permutations(range(d)))[
        :draw(st.integers(1, d))])
    return preds, X.copy(), spec


@PROPERTY
@given(batch_stacks(), st.sampled_from(pen.BASELINE_MODES))
def test_kernel_gives_each_batch_its_reference_fit_byte_for_byte(stack, mode):
    # one kernel call over every batch: each batch's sort, and each of its
    # features' line, dx, violations and coefficients where it has a line
    preds, X, spec = stack
    cols = np.ascontiguousarray(X.transpose(0, 2, 1)[:, spec.columns])
    perm, lines, dx, v, coeffs = pen._fit_stacks(
        preds[:, None], pen.column_stats(cols, mode == "coupled"))
    for b in range(len(preds)):
        ref = fit_batch_reference(preds[b], X[b], spec, mode)
        assert perm[b, 0].tobytes() == ref.perm.tobytes()
        line = pen.Lines._make(field[b] for field in lines).baseline
        got = {j: pen.FeatureFit(line(r), dx[b, r], v[b, r],
                                 None if coeffs is None else coeffs[b, r])
               if lines.fitted[b, r, 0] else None
               for r, j in enumerate(spec.indices)}
        assert ({j: feature_bits(f) for j, f in got.items()}
                == {j: feature_bits(f) for j, f in ref.features.items()})


@st.composite
def epochs(draw):
    """(preds, X, spec, batch size): 1-5 full batches and a short one, 1-4
    columns of which 1-4 are monotonic, and in one batch a monotonic
    column that is constant."""
    size = draw(st.integers(2, 9))
    full = draw(st.integers(1, 5))
    n = full * size + draw(st.integers(1, size - 1))
    d = draw(st.integers(1, 4))
    X = np.array([column_values(draw, n, False) for _ in range(d)]).T.copy()
    preds = np.array(column_values(draw, n, False))
    spec = pen.MonotonicitySpec(draw(st.permutations(range(d)))[
        :draw(st.integers(1, d))])
    start = size * draw(st.integers(0, full))
    j = draw(st.sampled_from(spec.indices))
    X[start:start + size, j] = X[start, j]
    return preds, X, spec, size


@PROPERTY
@given(epochs())
def test_epoch_pass_matches_the_per_batch_reference_totals(epoch):
    # the lambda-0 penalties of an epoch (frozen, in either mode), computed
    # together
    preds, X, spec, size = epoch
    starts = range(0, len(preds), size)
    expected = [bits(fit_batch_reference(preds[s:s + size], X[s:s + size],
                                         spec).total) for s in starts]
    assert [bits(t) for t in pen.epoch_totals(X, preds, spec, size)] == expected


@st.composite
def shuffled_epochs(draw):
    """(preds, X, spec, batch size): 1-6 batches of 2-9 rows, the last one
    maybe shorter (down to 1 row), 1-4 columns of which 0-4 are monotonic,
    each column constant in some batches."""
    size = draw(st.integers(2, 9))
    lengths = [size] * draw(st.integers(1, 6))
    lengths[-1] = draw(st.integers(1, size))
    d = draw(st.integers(1, 4))
    X = np.concatenate([np.array([column_values(draw, m, draw(st.booleans()))
                                  for _ in range(d)]).T for m in lengths])
    preds = np.array(column_values(draw, len(X), False))
    spec = pen.MonotonicitySpec(draw(st.permutations(range(d)))[
        :draw(st.integers(0, d))])
    return preds, X.copy(), spec, size


@PROPERTY
@given(shuffled_epochs(), st.sampled_from(pen.BASELINE_MODES))
def test_column_pass_and_step_fits_match_the_reference_byte_for_byte(epoch,
                                                                      mode):
    # the column pass once per epoch, then each step's prediction half: at
    # lambda > 0 every field of each batch's fit; at lambda 0 the epoch-end
    # totals over the same batches, at the fitted slope in either mode
    preds, X, spec, size = epoch
    starts = range(0, len(preds), size)
    columns = pen.epoch_columns(X, spec, size, mode == "coupled")
    assert len(columns) == len(starts)
    fits = [pen.build_loss_terms(ad.leaf(preds[s:s + size]),
                                 np.zeros(len(preds[s:s + size])),
                                 X[s:s + size], spec, 1.0, mode, c)[1]
            for s, c in zip(starts, columns)]
    for s, fit in zip(starts, fits):
        assert fit_bits(fit) == fit_bits(fit_batch_reference(
            preds[s:s + size], X[s:s + size], spec, mode))
    assert [bits(t) for t in pen.epoch_totals(X, preds, spec, size)] == [
        bits(fit_batch_reference(preds[s:s + size], X[s:s + size],
                                 spec).total) for s in starts]


@st.composite
def loss_batches(draw):
    """(preds, y, X, spec): a batch of :func:`batches` and its targets."""
    preds, X, spec = draw(batches())
    y = np.array(draw(st.lists(VALUES, min_size=len(preds),
                               max_size=len(preds))))
    return preds, y, X, spec


def bits(value):
    return np.float64(value).tobytes()


def loss_terms_bits(build, preds, y, X, spec, lam, mode, weight):
    """The objective's value, the predictions' gradient under the loss
    ``weight * objective``, and the fit's fields, as bytes. At lambda 0,
    where :func:`penalty.build_loss_terms` makes no fit, the fields are
    those of the batch's frozen-mode ``fit_batch``, as training reports
    them."""
    node = ad.leaf(preds, requires_grad=True)
    total, b = build(node, y, X, spec, lam, mode)
    if build is pen.build_loss_terms and lam == 0:
        assert b is None
        b = pen.fit_batch(preds, X, spec)
    ad.backward_pass(ad.sum_all(ad.mul(total, ad.constant([weight]))))
    return (total.value.tobytes(), node.grad.tobytes(), b.batch_size,
            b.skipped, bits(b.total),
            {j: bits(v) for j, v in b.per_feature.items()})


@PROPERTY
@given(loss_batches(), st.floats(1e-3, 10.0), st.floats(-1e3, 1e3))
def test_loss_terms_match_the_op_graph_byte_for_byte(batch, lam, weight):
    # every batch in both modes, at lambda 0 and > 0: a batch that violates
    # its trend is the one that tells the modes' gradients apart; the
    # backward starts from an arbitrary weight on the objective
    preds, y, X, spec = batch
    for mode in pen.BASELINE_MODES:
        for lam_or_0 in (0.0, lam):
            args = (preds, y, X, spec, lam_or_0, mode, weight)
            if len(preds) == 0:
                for build in (pen.build_loss_terms, loss_terms_reference):
                    with pytest.raises(DimensionError,
                                       match="at least one row, got 0"):
                        loss_terms_bits(build, *args)
                continue
            assert (loss_terms_bits(pen.build_loss_terms, *args)
                    == loss_terms_bits(loss_terms_reference, *args))


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_conv1d_same_matches_its_reference_byte_for_byte(batch, length, in_ch,
                                                         out_ch, data):
    # one input and one output channel move the kernel gradient in its last
    # bits (see conv1d_same); test_autodiff bounds that case by rounding
    assume(not in_ch == out_ch == 1)

    def draw(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(VALUES, min_size=size,
                                           max_size=size))).reshape(shape)

    x, k = draw(batch, length, in_ch), draw(out_ch, in_ch, 3)
    b, g = draw(out_ch), draw(batch, length, out_ch)
    nodes = [ad.leaf(v, requires_grad=True) for v in (x, k, b)]
    out = ad.conv1d_same(*nodes)
    ad.backward_pass(ad.sum_all(ad.mul(out, ad.constant(g))))
    got = (out.value, *(n.grad for n in nodes))
    for a, want in zip(got, conv1d_same_reference(x, k, b, g)):
        assert a.shape == want.shape and a.tobytes() == want.tobytes()


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.one_of(st.just(0.0), st.floats(0.01, 0.9)), st.integers(0, 2**32),
       st.data())
def test_dense_matches_its_unfused_chain_byte_for_byte(n, d, units, rate,
                                                       seed, data):
    def draw(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(VALUES, min_size=size,
                                           max_size=size))).reshape(shape)

    h, w, b, g = draw(n, d), draw(d, units), draw(units), draw(n, units)

    def run(layer):
        """The value, the gradients of h, w and b, and the generator's
        state after the layer draws its mask."""
        nodes = [ad.leaf(v, requires_grad=True) for v in (h, w, b)]
        rng = np.random.default_rng(seed)
        out = layer(*nodes, rate, rng)
        ad.backward_pass(ad.sum_all(ad.mul(out, ad.constant(g))))
        arrays = [out.value, *(node.grad for node in nodes)]
        return [(a.shape, a.tobytes()) for a in arrays], rng.bit_generator.state

    assert run(dense) == run(lambda h, w, b, rate, rng: ad.dropout(
        ad.relu(ad.add(ad.matmul(h, w), b)), rate, True, rng))


def draw_array(data, *shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(VALUES, min_size=size,
                                       max_size=size))).reshape(shape)


def value_and_grads(out, nodes, g):
    """``out``'s value and the gradients of ``nodes`` under the loss
    sum(out * g), as (shape, bytes) pairs."""
    ad.backward_pass(ad.sum_all(ad.mul(out, ad.constant(g))))
    return [(a.shape, a.tobytes()) for a in (out.value, *(n.grad for n in nodes))]


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_linear_head_matches_its_unfused_chain_byte_for_byte(n, d, data):
    h, w, b = draw_array(data, n, d), draw_array(data, d, 1), draw_array(data, 1)
    g = draw_array(data, n)

    def run(head):
        nodes = [ad.leaf(v, requires_grad=True) for v in (h, w, b)]
        return value_and_grads(head(*nodes), nodes, g)

    assert run(ad.linear_head) == run(
        lambda h, w, b: ad.reshape(ad.add(ad.matmul(h, w), b), (n,)))


@PROPERTY
@given(st.integers(1, 6), st.floats(-1e3, 1e3), st.data())
def test_mse_matches_its_unfused_chain_byte_for_byte(n, weight, data):
    # the objective at lambda 0 is the MSE alone, whatever the spec
    preds, y = draw_array(data, n), draw_array(data, n)
    X = draw_array(data, n, 2)

    def run(loss):
        node = ad.leaf(preds, requires_grad=True)
        return value_and_grads(loss(node), [node], np.array([weight]))

    for indices in ((), (0,), (0, 1)):
        spec = pen.MonotonicitySpec(indices)
        for mode in pen.BASELINE_MODES:
            assert run(lambda p: pen.build_loss_terms(
                p, y, X, spec, 0.0, mode)[0]) == run(lambda p: ad.scale(
                    ad.sum_all(ad.square(ad.sub(p, ad.constant(y)))), 1.0 / n))


# a DAG step: (op, first parent, second parent), parents taken modulo the
# number of nodes built so far, so that nodes are shared freely
DAG_OPS = {
    "add": ad.add, "sub": ad.sub, "mul": ad.mul,
    "square": lambda a, b: ad.square(a),
    "scale": lambda a, b: ad.scale(a, 0.75),
    "sum": lambda a, b: ad.sum_all(a),  # (1,), broadcast by later ops
}


@st.composite
def dags(draw):
    """Leaves with and without a gradient, then 1-12 op steps over them;
    steps over constants alone make constant subtrees."""
    leaves = draw(st.lists(st.tuples(
        st.booleans(), st.lists(VALUES, min_size=3, max_size=3)),
        min_size=1, max_size=4))
    steps = draw(st.lists(st.tuples(st.sampled_from(sorted(DAG_OPS)),
                                    st.integers(0, 99), st.integers(0, 99)),
                          min_size=1, max_size=12))
    return leaves, steps


def build_dag(recipe):
    leaves, steps = recipe
    nodes = [ad.leaf(np.array(v), requires_grad=r) for r, v in leaves]
    for op, i, j in steps:
        nodes.append(DAG_OPS[op](nodes[i % len(nodes)], nodes[j % len(nodes)]))
    nodes.append(ad.sum_all(nodes[-1]))
    return nodes


@PROPERTY
@given(dags())
def test_backward_pass_runs_closures_in_the_frozen_walk_order(recipe):
    """``backward_pass`` skips the nodes that need no gradient; the nodes
    that carry one keep the order of the walk over every node, so a node
    reached twice sums its gradients in the same order, with the same
    bits."""
    def recorded(nodes):
        """The list each node's backward closure appends its index to."""
        calls = []

        def logged(i, run):
            def closure(g):
                calls.append(i)
                run(g)
            return closure

        for i, node in enumerate(nodes):
            if node._backward is not None:
                node._backward = logged(i, node._backward)
        return calls

    nodes = build_dag(recipe)
    calls = recorded(nodes)
    ad.backward_pass(nodes[-1])

    frozen = build_dag(recipe)
    frozen_calls = recorded(frozen)
    ad._accumulate(frozen[-1], np.ones_like(frozen[-1].value))
    for node in reversed(topo_order_reference(frozen[-1])):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

    assert calls == frozen_calls
    assert ([None if n.grad is None else n.grad.tobytes() for n in nodes]
            == [None if n.grad is None else n.grad.tobytes() for n in frozen])


@PROPERTY
@given(st.lists(st.text(max_size=2), unique=True, max_size=5).flatmap(
    lambda features: st.tuples(st.just(features), st.lists(
        st.sampled_from(features) | st.text(max_size=2)
        if features else st.text(max_size=2), max_size=5))))
def test_of_names_gives_the_positions_of_feature_names_or_refuses(case):
    features, names = case
    if any(name not in features for name in names):
        with pytest.raises(ConfigError):
            pen.MonotonicitySpec.of_names(features, names)
    elif len(set(names)) < len(names):
        with pytest.raises(ConfigError, match="duplicate"):
            pen.MonotonicitySpec.of_names(features, names)
    else:
        spec = pen.MonotonicitySpec.of_names(features, iter(names))
        assert spec.indices == tuple(sorted(map(features.index, names)))


@dataclass(frozen=True)
class Field:
    value: object


def is_count(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool))


SCALARS = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(np.int64),
    st.integers(-3, 3).map(np.int8), st.booleans(),
    st.booleans().map(np.bool_), st.floats(allow_nan=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 2.0, 0.5]),
    st.floats(-3, 3).map(np.float32), st.text(max_size=2), st.none())


def sequences(items):
    """(items, value): ``items`` as a list, a tuple or a generator, or
    (None, a string or a value that is not iterable), since neither is a
    sequence of numbers."""
    kinds = st.sampled_from([list, tuple, lambda xs: (x for x in xs)])
    return st.one_of(
        st.tuples(st.lists(items, max_size=4), kinds).map(
            lambda t: (t[0], t[1](t[0]))),
        st.one_of(st.text(max_size=3), st.integers(-3, 3),
                  st.floats(allow_nan=True), st.none()).map(
            lambda value: (None, value)))


def in_interval(v, interval) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return is_real(v) and (v > lo if interval[0] == "(" else v >= lo) and v < hi


@PROPERTY
@given(SCALARS, st.integers(0, 2))
def test_set_counts_accepts_exactly_the_counts(value, minimum):
    owner = Field(value)
    if is_count(value) and value >= minimum:
        set_numbers(owner, {"value": minimum})
        assert type(owner.value) is int and owner.value == value
    else:
        with pytest.raises(ConfigError):
            set_numbers(owner, {"value": minimum})


@PROPERTY
@given(sequences(SCALARS), st.integers(0, 2))
def test_set_counts_each_accepts_exactly_sequences_of_counts(seq, minimum):
    items, value = seq
    owner = Field(value)
    if items is not None and all(is_count(v) and v >= minimum for v in items):
        set_numbers(owner, {"value": minimum}, each=True)
        assert owner.value == tuple(items)
        assert all(type(v) is int for v in owner.value)
    else:
        with pytest.raises(ConfigError):
            set_numbers(owner, {"value": minimum}, each=True)


@PROPERTY
@given(SCALARS, st.sampled_from(["[0, inf)", "(0, inf)", "[0, 1)", "(0, 1)"]))
def test_set_reals_accepts_exactly_the_numbers_in_the_interval(value, interval):
    owner = Field(value)
    if in_interval(value, interval):
        set_numbers(owner, {"value": interval})
        assert type(owner.value) is float and owner.value == value
    else:
        with pytest.raises(ConfigError):
            set_numbers(owner, {"value": interval})


@PROPERTY
@given(sequences(SCALARS), st.sampled_from(["[0, inf)", "(0, 1)"]))
def test_set_reals_each_accepts_exactly_sequences_in_the_interval(seq,
                                                                  interval):
    items, value = seq
    owner = Field(value)
    if items is not None and all(in_interval(v, interval) for v in items):
        set_numbers(owner, {"value": interval}, each=True)
        assert owner.value == tuple(map(float, items))
        assert all(type(v) is float for v in owner.value)
    else:
        with pytest.raises(ConfigError):
            set_numbers(owner, {"value": interval}, each=True)
