"""Property tests, derandomized so that every run draws the same examples.

A degenerate fit and an undefined compliance are None exactly when the
input leaves nothing to fit, and the config validators accept a value
only when it is valid and store it in one canonical form.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimlab import penalty as pen
from dimlab.errors import ConfigError
from dimlab.models import set_counts, set_reals

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

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
    b = pen.fit_linear_baseline(x, p)
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
    (None, a string), since a string is not a sequence of numbers."""
    kinds = st.sampled_from([list, tuple, lambda xs: (x for x in xs)])
    return st.one_of(
        st.tuples(st.lists(items, max_size=4), kinds).map(
            lambda t: (t[0], t[1](t[0]))),
        st.text(max_size=3).map(lambda text: (None, text)))


def in_interval(v, interval) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return is_real(v) and (v > lo if interval[0] == "(" else v >= lo) and v < hi


@PROPERTY
@given(SCALARS, st.integers(0, 2))
def test_set_counts_accepts_exactly_the_counts(value, minimum):
    owner = Field(value)
    if is_count(value) and value >= minimum:
        set_counts(owner, {"value": minimum})
        assert type(owner.value) is int and owner.value == value
    else:
        with pytest.raises(ConfigError):
            set_counts(owner, {"value": minimum})


@PROPERTY
@given(sequences(SCALARS), st.integers(0, 2))
def test_set_counts_each_accepts_exactly_sequences_of_counts(seq, minimum):
    items, value = seq
    owner = Field(value)
    if items is not None and all(is_count(v) and v >= minimum for v in items):
        set_counts(owner, {"value": minimum}, each=True)
        assert owner.value == tuple(items)
        assert all(type(v) is int for v in owner.value)
    else:
        with pytest.raises(ConfigError):
            set_counts(owner, {"value": minimum}, each=True)


@PROPERTY
@given(SCALARS, st.sampled_from(["[0, inf)", "(0, inf)", "[0, 1)", "(0, 1)"]))
def test_set_reals_accepts_exactly_the_numbers_in_the_interval(value, interval):
    owner = Field(value)
    if in_interval(value, interval):
        set_reals(owner, {"value": interval})
        assert type(owner.value) is float and owner.value == value
    else:
        with pytest.raises(ConfigError):
            set_reals(owner, {"value": interval})


@PROPERTY
@given(sequences(SCALARS), st.sampled_from(["[0, inf)", "(0, 1)"]))
def test_set_reals_each_accepts_exactly_sequences_in_the_interval(seq,
                                                                  interval):
    items, value = seq
    owner = Field(value)
    if items is not None and all(in_interval(v, interval) for v in items):
        set_reals(owner, {"value": interval}, each=True)
        assert owner.value == tuple(map(float, items))
        assert all(type(v) is float for v in owner.value)
    else:
        with pytest.raises(ConfigError):
            set_reals(owner, {"value": interval}, each=True)
