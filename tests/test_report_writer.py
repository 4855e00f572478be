"""The CLI report writer against `json`: the same bytes for every report value.

`cli._dumps(x)` must equal `json.dumps(_jsonable(x), indent=2)`, the writer
it replaced (kept in tests/oracles.py), on nested dicts, lists and tuples,
numpy arrays of every shape and dtype, non-finite floats, numpy scalars,
awkward strings and non-str keys.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edmsphere.cli import _dumps, _Rendered
from oracles import _jsonable


def oracle(x) -> str:
    return json.dumps(_jsonable(x), indent=2)


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


def arrays(dtypes, **elements):
    return st.sampled_from(dtypes).flatmap(
        lambda dt: hnp.arrays(dt, SHAPES, elements=hnp.from_dtype(np.dtype(dt), **elements))
    )


FLOAT_DTYPES = [np.float64, np.float32, np.float16, np.longdouble]
ARRAYS = st.one_of(
    arrays(FLOAT_DTYPES, allow_nan=False, allow_infinity=False),  # the row-by-row path
    arrays(FLOAT_DTYPES),                                          # NaN and +-Inf inside
    arrays([np.int64, np.int32, np.uint8]),
    arrays([np.bool_]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
)
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
VALUES = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(deadline=None)
@given(VALUES)
def test_matches_json_of_jsonable(x):
    assert _dumps(x) == oracle(x)


@settings(deadline=None)
@given(VALUES, st.integers(0, 3))
def test_rendered_text_is_reindented(x, depth):
    wrapped, rendered = x, _Rendered(_dumps(x))
    for _ in range(depth):
        wrapped, rendered = {"k": [wrapped]}, {"k": [rendered]}
    assert _dumps(rendered) == _dumps(wrapped)


@pytest.mark.parametrize("x", [
    np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((2, 0, 2)),
    np.array(1.5), np.array([[0.1, -2.5e-17], [3e300, 4.0]]),
    np.array([1.0, np.nan, -np.inf]), float("nan"), float("inf"), -np.inf, np.float32(0.1),
    np.arange(6).reshape(2, 3), np.array([True, False]), np.int8(-3), "é\"\\\n\t",
    {1: "a", "1": "b", None: [], (1, 2): {}, 2.5: ()},
], ids=repr)
def test_examples(x):
    assert _dumps(x) == oracle(x)


@pytest.mark.parametrize("x", [
    1j, np.bool_(True), pytest.param(object(), id="object()"), {1, 2}, np.array([1j]),
    [np.bool_(False)], {"a": b"bytes"},
], ids=repr)  # a bare object's repr holds its address, so it gets a fixed id
def test_unknown_types_raise_type_error(x):
    with pytest.raises(TypeError):
        oracle(x)
    with pytest.raises(TypeError):
        _dumps(x)
