import math

import numpy as np
import pytest

from edmsphere.tolerances import (
    DEFAULT_TOL,
    PROFILES,
    TOL_PROFILE_ENV,
    Tolerances,
    from_profile,
    profile_from_env,
    scale,
)

FIELDS = ["psd", "rank", "cluster", "solve", "unit", "sign", "support", "symmetry", "recon"]


def test_default_values():
    t = DEFAULT_TOL
    assert t.psd == 1e-9
    assert t.rank == 1e-8
    assert t.cluster == 1e-8
    assert t.solve == 1e-8
    assert t.unit == 1e-8
    assert t.sign == 1e-7
    assert t.support == 1e-12
    assert t.symmetry == 1e-12
    assert t.recon == 1e-10


def test_with_overrides_ignores_none():
    t = DEFAULT_TOL.with_overrides(psd=None, sign=1e-5)
    assert t.psd == DEFAULT_TOL.psd
    assert t.sign == 1e-5
    assert DEFAULT_TOL.sign == 1e-7  # original untouched (frozen)


def test_profiles_ordering():
    strict, default, loose = PROFILES["strict"], PROFILES["default"], PROFILES["loose"]
    for f in FIELDS:
        assert getattr(strict, f) < getattr(default, f) < getattr(loose, f)


def test_from_profile_unknown():
    with pytest.raises(ValueError, match="unknown tolerance profile"):
        from_profile("nope")


def test_profile_from_env():
    assert profile_from_env({}) == DEFAULT_TOL
    assert profile_from_env({TOL_PROFILE_ENV: "strict"}) == PROFILES["strict"]
    with pytest.raises(ValueError):
        profile_from_env({TOL_PROFILE_ENV: "bogus"})


def test_scale():
    assert scale(np.zeros((3, 3))) == 1.0
    assert scale(np.array([[0.5, -0.25], [0.1, 0.0]])) == 1.0
    assert scale(np.array([[3.0, -7.0], [1.0, 2.0]])) == 7.0
    assert scale(np.zeros((0, 0))) == 1.0


@pytest.mark.parametrize("shape", [(4, 3, 3), (2, 3, 2, 2), (3, 0, 0), (0, 4, 4), (0, 0, 0)])
def test_scale_of_a_stack_is_each_matrix_scale(shape):
    S = 3.0 * np.random.default_rng(len(shape)).standard_normal(shape)
    got = scale(S)
    assert isinstance(got, np.ndarray) and got.shape == shape[:-2]
    expected = [scale(M) for M in S.reshape((math.prod(shape[:-2]),) + shape[-2:])]
    assert got.ravel().tolist() == expected
    assert all(type(s) is float for s in expected)
