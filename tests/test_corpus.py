"""The verdicts on the fixed corpus of `corpus.py` against their recording."""

import pytest

import corpus
import helpers
from edmsphere import PROFILES, delta_of, nonnegative_delta, spherical_certificate, support_components, validate_edm
from edmsphere.edm import _delta_blocks
from edmsphere.tolerances import _perron_hypothesis


def test_verdicts_match_the_recording():
    assert corpus.changes(corpus.load(), corpus.digest()) == []


def test_changes_lists_changed_new_and_gone_records():
    old = {"a": {"status": "spherical"}, "b": {"status": "non-spherical"}}
    new = {"a": {"status": "non-spherical"}, "c": {"status": "spherical"}}
    assert corpus.changes(old, new) == [
        'a: {"status": "spherical"} -> {"status": "non-spherical"}',
        'b: {"status": "non-spherical"} -> null',
        'c: null -> {"status": "spherical"}',
    ]
    assert corpus.changes(old, old) == []


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_delta_split_is_the_support_graph_of_snapped_delta(profile):
    # Delta's split is the nonzero pattern of Delta after the sign band; every profile has
    # tol.support below tol.sign / 2, so the support graph at tol.support is the same split
    tol, checked = PROFILES[profile], 0
    for M in [*corpus.inputs().values(), *helpers.strict_noise_compositions()]:
        edm = validate_edm(M, tol)
        if not (edm and spherical_certificate(edm).unit_spherical and _perron_hypothesis(edm.min_offdiagonal, tol)[0]):
            continue
        assert _delta_blocks(edm)[1] == support_components(nonnegative_delta(delta_of(edm), tol), tol)
        checked += 1
    assert checked >= 150
