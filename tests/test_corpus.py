"""The verdicts on the fixed corpus of `corpus.py` against their recording."""

import corpus


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
