"""Access structures: thresholds, validation, symplectification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsplab.access import (
    make_explicit,
    make_threshold,
    structure_from_json,
    symplectify,
    symplectify_structure,
    validate,
)
from mmsplab.errors import BadThreshold


def test_threshold_basics():
    fs = make_threshold(2, 1, 3)
    assert fs.is_accept({1, 2}) and fs.is_accept({1, 2, 3})
    assert fs.is_reject({3}) and fs.is_reject(set())
    assert not fs.is_accept({1})
    mat = fs.materialize()
    assert len(mat.accept_sets) == 4   # three pairs + the full set
    assert len(mat.reject_sets) == 4   # empty + three singletons


def test_threshold_full_only():
    fs = make_threshold(3, 1, 3).materialize()
    assert fs.accept_sets == (frozenset({1, 2, 3}),)


def test_bad_threshold():
    with pytest.raises(BadThreshold):
        make_threshold(1, 1, 3)


def test_validate_example1_structure():
    fs = make_explicit(3, [[1, 2], [2, 3], [1, 2, 3]], [[], [1], [2], [3]])
    ok, diag = validate(fs)
    assert ok, diag


def test_validate_intersection():
    fs = make_explicit(1, [[1]], [[], [1]])
    ok, diag = validate(fs)
    assert not ok and any("intersect" in d for d in diag)


def test_validate_non_monotone():
    fs = make_explicit(3, [[1, 2]], [[]])  # missing {1,2,3}
    ok, diag = validate(fs)
    assert not ok and any("monotone" in d for d in diag)


def test_symplectify_examples():
    assert symplectify([1, 2], 3) == frozenset({1, 2, 4, 5})
    assert symplectify([], 3) == frozenset()


def test_symplectify_threshold_structure():
    fs = make_threshold(2, 1, 3)
    sfs = symplectify_structure(fs)
    assert sfs.n == 6
    assert frozenset({1, 2, 4, 5}) in sfs.accept_sets
    assert frozenset({3, 6}) in sfs.reject_sets
    assert sfs.symplectified


def test_materialized_threshold_validates():
    for (r, t, n) in [(2, 1, 3), (3, 2, 4), (3, 1, 5)]:
        ok, diag = validate(make_threshold(r, t, n))
        assert ok, diag


@given(st.integers(1, 5), st.sets(st.integers(1, 5)), st.sets(st.integers(1, 5)))
@settings(max_examples=60, deadline=None)
def test_symplectify_injective_and_monotone(n, a, b):
    a = {x for x in a if x <= n}
    b = {x for x in b if x <= n}
    sa, sb = symplectify(a, n), symplectify(b, n)
    if a != b:
        assert sa != sb
    if a <= b:
        assert sa <= sb


def test_json_round_trip():
    fs = make_threshold(2, 1, 4)
    fs2 = structure_from_json(fs.to_json())
    assert fs2 == fs
    fe = make_explicit(3, [[1, 2], [2, 3], [1, 2, 3]], [[], [1], [2], [3]])
    fe2 = structure_from_json(fe.to_json())
    assert fe2 == fe


def test_symplectified_threshold_membership_needs_no_listing(monkeypatch):
    """For m <= 4 and every r > t >= 0, is_accept and is_reject of a
    symplectified threshold agree with its materialized sets on every subset
    of [2m], with materialize patched to raise."""
    from itertools import chain, combinations

    from mmsplab.access import AccessStructure

    cases = []
    for m in range(1, 5):
        for r in range(1, m + 1):
            for t in range(r):
                fs = symplectify_structure(make_threshold(r, t, m))
                mat = fs.materialize()
                cases.append((fs, set(mat.accept_sets), set(mat.reject_sets)))

    def refuse(self):
        raise AssertionError("membership listed the sets")

    monkeypatch.setattr(AccessStructure, "materialize", refuse)
    for fs, acc, rej in cases:
        ground = range(1, fs.n + 1)
        for s in chain.from_iterable(combinations(ground, k) for k in range(fs.n + 1)):
            s = frozenset(s)
            assert fs.is_accept(s) == (s in acc) and fs.is_reject(s) == (s in rej)
