"""The one integer-point reader, errors._point, against the reader it
replaced (chains._vec, kept as test_kernel_sweep.oracle_vec).

On integer input, Python or numpy, small, near +-2^62 or past 2^63, of
dimension 1-4 and spelled as an int, a tuple, a list or a 1-D array, both
read the same tuple; the reader's entries are Python ints, so reprs and
digests do not depend on the spelling. Anything else is a named error
where the oracle truncated or took a bool as an integer. The suite is
deterministic (derandomize=True) with a bounded number of examples.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtforest.errors import BadDimension, ConfigError, _is_int, _point
from test_kernel_sweep import oracle_vec

SUITE = settings(derandomize=True, max_examples=400, deadline=None, database=None)

NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
EDGES = [0, 1, -1, 2**62, -2**62, 2**62 + 1, 2**63 - 1, -2**63, 2**63, -2**63 - 1, 2**64, -3**50]


@st.composite
def spelled_points(draw):
    """(v, d, coordinates): an integer point and one of its spellings."""
    d = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-300, 300), st.integers(-2**70, 2**70), st.sampled_from(EDGES))
    cs = draw(st.lists(coord, min_size=d, max_size=d))
    kinds = ["tuple", "list", "object array"]
    fits = [t for t in NUMPY_INTS if all(np.iinfo(t).min <= c <= np.iinfo(t).max for c in cs)]
    if fits:
        kinds += ["numpy tuple", "numpy array"]
    if d == 1:
        kinds += ["int"] + (["numpy int"] if fits else [])
    kind = draw(st.sampled_from(kinds))
    t = draw(st.sampled_from(fits)) if fits else None
    v = {
        "tuple": lambda: tuple(cs),
        "list": lambda: list(cs),
        "object array": lambda: np.array(cs, dtype=object),
        "numpy tuple": lambda: tuple(map(t, cs)),
        "numpy array": lambda: np.array(cs, dtype=t),
        "int": lambda: cs[0],
        "numpy int": lambda: t(cs[0]),
    }[kind]()
    return v, d, tuple(cs)


@SUITE
@given(spelled_points())
@example((np.int64(-2**63), 1, (-2**63,)))
@example(((np.uint64(2**64 - 1), np.int8(-128)), 2, (2**64 - 1, -128)))
@example(([2**62, -2**62, 2**63], 3, (2**62, -2**62, 2**63)))
@example((np.array([-2**63 - 1, 0, 2**70, 1], dtype=object), 4, (-2**63 - 1, 0, 2**70, 1)))
def test_reader_equals_the_int_oracle_on_integers(case):
    v, d, cs = case
    got = _point("v", v, d)
    assert got == oracle_vec(v, d) == cs
    assert all(type(c) is int for c in got) and repr(got) == repr(cs)
    assert _point("v", v) == got  # no length asked for


@pytest.mark.parametrize("v", [
    2.0, 2.7, (1, 2.0), [np.float64(3)], True, (1, np.True_), "12", ("1",), None, (None,),
    Fraction(2), (1, (2,)), np.array(3), np.array([[1, 2]]), np.array([1.0]), {1}, range(2),
])
def test_reader_names_what_is_not_an_integer_point(v):
    with pytest.raises(ConfigError, match=r"^v must be an integer or a sequence of integers, got "):
        _point("v", v)


@pytest.mark.parametrize("v, d, n", [((1, 2), 3, 2), (5, 2, 1), ([1, 2, 3], 1, 3), ((), 1, 0)])
def test_reader_names_a_point_of_another_length(v, d, n):
    message = rf"^x .* has {n} coordinates; the lattice has dimension {d}$"
    with pytest.raises(BadDimension, match=message):
        _point("x", v, d)


def test_integers_exclude_bools():
    assert all(map(_is_int, [0, -1, 2**70, np.int8(1), np.uint64(2**64 - 1)]))
    assert not any(map(_is_int, [True, np.True_, 1.0, np.float32(1), "1", None, Fraction(1)]))
