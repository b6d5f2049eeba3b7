"""``parse_readings`` against a per-cell ``float()`` reference.

The reference parses one reading at a time the way the documentation
reads: a serial that ``int()`` refuses is anonymous, a day that is not a
whole number is malformed, a body that ``dict()`` refuses is malformed
and empty, and each cell is ``float(value)`` — NaN, and ``non_numeric``,
where ``float()`` refuses it. The keys are every reading's keys but
``firmware`` in first-seen order, with those named in ``order`` first.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.client import NO_DAY, parse_readings

KEYS = ("a", "b", "c", "d")

cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**6), 10**6),
    st.sampled_from(
        [None, "7.5", [1.0], True, False, math.nan, math.inf, -math.inf, 10**400, "x"]
    ),
)
labels = st.sampled_from(["FW1", "FW2", None, ["unhashable"]])


@st.composite
def reading(draw, keys=None):
    """A reading dict over ``keys`` (else a random subset), firmware at
    any key position."""
    if keys is None:
        keys = draw(st.permutations(KEYS))[: draw(st.integers(0, len(KEYS)))]
    body = {key: draw(cells) for key in keys}
    if draw(st.booleans()):
        body["firmware"] = draw(labels)
    order = draw(st.permutations(list(body)))
    return {key: body[key] for key in order}


@st.composite
def batches(draw):
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):  # one schema: the itemgetter path
        keys = draw(st.permutations(KEYS))[: draw(st.integers(1, len(KEYS)))]
        with_firmware = draw(st.booleans())
        readings = []
        for _ in range(n):
            body = draw(reading(keys))
            if with_firmware:
                body.setdefault("firmware", "FW1")
            else:
                body.pop("firmware", None)
            readings.append(body)
    else:
        readings = draw(
            st.lists(
                st.one_of(reading(), st.sampled_from(["nope", 5, [("a", 1.0)]])),
                min_size=n, max_size=n,
            )
        )
    serials = draw(
        st.lists(st.sampled_from([1, 2, "x", None, 2.0]), min_size=n, max_size=n)
    )
    days = draw(
        st.lists(st.sampled_from([3, 4.0, 4.5, "5", None]), min_size=n, max_size=n)
    )
    order = tuple(draw(st.permutations(KEYS))[: draw(st.integers(0, len(KEYS)))])
    return serials, days, readings, order


def _whole(value) -> int:
    number = int(value)
    if number != value and float(value) != number:
        raise ValueError(value)
    return number


def _reference(serials, days, readings, order):
    n = len(readings)
    anonymous = np.zeros(n, dtype=bool)
    malformed = np.zeros(n, dtype=bool)
    parsed_days = np.full(n, NO_DAY, dtype=np.int64)
    bodies = []
    for i, (serial, day, body) in enumerate(zip(serials, days, readings)):
        try:
            int(serial)
        except (TypeError, ValueError):
            anonymous[i] = malformed[i] = True
        try:
            parsed_days[i] = _whole(day)
        except (TypeError, ValueError):
            malformed[i] = True
        try:
            body = dict(body)
        except (TypeError, ValueError):
            malformed[i] = True
            body = {}
        bodies.append(body)
    seen = list(dict.fromkeys(k for body in bodies for k in body if k != "firmware"))
    keys = [k for k in order if k in seen] + [k for k in seen if k not in order]
    values = np.full((n, len(keys)), math.nan)
    present = np.zeros((n, len(keys)), dtype=bool)
    non_numeric = np.zeros((n, len(keys)), dtype=bool)
    for i, body in enumerate(bodies):
        for j, key in enumerate(keys):
            if key in body:
                present[i, j] = True
                try:
                    values[i, j] = float(body[key])
                except (TypeError, ValueError, OverflowError):
                    non_numeric[i, j] = True
    firmware = [body.get("firmware") for body in bodies]
    return (
        tuple(keys), values, present, non_numeric, malformed, anonymous,
        parsed_days, firmware,
    )


@settings(max_examples=300, deadline=None)
@given(batch=batches())
@example(batch=([1], [3], [{"a": None, "firmware": "FW1"}], ()))
@example(
    batch=(
        [1, 2], [3, 3],
        [{"firmware": "FW1", "a": 10**400}, {"a": 1.0, "firmware": None}],
        ("a",),
    )
)
def test_parse_matches_per_cell_float(batch):
    serials, days, readings, order = batch
    keys, values, present, non_numeric, malformed, anonymous, parsed_days, firmware = (
        _reference(serials, days, readings, order)
    )
    parsed = parse_readings(serials, days, readings, order=order)
    assert parsed.keys == keys
    np.testing.assert_array_equal(parsed.values, values)
    np.testing.assert_array_equal(parsed.present, present)
    if parsed.non_numeric is None:
        assert not non_numeric.any()
    else:
        np.testing.assert_array_equal(parsed.non_numeric, non_numeric)
    np.testing.assert_array_equal(parsed.malformed, malformed)
    np.testing.assert_array_equal(parsed.anonymous, anonymous)
    np.testing.assert_array_equal(parsed.days, parsed_days)
    assert parsed.firmware == firmware
    # the columns ``order`` names come out as the reference gathers them
    names = tuple(k for k in order if k in keys)
    got = parsed.columns(names)
    index = [keys.index(k) for k in names]
    want = tuple(matrix[:, index] for matrix in (values, present, non_numeric))
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert (got[2] is None and not want[2].any()) or np.array_equal(got[2], want[2])
