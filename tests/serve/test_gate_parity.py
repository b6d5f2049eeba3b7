"""The batch gate against the per-reading oracle on random batches.

Each example feeds a few batches through ``ReadingGate.admit`` and the
same readings, in the same order, one at a time through
:class:`~tests.serve.gate_oracle.OracleGate`, and requires the same
admitted values, per-reading rules, audit state, counters and snapshot.
"""

from __future__ import annotations

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.client import parse_readings
from repro.obs import get_registry
from repro.serve.ingest import GatePolicy, ReadingGate
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS

from .gate_oracle import OracleGate, batch_readings

VOCABULARY = frozenset({"FW1", "FW2"})
KEYS = (
    "s12_power_on_hours",  # cumulative counters: reset checks
    "s6_data_units_read",
    W_COLUMNS[0],  # daily event counts: negative checks
    B_COLUMNS[0],
    "s2_temperature",
    "extra_field",
)

numbers = st.one_of(
    st.floats(-20, 100, allow_nan=False).map(lambda v: round(v, 1)),
    st.integers(-3, 50),
)
weird = st.sampled_from([math.nan, math.inf, -math.inf, "hot", None, "7.5", [1.0]])


def mostly(common, rare, one_in: int):
    """``rare`` about once in ``one_in`` draws, else ``common``."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == 1 else common)


values = mostly(numbers, weird, 10)
firmware = st.sampled_from(["FW1", "FW2", "NOT_A_FW", ["unhashable"], None])


@st.composite
def dict_readings(draw):
    keys = draw(st.permutations(KEYS))[: draw(st.integers(0, len(KEYS)))]
    reading = {key: draw(values) for key in keys}
    if draw(st.integers(0, 2)):
        reading["firmware"] = draw(firmware)
    # firmware anywhere in the key order, not only last
    order = draw(st.permutations(list(reading)))
    return {key: reading[key] for key in order}


def schema_readings(keys):
    """Readings sharing one key set: the parser's itemgetter path."""
    return st.fixed_dictionaries({key: values for key in keys})


readings = mostly(
    dict_readings(), st.sampled_from(["not-a-dict", 5, [("s2_temperature", 1.0)]]), 6
)
serials = mostly(st.sampled_from([1, 2, 3]), st.sampled_from(["x", 2.0, None]), 6)
days = mostly(st.integers(0, 8), st.sampled_from([3.0, 4.5, "5", None, math.nan]), 6)


@st.composite
def batches(draw):
    if draw(st.booleans()):
        reading = readings
    else:
        keys = draw(st.permutations(KEYS))[: draw(st.integers(1, len(KEYS)))]
        reading = schema_readings(keys)
    item = st.tuples(serials, days, reading)
    return draw(st.lists(item, min_size=1, max_size=12))


policies = st.builds(
    GatePolicy,
    nonfinite=st.sampled_from(["repair", "drop"]),
    negative_events=st.sampled_from(["repair", "drop"]),
    counter_resets=st.sampled_from(["repair", "drop"]),
    quarantine_drive_after=st.sampled_from([None, 2, 3, 20]),
)


def _counters() -> dict:
    return {
        (family["name"], sample["labels"].get("rule")): sample["value"]
        for family in get_registry().dump()
        if family["name"].startswith("serve_readings_")
        for sample in family["samples"]
    }


def _rule(before: dict, after: dict) -> str | None:
    changed = [key for key in after if after[key] != before.get(key, 0.0)]
    for name, rule in changed:
        if name == "serve_readings_quarantined_total":
            return rule
        if name == "serve_readings_skipped_alarmed_total":
            return "alarmed"
    return None


def _normalized(clean: dict) -> dict:
    return {**clean, "firmware": clean.get("firmware")}


def _run_oracle(gate, stream):
    outcomes = []
    for batch in stream:
        admitted, rules = [], {}
        for position, (serial, day, reading) in enumerate(batch):
            before = _counters()
            clean = gate.admit(serial, day, reading)
            if clean is None:
                rules[position] = _rule(before, _counters())
            else:
                admitted.append(_normalized(clean))
        outcomes.append((admitted, rules, json.loads(json.dumps(gate.snapshot()))))
    return outcomes


def _run_batch(gate, stream):
    outcomes = []
    for batch in stream:
        rules: dict = {}
        admitted = gate.admit(parse_readings(*zip(*batch)), rules)
        admitted = [] if admitted is None else batch_readings(admitted)
        outcomes.append((admitted, rules, json.loads(json.dumps(gate.snapshot()))))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(batches(), min_size=1, max_size=4),
    policy=policies,
    alarmed=st.sets(st.sampled_from([1, 2, 3]), max_size=1),
    vocabulary=st.sampled_from([None, VOCABULARY]),
)
# every cell a one-element sequence: numpy would read the run as 3-D
@example(
    stream=[[(1, 1, {"s2_temperature": [1.0]})]],
    policy=GatePolicy(),
    alarmed=set(),
    vocabulary=None,
)
def test_batch_gate_matches_per_reading_oracle(stream, policy, alarmed, vocabulary):
    def kwargs():
        return dict(
            policy=policy,
            is_alarmed=lambda serial: serial in alarmed,
            firmware_vocabulary=vocabulary,
        )

    get_registry().reset()
    oracle = OracleGate(**kwargs())
    expected = _run_oracle(oracle, stream)
    expected_counters = _counters()

    get_registry().reset()
    gate = ReadingGate(**kwargs())
    outcomes = _run_batch(gate, stream)

    assert outcomes == expected
    assert _counters() == expected_counters
    assert gate.quarantine_counts == oracle.quarantine_counts
    assert gate.banned == oracle.banned
