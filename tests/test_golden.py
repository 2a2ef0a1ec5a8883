"""The golden reports of ``tests/golden`` against the current code.

Every report is recomputed and compared field by field: verdicts, integers,
strings and booleans exactly, floats exactly or within a relative
GOLDEN_RTOL. A change here is a change of behaviour; regenerate the files
with ``tests/golden/regenerate.py`` only as a declared one.
"""

import json
import math

import pytest

from golden import regenerate

GOLDEN_RTOL = 1e-12


def differences(expected, actual, path="$") -> list:
    """Where actual departs from expected, one line per field."""
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} != {actual!r} (type)"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [line for key in expected
                for line in differences(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [line for i, (e, a) in enumerate(zip(expected, actual))
                for line in differences(e, a, f"{path}[{i}]")]
    if isinstance(expected, float):
        if expected == actual or (math.isnan(expected) and math.isnan(actual)):
            return []
        if math.isclose(expected, actual, rel_tol=GOLDEN_RTOL, abs_tol=0.0):
            return []
    elif expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def test_the_comparison_tells_a_float_from_its_neighbour():
    golden = {"worst_ratio": 0.5, "verdict": "pass", "n": 3, "flag": True}
    assert differences(golden, dict(golden)) == []
    assert differences(golden, {**golden, "worst_ratio": 0.5 * (1 + 1e-13)}) == []
    assert differences(golden, {**golden, "worst_ratio": 0.5 * (1 + 1e-10)})
    assert differences(golden, {**golden, "verdict": "fail"})
    assert differences(golden, {**golden, "n": 3.0})
    assert differences(golden, {**golden, "flag": 1})
    assert differences([1.0, 2.0], [1.0])


@pytest.fixture(scope="module")
def recomputed():
    # a JSON round trip, so the comparison sees what a report file holds
    return {name: json.loads(regenerate.dump(report))
            for name, report in regenerate.reports().items()}


@pytest.mark.parametrize("name", ["suite_all_seed0.json", "suite_all_seed10.json",
                                  "emulate_runs.json", "readme_sweep.json"])
def test_golden_report(name, recomputed):
    golden = json.loads((regenerate.HERE / name).read_text())
    assert differences(golden, recomputed[name]) == []
