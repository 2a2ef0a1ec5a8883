"""The golden reports of ``tests/golden`` against the current code.

Every report is recomputed and compared field by field: verdicts, integers,
strings and booleans exactly, floats exactly or within a relative
GOLDEN_RTOL, by ``regenerate.differences``. A change here is a change of
behaviour; see it with ``tests/golden/regenerate.py --check`` and regenerate
the files only as a declared one.
"""

import json

import pytest

from golden import regenerate
from golden.regenerate import differences


def test_the_comparison_tells_a_float_from_its_neighbour():
    golden = {"worst_ratio": 0.5, "verdict": "pass", "n": 3, "flag": True}
    assert differences(golden, dict(golden)) == []
    assert differences(golden, {**golden, "worst_ratio": 0.5 * (1 + 1e-13)}) == []
    assert differences(golden, {**golden, "worst_ratio": 0.5 * (1 + 1e-13)}, rtol=0.0)
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
