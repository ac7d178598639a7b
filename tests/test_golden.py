"""The golden corpus: every output `tests/make_golden.py` wrote stays byte-identical.

Each file is drawn again from its seeds and compared line by line; a failure
names the first line that differs.  The whole corpus takes about 7 s.
"""

import pytest

import make_golden


@pytest.mark.parametrize("name", make_golden.NAMES)
def test_golden_outputs_are_unchanged(name):
    path = make_golden.GOLDEN / f"{name}.jsonl"
    expected, actual = path.read_text().splitlines(), make_golden.lines(name)
    for i, (want, got) in enumerate(zip(expected, actual), 1):
        if want != got:
            pytest.fail(f"{path.name} line {i} differs\nexpected: {want}\nactual:   {got}")
    assert len(actual) == len(expected), f"{path.name}: {len(actual)} lines, expected {len(expected)}"
