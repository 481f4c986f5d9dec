"""The same-answers harness's short list gives the recorded answers.

`equiv_quick.txt` holds the lines of `python tests/equiv.py --quick
--lines` as commit 339bad0 solved them; regenerate it only with a
change meant to alter answers.
"""

import itertools
from pathlib import Path

import equiv

EXPECTED = Path(__file__).resolve().parent / "equiv_quick.txt"


def test_quick_list_gives_the_recorded_answers():
    want = EXPECTED.read_text().splitlines()
    got = list(equiv.lines(quick=True))
    for i, (a, b) in enumerate(itertools.zip_longest(want, got)):
        assert b == a, f"line {i + 1} differs: expected {a}, got {b}"
