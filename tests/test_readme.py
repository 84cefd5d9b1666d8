"""The README's library quickstart runs as written and gives what its
comments state."""

import pathlib
import re
from fractions import Fraction as F

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no python block under 'Library quickstart'"
    return match.group(1)


def test_quickstart_runs_and_matches_its_comments():
    code = quickstart()
    # the values the comments promise, as printed in the block itself
    for stated in ("B_2 = x^2 - 4x + 1", "* (5 + 1)   # 36", "(True, True, 923)"):
        assert stated in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["seq"][2].coeffs == (F(1), F(-4), F(1))
    assert namespace["checked"] == 36
    rep = namespace["rep"]
    assert (rep.is_tn, rep.is_oscillatory_gk, rep.minors_checked) == (True, True, 923)
