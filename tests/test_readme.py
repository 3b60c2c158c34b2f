"""The README's library and scenario examples run as documented."""

import contextlib
import io
import json
import re
from pathlib import Path

from topomi.scenarios import Scenario, run_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    blocks = re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, f"README has {len(blocks)} {language} blocks"
    return blocks[0]


def test_readme_examples_run_as_documented():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("python"), {})
    assert out.getvalue().split() == ["0", "2.772588722239781"]

    scn = Scenario.from_dict(json.loads(_block("json")))
    result = run_scenario(scn)
    assert result.passed, result.failures()
    assert len(result.checks) == len(scn.expected)  # one check per expected key
