"""Golden command-line outputs: a refactor must leave every report byte-identical.

The files under ``tests/golden/`` are fixtures, like the gallery itself:
the gallery's ``suite --json`` report, every gallery file's ``analyze
--json`` report, ``rho --json`` on the graph files and the SHA-256 of
every analytic file's ``analyze --csv`` table (the 18-subsystem table
alone is 3.8 MB).  Regenerate them only for an
intended output change, and say so in the change log:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import Callable

import pytest

from topomi.cli import main
from topomi.scenarios import gallery_dir, load_scenario, suite_paths

GOLDEN = Path(__file__).resolve().parent / "golden"
GALLERY_PATHS = suite_paths(gallery_dir())
CSV_DIGESTS = "analyze-csv-sha256.json"


def _stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(list(argv))
    return buf.getvalue()


def _csv_digests() -> str:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.csv"
        for path in GALLERY_PATHS:
            if load_scenario(path).kind == "analytic":
                _stdout("analyze", str(path), "--csv", str(table))
                digests[path.name] = hashlib.sha256(table.read_bytes()).hexdigest()
    return json.dumps(digests, sort_keys=True, indent=2) + "\n"


def _cases() -> dict[str, Callable[[], str]]:
    """Fixture name under GOLDEN -> the call that produces its current output."""
    cases: dict[str, Callable[[], str]] = {
        "suite.json": lambda: _stdout("suite", "--json"),
        CSV_DIGESTS: _csv_digests,
    }
    for path in GALLERY_PATHS:
        cases[f"analyze/{path.name}"] = lambda p=path: _stdout("analyze", str(p), "--json")
        if load_scenario(path).kind == "graph":
            cases[f"rho/{path.name}"] = lambda p=path: _stdout("rho", str(p), "--json")
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_covers_every_gallery_file():
    fixtures = {p.name for p in (GOLDEN / "analyze").iterdir()}
    assert fixtures == {p.name for p in GALLERY_PATHS}


def test_golden_holds_exactly_the_cases():
    # a fixture whose case is gone would otherwise sit there unchecked
    fixtures = {p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*") if p.is_file()}
    assert fixtures == set(CASES)


if __name__ == "__main__":
    for name, output in CASES.items():
        target = GOLDEN / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(output(), encoding="utf-8")
