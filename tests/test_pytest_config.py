"""The project's pytest settings."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_misspelt_marker_fails_collection(tmp_path):
    """A test marked ``instaled`` is not silently left out of ``-m installed``:
    with the project's settings, collecting it fails."""
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(
        "import pytest\n\n\n@pytest.mark.instaled\ndef test_m():\n    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode != 0
    assert "'instaled' not found in `markers`" in run.stdout, run.stdout
