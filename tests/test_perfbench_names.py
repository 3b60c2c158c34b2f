"""The benchmark in perfbench/ binds package names from outside: they must stay."""

import subprocess
import sys
from pathlib import Path

from topomi import grid, masks

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    originals = dict(vars(masks.UnionTopology)), grid.GridCss.__post_init__
    tracer = spans.Tracer()
    try:
        tracer.install()  # KeyError or AttributeError when a bound name is gone
        assert grid.GridCss.__post_init__ is not originals[1]
    finally:
        tracer.uninstall()
    assert dict(vars(masks.UnionTopology)) == originals[0]
    assert grid.GridCss.__post_init__ is originals[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
