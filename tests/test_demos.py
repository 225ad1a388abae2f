"""Every demo script, and the README's quick start, runs to completion
against the package in src/."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_with_timeout

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def load_demo(name: str):
    """Import a demo script as a module, without running its main()."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "demos" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_runs():
    # The README's only python block, executed as written; its own assert
    # checks the factor's residual.
    readme = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    run_with_timeout(lambda: exec(code, {}), timeout=60)


class TestCrossoverProbe:
    demo = load_demo("02_dual_lane_kernels.py")

    def test_rows_and_csv_schema(self):
        rows = self.demo.kernel_crossover_probe([8, 16])
        assert [r["size"] for r in rows] == [8, 16]
        for r in rows:
            assert set(r) == set(self.demo.CROSSOVER_FIELDS)
            assert r["seq_seconds"] > 0 and r["asym_seconds"] > 0
            assert r["flops"] == 2.0 * r["size"] ** 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            self.demo.kernel_crossover_probe([])
