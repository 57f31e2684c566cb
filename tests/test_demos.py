"""The narrative demos under demos/, and the README's minimal session, run to
completion from a checkout."""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("[0-9]*.py"))


def checkout_status():
    """`git status` of the checkout, or None outside a git work tree."""
    git = shutil.which("git")
    if git is None:
        return None
    result = subprocess.run(
        [git, "status", "--porcelain", "--untracked-files=all"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return result.stdout if result.returncode == 0 else None


def test_all_four_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_leaves_the_checkout_unchanged(demo):
    before = checkout_status()
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    # Warnings are errors here too: pyproject's filterwarnings does not reach
    # a subprocess.
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    if before is not None:
        assert checkout_status() == before


def test_readme_minimal_session_runs():
    # Run as written, with warnings as errors, it maps every story it fits.
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme[readme.index("\nA minimal session:\n") :]
    start = section.index("```python\n") + len("```python\n")
    scope = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(section[start : section.index("```\n", start)], scope)
    assert scope["space"].size == 7
    assert scope["faults"] == [None] * 3
    assert len(scope["params"]) == 3
