"""``setup.py`` declares a real distribution, not an empty ``UNKNOWN`` one."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_declares_the_src_layout_package():
    listing = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version", "--requires"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert listing[:2] == ["repro", repro.__version__]
    source = (ROOT / "setup.py").read_text()
    assert 'package_dir={"": "src"}' in source
    assert 'find_packages("src")' in source
    assert 'install_requires=["numpy"]' in source
    assert not (ROOT / "pyproject.toml").exists()  # the docstring says so
