"""``setup.py`` declares a real distribution, not an empty ``UNKNOWN`` one,
and every module's public names resolve."""

from __future__ import annotations

import importlib
import pkgutil
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


def test_every_public_name_resolves():
    """Each ``__all__`` entry of every module exists, and is listed once."""
    names = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        exported = getattr(module, "__all__", ())
        names += len(exported)
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{info.name}.__all__ names what it lacks: {missing}"
        repeated = sorted({name for name in exported if exported.count(name) > 1})
        assert not repeated, f"{info.name}.__all__ repeats {repeated}"
    assert names > 0
