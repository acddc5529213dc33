"""Package metadata for the ``repro`` source tree under ``src/``.

There is no ``pyproject.toml``: the environment's setuptools predates
PEP-660 editable installs (no ``wheel`` package is available offline),
so ``pip install -e .`` runs ``setup.py develop`` via
``--no-use-pep517`` and everything it needs is declared here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # repro.__version__
    description=(
        "Reproduction of 'Security Testbed for Preempting Attacks against "
        "Supercomputing Infrastructure' (SC'24)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
