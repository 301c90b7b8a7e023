"""Package metadata and install entry point.

This file is the project's only packaging metadata: ``pip install -e .``
installs the ``repro`` package from ``src/``.  Tests and tools run
without installing, via ``PYTHONPATH=src`` (see the Makefile).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Access pattern-based code compression for memory-constrained "
        "embedded systems (DATE 2005 reproduction)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
