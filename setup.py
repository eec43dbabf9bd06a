"""Packaging for the ``repro`` library (the software twin of eSLAM).

A classic ``setup.py`` so the package installs with older setuptools too,
e.g. ``pip install -e . --no-use-pep517 --no-build-isolation``.  The only
runtime dependency is numpy; the test and benchmark tooling (pytest,
hypothesis, pytest-benchmark) is installed separately.
"""

from setuptools import find_packages, setup

setup(
    name="repro-eslam",
    version="0.1.0",
    description=(
        "Software reproduction of eSLAM, an energy-efficient ORB-SLAM "
        "accelerator on FPGA"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
