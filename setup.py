"""Package metadata for ``repro`` (sources under ``src/``).

``pip install -e .`` installs the package in development mode; on a host
without the ``wheel`` package, ``python setup.py develop`` does the same
through the legacy path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Simulation of decentralized distributed graph coloring on "
        "cluster graphs"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=2.0"],
)
