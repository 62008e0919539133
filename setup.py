"""Package metadata for ``repro``.

``pip install .`` installs the ``repro`` package from ``src/`` (numpy
is its one runtime dependency).  Running from a checkout with
``PYTHONPATH=src`` works as well; the tests, benchmarks and examples
are not part of the installed package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "A unified approach for indexed and non-indexed spatial joins "
        "(EDBT 2000), reproduced on a simulated testbed and grown into "
        "a serving engine"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
