"""Package metadata for the ``repro`` library (a UAE reproduction).

Classic ``setup.py``: the offline environment has no ``wheel`` package,
so PEP 660 editable installs fail and ``pip install -e .`` falls back to
the ``setup.py develop`` path.  The code lives under ``src/``; the test
and benchmark suites run from a checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of UAE: a unified deep model of learning "
                "from both data and queries for cardinality estimation",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy", "scipy"],
)
