"""Setup script (no pyproject.toml: offline environments lack ``wheel``).

Carries the real metadata so ``pip install -e .`` / ``python setup.py
develop`` work without network access, and ships the ``py.typed`` marker
(PEP 561) so downstream type checkers see the package's inline annotations,
and the C sources of the native min-sum decode (every ``.c`` file beside
``repro/decode/native.py``), which the installed package compiles on first
use (``repro.decode.native``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-ccsds-ldpc",
    version="0.6.0",
    description=(
        "Reproduction of a DATE 2009 CCSDS LDPC decoder paper: code "
        "construction, decoders, FPGA models, Monte-Carlo campaigns"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"], "repro.decode": ["*.c"]},
    python_requires=">=3.11",
    install_requires=["numpy>=1.24"],
    zip_safe=False,
)
