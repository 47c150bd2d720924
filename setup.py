"""Setup script (legacy path kept so `pip install -e .` works offline without the
`wheel` package; metadata mirrors pyproject.toml)."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Separating Agreement from Execution for Byzantine "
        "Fault Tolerant Services' (SOSP 2003)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
