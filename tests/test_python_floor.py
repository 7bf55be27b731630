"""The oldest Python the package claims to support is one CI tests on.

``requires-python`` in ``pyproject.toml`` must name the lowest
``python-version`` of the tier-1 job's matrix in the CI workflow.  The
workflow is read with a regular expression: PyYAML is not a dependency.
"""

import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def test_requires_python_is_the_lowest_version_ci_tests():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requires = tomllib.load(handle)["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", requires.strip())
    assert floor, f"requires-python should be a plain '>=X.Y' floor, got {requires!r}"

    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    job = re.search(r"^  tier1:\n(.*?)(?=^  \S)", workflow, re.M | re.S)
    assert job, "ci.yml has no tier1 job"
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", job.group(1))
    assert matrix, "the tier1 job has no python-version matrix"
    tested = [_version(v.strip().strip("'\"")) for v in matrix.group(1).split(",")]

    assert min(tested) == _version(floor.group(1)), (requires, tested)
