"""Self-tests of the end-to-end benchmark.

Run by path — ``python -m pytest benchmarks/e2e/tests`` — they are not part
of the repo's tier-1 ``testpaths``.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
REPO = E2E.parents[1]
for path in (E2E, REPO / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
