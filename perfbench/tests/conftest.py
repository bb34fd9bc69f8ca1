"""Put the program sources and the benchmark modules on ``sys.path``.

Run the self-tests from the root of a checkout with
``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
