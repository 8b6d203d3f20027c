"""Map-cycle benchmark for the SAN mapping system.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from a checkout and prints its metrics; see README.md.
The package puts the checkout's ``src`` on ``sys.path`` so the system under
test is always the source tree beside it, never an installed copy.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
