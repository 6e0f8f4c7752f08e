"""Set-up probe: a fresh process imports cylwig and cylwig.cli and runs the
harness warm-up in the directory given as the only argument.

    python3 bench/probe.py WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cylwig  # noqa: E402,F401
import cylwig.cli  # noqa: E402,F401
from harness import warm_up  # noqa: E402

if __name__ == "__main__":
    warm_up(sys.argv[1])
