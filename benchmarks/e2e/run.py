"""Run the end-to-end benchmark from a checkout's root, as a script.

    python3 benchmarks/e2e/run.py --workload canned --seed 1 --seconds 25 --trace 0

The same command line as ``python -m benchmarks.e2e`` (see ``cli.py``).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
