"""Run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it benchmarks the rfsom sources under
``src/`` next to this directory, and exits 2 without a result if they are
missing. The last line of standard output is the JSON result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "rfsom" / "cli.py").is_file():
        print(f"error: no rfsom sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.bench import main

    sys.exit(main())
