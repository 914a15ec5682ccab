"""Run one benchmark workload and print its metrics as one JSON line.

    python3 decodebench/run.py --workload mc-small --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: the decoder is imported from the
checkout's src/ directory, never from an installed copy.  The exit code is
0 when every decode passed its check, 1 when one did not (or the distance
certificate failed) and 2 when there are no sources to benchmark.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    # One thread everywhere, so the numbers measure the decoder and not the
    # scheduler; must be set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "sumrankdec" / "__init__.py").is_file():
        print(f"no decoder sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
