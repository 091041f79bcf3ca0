"""Benchmark entry point: one workload, one seed, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uniform-s1024-t16 --seed 1 --seconds 10 --trace 0

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of the
traced run.  Both also report how many queries were attempted and failed.
The program is imported from src/ of the same checkout, never from an
installed copy, and the run exits with code 2 when that source is missing.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import json
import shutil
import signal
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    if not (SRC / "strindex" / "__init__.py").is_file():
        print(f"error: no strindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import strindex

    if Path(strindex.__file__).resolve().parent != SRC / "strindex":
        print(f"error: imported strindex from {strindex.__file__}", file=sys.stderr)
        return 2
    args = parse_args(argv, bench.WORKLOADS)
    # Turn SIGTERM into SystemExit, so that the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = bench.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
