"""Closed-loop benchmark of sialg: one caller, one thread, one process.

    python3 perfbench/run.py --workload sweep-qq --seed 1 --seconds 20 --trace 0

Run from a checkout's root; sialg is imported from its `src` tree.  The
caller issues the next call only when the previous one has returned,
times every call into `prepare` and `run_spec` from outside, and checks
every output against `reference.json`.  The last line of standard output
is one JSON object: end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`.  See README.md for the workloads and metrics.
"""

import argparse
import json
import sys

sys.dont_write_bytecode = True

import speed  # noqa: E402
from srcpath import load_sialg  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=271828)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not args.trace:
        speed.start()
    try:
        t0 = speed.clock()
        try:
            load_sialg()
        except ImportError as exc:
            print(f"cannot import sialg: {exc}", file=sys.stderr)
            return 2
        import_s = speed.clock() - t0

        import bench

        if args.workload not in bench.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")
        result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    finally:
        speed.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
