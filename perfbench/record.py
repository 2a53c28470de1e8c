"""Record the reference digest of every operation a benchmark run can meet.

Run from the repository root on the commit whose outputs are the
reference; it rewrites perfbench/reference.json:

    python3 perfbench/record.py
"""

import json
import sys

sys.dont_write_bytecode = True

from srcpath import load_sialg

load_sialg()

from bench import REFERENCE  # noqa: E402
from workloads import (  # noqa: E402
    PRESETS,
    RANDOM_LABELS,
    RANDOM_POOLS,
    SIALG_SEED,
    WORKLOADS,
    prepare_op,
    report_op,
    spec_plan,
)


def record(workload) -> dict:
    out = {}
    for idx, (key, alg) in enumerate(workload.generate()):
        ctx, _, prep_digest, _ = prepare_op(alg)
        row = {"prepare": prep_digest}
        out[key] = row
        if ctx is None:
            continue
        seen: dict = {}

        def report_digest(spec):
            spec_key = json.dumps(spec.to_json(), sort_keys=True)
            if spec_key not in seen:
                seen[spec_key] = report_op(ctx, spec)[1]
            return seen[spec_key]

        presets = [label for label in workload.spec_labels if label in PRESETS]
        for label, spec in spec_plan(ctx, idx, presets, SIALG_SEED):
            row[label] = report_digest(spec)
        if any(label in RANDOM_LABELS for label in workload.spec_labels):
            row["random"] = {
                str(pool): [
                    report_digest(spec)
                    for _, spec in spec_plan(ctx, idx, RANDOM_LABELS, pool)
                ]
                for pool in range(SIALG_SEED, SIALG_SEED + RANDOM_POOLS)
            }
        print(f"{workload.name}: {key}", file=sys.stderr, flush=True)
    return out


def main():
    reference = {name: record(workload) for name, workload in WORKLOADS.items()}
    with open(REFERENCE, "w") as fh:
        fh.write(_dumps(reference))


def _dumps(reference: dict) -> str:
    """JSON with one line per algebra, so a changed output shows as one line."""
    blocks = []
    for name, entries in sorted(reference.items()):
        rows = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(row, sort_keys=True)}"
            for key, row in sorted(entries.items())
        )
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
