"""Workload inputs and the digests that check every operation's output.

A workload is a list of algebras built through the `sialg.families`
generators, plus per algebra a rotation of subset data for `run_spec`.
The benchmark seed only chooses which pool of random subset data the
sweeps draw from, so every input a run can meet has a reference digest
in `reference.json`, recorded by `record.py`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product

from sialg import Field, SpreadSpec, families, prepare, preset_spec, run_spec
from speed import clock


# Seed of every randomized search inside sialg.  It stays fixed so that the
# analyses (which print the idempotents the search found) have one digest.
SIALG_SEED = 271828
# The sweeps' random subset data are those of `verify.check_spread_family`
# for the sialg seed SIALG_SEED + (benchmark seed mod RANDOM_POOLS).
RANDOM_POOLS = 8
RANDOM_SPECS_PER_ALGEBRA = 10
PRESETS = ("singleton", "diagonal", "full")

GFP_PRIME = 101
GFP_GROUPS = ((2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2))
GFP_GROUP_PRIMES = (2, 3)
SCALE_SHAPES = ((3, 4, (4, 4, 4)), (4, 4, (4, 4, 4, 4)))


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # () -> list of (key, FinDimAlgebra)
    spec_labels: tuple  # labels rotated over the rounds
    builds: int  # input builds per end-to-end run; setup_s takes their median
    round_s: float  # seconds of --seconds that buy one round of run_spec calls


def _sweep_qq():
    return [(e.key, e.algebra) for e in families.corpus("standard")]


def _sweep_gfp():
    field = Field(GFP_PRIME)
    out = []
    for n, l in families.STANDARD_NSY_SHAPES:
        for m in product(range(1, 4), repeat=n):
            alg = families.nsy_algebra(n, l, m, field).algebra
            out.append((f"nsy n={n} l={l} m={list(m)} field={GFP_PRIME}", alg))
    for p in GFP_GROUP_PRIMES:
        for factors in GFP_GROUPS:
            alg = families.group_algebra(factors, Field(p))
            out.append((f"group factors={list(factors)} field={p}", alg))
    return out


def _scale_amplify():
    return [
        (f"nsy n={n} l={l} m={list(m)}", families.nsy_algebra(n, l, m).algebra)
        for n, l, m in SCALE_SHAPES
    ]


RANDOM_LABELS = tuple(f"random{t}" for t in range(RANDOM_SPECS_PER_ALGEBRA))
SWEEP_LABELS = PRESETS + RANDOM_LABELS

# round_s shares out the time all runs may take: a sweep-qq round takes
# about 2.9 s, a sweep-gfp round 1.3 s and a scale-amplify round 2.6 s, but
# the random subset data of sweep-qq need 8 rounds to average out, while
# the two scale-amplify builds and its prepare already take 21 and 13 s.
WORKLOADS = {
    "sweep-qq": Workload("sweep-qq", _sweep_qq, SWEEP_LABELS, 2, 2.5),
    "sweep-gfp": Workload("sweep-gfp", _sweep_gfp, SWEEP_LABELS, 2, 1.5),
    "scale-amplify": Workload("scale-amplify", _scale_amplify, ("diagonal",), 2, 10.0),
}


def pool_seed(seed: int) -> int:
    return SIALG_SEED + seed % RANDOM_POOLS


def spec_plan(ctx, idx: int, labels, pool: int) -> list:
    """(label, SpreadSpec) per label; the random ones are drawn exactly as
    `verify._spec_sweep` draws them for the sialg seed `pool`."""
    m, nak = ctx.analysis.dec.multiplicities, ctx.analysis.nak
    rng = random.Random(pool * 1000003 + idx)
    randoms = [
        SpreadSpec.random_nonempty(m, nak, rng) for _ in range(RANDOM_SPECS_PER_ALGEBRA)
    ]
    return [
        (label, preset_spec(label, m, nak) if label in PRESETS
         else randoms[int(label[len("random"):])])
        for label in labels
    ]


def expected_digest(ref: dict, label: str, pool: int) -> str:
    """Reference digest of one entry's op: `prepare`, a preset or a random datum."""
    if label.startswith("random"):
        return ref["random"][str(pool)][int(label[len("random"):])]
    return ref[label]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def prepare_op(alg):
    """Timed `prepare`: (context or None, seconds, digest, error or None).

    A refusal is an output like any other: its digest covers the error
    type and message, so a known refusal is checked, not skipped.
    """
    t0 = clock()
    try:
        ctx = prepare(alg, SIALG_SEED)
    except Exception as exc:
        dt = clock() - t0
        return None, dt, digest(_error_json(exc)), exc
    dt = clock() - t0
    return ctx, dt, digest(ctx.analysis.to_json()), None


def report_op(ctx, spec):
    """Timed `run_spec`: (seconds, digest, error or None)."""
    t0 = clock()
    try:
        run = run_spec(ctx, spec)
    except Exception as exc:
        dt = clock() - t0
        return dt, digest(_error_json(exc)), exc
    dt = clock() - t0
    return dt, digest(run.report.to_json()), None


def _error_json(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}
