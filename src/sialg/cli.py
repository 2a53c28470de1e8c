"""Command-line surface: generate, analyze, comul, verify.

All reports are deterministic functions of (input bytes, flags): JSON is
emitted with sorted keys and no timestamps, and every randomized search
derives from the --seed flag (default fixed).

Exit codes: 0 all requested checks hold; 1 operational error (bad input,
unsupported field, rejected algebra, a usage error on the command line);
2 a verification check found an exact counterexample to one of the
monitored statements.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import FinDimAlgebra
from .amplify import PRESETS, SpreadSpec
from .errors import AlgebraError, BadParams, InvalidAlgebra
from .families import (
    field_product_algebra,
    group_algebra,
    matrix_algebra,
    nakayama_algebra,
    nsy_algebra,
)
from .fields import Field
from .pipeline import analyze, prepare, run_spec
from .structure import DEFAULT_SEED
from .verify import run_verification


def _dump(obj, path: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise BadParams(f"{path} is not UTF-8 text: {exc}") from None
        except (RecursionError, ValueError) as exc:  # malformed, too deep, or an int too long
            raise BadParams(f"{path} is not readable JSON: {exc}") from None


def _field_from_args(args) -> Field:
    return Field(args.prime) if args.prime is not None else Field()


def _parse_ints(text: str, count: int | None = None):
    """Comma-separated integers; exactly `count` of them when given."""
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise BadParams(f"expected comma-separated integers, got {text!r}") from None
    if count is not None and len(values) != count:
        raise BadParams(f"expected {count} integer(s), got {text!r}")
    return values


def cmd_generate(args) -> int:
    field = _field_from_args(args)
    family = args.family
    if family == "nsy":
        if args.n is None or args.l is None or args.m is None:
            raise BadParams("--family nsy needs --n, --l and --m")
        nsy = nsy_algebra(args.n, args.l, _parse_ints(args.m), field)
        alg = nsy.algebra
        prov = {"family": "nsy", "n": args.n, "l": args.l, "m": list(nsy.m)}
    elif family == "nakayama":
        if args.n is None or args.l is None:
            raise BadParams("--family nakayama needs --n and --l")
        alg = nakayama_algebra(args.n, args.l, field)
        prov = {"family": "nakayama", "n": args.n, "l": args.l}
    elif family == "matrix":
        if args.m is None:
            raise BadParams("--family matrix needs --m SIZE")
        (size,) = _parse_ints(args.m, 1)
        alg = matrix_algebra(size, field)
        prov = {"family": "matrix", "size": size}
    elif family == "product":
        if args.m is None:
            raise BadParams("--family product needs --m COPIES")
        (copies,) = _parse_ints(args.m, 1)
        alg = field_product_algebra(copies, field)
        prov = {"family": "product", "copies": copies}
    elif family == "group":
        if args.factors is None:
            raise BadParams("--family group needs --factors")
        alg = group_algebra(_parse_ints(args.factors), field)
        prov = {"family": "group", "factors": _parse_ints(args.factors)}
    else:
        raise BadParams(f"unknown family {family!r}")
    prov["field"] = field.to_json()
    data = alg.to_json()
    data["provenance"] = prov
    _dump(data, args.output)
    return 0


def cmd_analyze(args) -> int:
    alg = FinDimAlgebra.from_json(_load_json(args.input))
    result = analyze(alg, args.seed)
    _dump(result.to_json(), args.report or args.output)
    return 0


def cmd_comul(args) -> int:
    alg = FinDimAlgebra.from_json(_load_json(args.input))
    data = _load_json(args.spec) if args.spec else None
    ctx = prepare(alg, args.seed)
    # subset-data JSON needs the class count, so it is parsed after analysis
    spec = SpreadSpec.from_json(data, ctx.analysis.dec.n) if args.spec else args.preset
    run = run_spec(ctx, spec)
    _dump(run.to_json(), args.report or args.output)
    return 0


def cmd_verify(args) -> int:
    if args.input:
        alg = FinDimAlgebra.from_json(_load_json(args.input))
        run = run_spec(prepare(alg, args.seed), args.preset)
        _dump(run.report.to_json(), args.report or args.output)
        r = run.report
        ok = r.invariant and r.coassociative
        print("PASS" if ok else "FAIL", "single-input verification")
        return 0 if ok else 2
    results = run_verification(args.profile, args.seed)
    for r in results:
        print(r.line())
        for f in r.failures[:5]:
            print("    witness:", f)
    if args.report:
        _dump(
            {
                "profile": args.profile,
                "seed": args.seed,
                "checks": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "detail": r.detail,
                        "failures": r.failures,
                    }
                    for r in results
                ],
            },
            args.report,
        )
    return 0 if all(r.passed for r in results) else 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code kept for a falsified
    statement; this parser (and its subcommand parsers) exits 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="sialg",
        description="Exact computations with self-injective algebras: "
        "canonical decompositions, Frobenius pairs, spread comultiplications.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a generated algebra as JSON")
    gen.add_argument("--family", required=True,
                     choices=["nsy", "nakayama", "matrix", "product", "group"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--l", type=int)
    gen.add_argument("--m", help="comma-separated multiplicities (or a size)")
    gen.add_argument("--factors", help="comma-separated cyclic group factor sizes")
    gen.add_argument("--prime", type=int, help="work over GF(p) instead of the rationals")
    gen.add_argument("--output", "-o")

    ana = sub.add_parser("analyze", help="canonical decomposition and Nakayama data")
    ana.add_argument("--input", required=True)
    ana.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ana.add_argument("--output", "-o")
    ana.add_argument("--report")

    com = sub.add_parser("comul", help="build and verify a spread comultiplication")
    com.add_argument("--input", required=True)
    com.add_argument("--preset", default="singleton", choices=list(PRESETS))
    com.add_argument("--spec", help="path to subset-data JSON (overrides --preset)")
    com.add_argument("--seed", type=int, default=DEFAULT_SEED)
    com.add_argument("--output", "-o")
    com.add_argument("--report")

    ver = sub.add_parser("verify", help="run the verification battery")
    ver.add_argument("--profile", default="small", choices=["small", "standard"])
    ver.add_argument("--input", help="verify one algebra file instead of the corpus")
    ver.add_argument("--preset", default="singleton", choices=list(PRESETS))
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--output", "-o")
    ver.add_argument("--report")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "analyze": cmd_analyze,
        "comul": cmd_comul,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except InvalidAlgebra as exc:
        print(f"error: invalid algebra: {exc} (witness: {exc.witness})", file=sys.stderr)
        return 1
    except (AlgebraError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
