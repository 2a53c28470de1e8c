"""List the functions of src/sialg that no command enters.

Run from the repository root:  python3 tools/reach_trace.py

A `sys.setprofile` hook records every code object of src/sialg that is
entered while, in one process, `sialg.cli.main` runs:
- `verify` on both profiles;
- `generate` for every family, QQ[C5] and QQ[C13] included (they reach
  the modular factoring), and once to stdout;
- `analyze`, and `comul` and `verify --input` under each preset, on each
  generated algebra, and `comul --spec` on nsy(3,2,(2,1,3));
- `analyze` and `verify --input` on malformed or invalid algebra files,
  `comul --spec` on malformed subset data, and usage errors;
and then, as perfbench does, `prepare` and every subset datum of one pool
on each input of sweep-qq, sweep-gfp and scale-amplify.  Every function
definition in src/sialg (methods and nested functions too) that was
never entered is printed with its line count, in source order; the
functions nested in an unentered one are not counted again.  The run
takes about 30 s and is not part of CI; the exit code of each command
goes to stderr.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src", "sialg")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

entered = set()  # (file name, first line) of every code object entered


def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(SRC):
        co = frame.f_code
        entered.add((os.path.basename(co.co_filename), co.co_firstlineno))


def functions():
    """(file, qualified name, first line incl. decorators, def line, line count)."""
    out = []
    for fn in sorted(os.listdir(SRC)):
        if not fn.endswith(".py"):
            continue
        with open(os.path.join(SRC, fn)) as fh:
            tree = ast.parse(fh.read())

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((fn, prefix + child.name, first, child.lineno,
                                child.end_lineno - first + 1))
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


def cli(*argv):
    from sialg.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code


def algebra_json(dim, unit, structure, field="rational"):
    return json.dumps({"field": field, "dim": dim, "basis": [f"b{i}" for i in range(dim)],
                       "unit": unit, "structure": structure})


def m2_with(index, entry):
    """M_2 with one structure entry replaced: E12 E21 = 2 E11 breaks
    associativity but keeps the unit."""
    from sialg.families import matrix_algebra

    data = matrix_algebra(2).to_json()
    data["structure"][index] = entry
    return json.dumps(data)


GENERATED = {
    "nsy": ["--family", "nsy", "--n", "3", "--l", "2", "--m", "2,1,3"],
    "nakayama": ["--family", "nakayama", "--n", "3", "--l", "2"],
    "m2": ["--family", "matrix", "--m", "2"],
    "product": ["--family", "product", "--m", "3"],
    "gf5_c2xc4": ["--family", "group", "--factors", "2,4", "--prime", "5"],
    "qq_c5": ["--family", "group", "--factors", "5"],
    "qq_c13": ["--family", "group", "--factors", "13"],
    "nsy_gf101": ["--family", "nsy", "--n", "2", "--l", "2", "--m", "1,2", "--prime", "101"],
}
MALFORMED = {
    "not-json": "{",
    "not-utf8": b"\xff\xfe",
    "array": "[]",
    "no-dim": json.dumps({"field": "rational", "basis": ["a"], "unit": [1], "structure": []}),
    "float-dim": algebra_json(1, [1], []).replace('"dim": 1', '"dim": 1.5'),
    "bad-field": algebra_json(1, [1], [[0, 0, 0, 1]], field={"prime": 4}),
    "bad-unit": algebra_json(1, [0], [[0, 0, 0, 1]]),
    "not-associative": m2_with(2, [1, 2, 0, "2"]),
    "duplicate": algebra_json(1, [1], [[0, 0, 0, 1], [0, 0, 0, 2]]),
    "index-range": algebra_json(1, [1], [[0, 0, 3, 1]]),
    "bad-scalar": algebra_json(1, ["1/x"], [[0, 0, 0, "1"]]),
    "float-scalar": algebra_json(1, [1.5], [[0, 0, 0, 1]], field={"prime": 5}),
    "path-a2": algebra_json(3, [1, 1, 0], [[0, 0, 0, 1], [1, 1, 1, 1], [0, 2, 2, 1],
                                            [2, 1, 2, 1]]),
}
BAD_SPECS = {
    "array": [],
    "class-twice": {"classes": [{"i": 1, "pairs": [[1, 1]]}, {"i": 1, "pairs": []}]},
    "pair-range": {"classes": [{"i": 1, "pairs": [[9, 1]]}]},
    "class-range": {"classes": [{"i": 9, "pairs": []}]},
    "pairs-string": {"classes": [{"i": 1, "pairs": "xx"}]},
    "no-classes": {"classes": []},
}
USAGE_ERRORS = (
    ["analyze"],
    ["bogus"],
    ["generate", "--family", "nsy"],
    ["generate", "--family", "nsy", "--n", "2", "--l", "2", "--m", "x"],
    ["generate", "--family", "matrix", "--m", "1,2"],
    ["generate", "--family", "group", "--factors", "2", "--prime", "4"],
    ["generate", "--family", "nakayama"],
    ["generate", "--family", "product"],
    ["generate", "--family", "group"],
    ["generate", "--family", "matrix"],
    ["analyze", "--input", "missing.json"],
)


def run_commands(tmp):
    path = lambda name: os.path.join(tmp, name)  # noqa: E731
    codes = []
    for profile in ("small", "standard"):
        codes.append((profile, cli("verify", "--profile", profile, "--report", path("r.json"))))
    for name, args in GENERATED.items():
        codes.append((name, cli("generate", *args, "-o", path(name + ".json"))))
    codes.append(("stdout", cli("generate", "--family", "nakayama", "--n", "2", "--l", "2")))
    for name in GENERATED:
        f = path(name + ".json")
        codes.append((name, cli("analyze", "--input", f, "--report", path("a.json"))))
        for preset in ("singleton", "diagonal", "full"):
            for command in ("comul", "verify"):
                codes.append((name, command, preset, cli(
                    command, "--input", f, "--preset", preset, "--report", path("c.json"))))
    good_spec = {"classes": [{"i": 1, "pairs": [[1, 1], [2, 1]]}, {"i": 2, "pairs": []},
                             {"i": 3, "pairs": [[1, 1]]}]}
    for name, data in {"good": good_spec, **BAD_SPECS}.items():
        with open(path("spec.json"), "w") as fh:
            json.dump(data, fh)
        codes.append((name, cli("comul", "--input", path("nsy.json"), "--spec", path("spec.json"),
                                "--report", path("s.json"))))
    for name, text in MALFORMED.items():
        with open(path("bad.json"), "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode())
        for command in ("analyze", "verify"):
            codes.append((name, command, cli(command, "--input", path("bad.json"))))
    for argv in USAGE_ERRORS:
        codes.append((argv, cli(*argv)))
    return codes


def run_sweeps():
    import workloads

    for name in ("sweep-qq", "sweep-gfp", "scale-amplify"):
        w = workloads.WORKLOADS[name]
        for idx, (_, alg) in enumerate(w.generate()):
            ctx = workloads.prepare_op(alg)[0]
            if ctx is None:
                continue
            for _, spec in workloads.spec_plan(ctx, idx, w.spec_labels, workloads.pool_seed(1)):
                workloads.report_op(ctx, spec)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        try:
            codes = run_commands(tmp)
            run_sweeps()
        finally:
            sys.setprofile(None)
    for code in codes:
        print("#", *code, file=sys.stderr)
    funcs = functions()
    total, unentered = 0, []
    for fn, qual, first, defline, n in funcs:
        if (fn, first) in entered or (fn, defline) in entered:
            continue
        if any(f == fn and qual.startswith(q + ".") for f, q in unentered):
            continue
        unentered.append((fn, qual))
        total += n
        print(f"{n:4d}  {fn}:{defline}  {qual}")
    print(f"{total} lines in unentered function bodies "
          f"({sum(f[-1] for f in funcs)} lines in all function bodies)")


if __name__ == "__main__":
    main()
