"""Per-layer self time, call counts and work counts, measured from outside.

Each traced public function is replaced, while a `Tracer` is installed,
by a wrapper in every `sialg.*` module that binds it: `from .algebra
import is_invariant` makes a second binding in `sialg.amplify`, and the
package namespace binds a third.  The submodule `sialg.amplify` is
shadowed in the package by the function of the same name, so modules
are reached through `sys.modules`.  Scalar multiplications are counted
by wrapping `Fraction` and `Fp` multiplication.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

from sialg.fields import Fp
from speed import clock

# metric prefix -> (module, attribute path); a wrapper records calls and self time
TIMED = {
    "structure.radical": ("sialg.structure", "radical"),
    "structure.canonical_decomposition": ("sialg.structure", "canonical_decomposition"),
    "structure.basic_reduction": ("sialg.structure", "basic_reduction"),
    "structure.nakayama": ("sialg.structure", "nakayama"),
    "structure.iso_witnesses": ("sialg.structure", "iso_witnesses"),
    "poly.factor": ("sialg.poly", "factor"),
    "frobenius.frobenius_pair": ("sialg.frobenius", "frobenius_pair"),
    "amplify.amplify": ("sialg.amplify", "amplify"),
    "amplify.spread": ("sialg.amplify", "spread"),
    "amplify.build_counit": ("sialg.amplify", "build_counit"),
    "amplify.counit_solution_space": ("sialg.amplify", "counit_solution_space"),
    "amplify.comultiplication_report": ("sialg.amplify", "comultiplication_report"),
    "algebra.check_associativity": ("sialg.algebra", "check_associativity"),
    "algebra.check_unit": ("sialg.algebra", "check_unit"),
    "algebra.is_invariant": ("sialg.algebra", "is_invariant"),
    "algebra.check_coassociativity": ("sialg.algebra", "check_coassociativity"),
    "algebra.delta_rank": ("sialg.algebra", "delta_rank"),
    "linalg.sparse_rank": ("sialg.linalg", "sparse_rank"),
    "linalg.sparse_solve": ("sialg.linalg", "sparse_solve"),
    "linalg.Matrix.rref": ("sialg.linalg", "Matrix.rref"),
    "pipeline.analyze": ("sialg.pipeline", "analyze"),
    "pipeline.ModelIsomorphism": ("sialg.pipeline", "ModelIsomorphism.__init__"),
    "pipeline.apply_tensor2": ("sialg.pipeline", "ModelIsomorphism.apply_tensor2"),
    "pipeline.transport_functional": ("sialg.pipeline", "ModelIsomorphism.transport_functional"),
}
# metric prefix -> (module, attribute path); a wrapper records calls only,
# because these run millions of times inside the timed layers
COUNTED = {
    "algebra.multiply": ("sialg.algebra", "multiply"),
    "algebra.act_left": ("sialg.algebra", "act_left"),
}
SCALAR_MUL = {"fields.mul.fraction": Fraction, "fields.mul.fp": Fp}
SPREAD_NNZ = "amplify.spread.nnz"


def _resolve(module: str, path: str):
    """(owner, attribute name, original) for a function or a class method."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Wrappers for one traced pass; `label` names the op in progress."""

    def __init__(self):
        self.calls = {name: 0 for name in (*TIMED, *COUNTED)}
        self.self_s = {name: 0.0 for name in TIMED}
        self.counts = {name: 0 for name in (*SCALAR_MUL, SPREAD_NNZ)}
        self.inclusive: dict = {}  # (label, name) -> seconds
        self.label = None
        self._stack: list = []
        self._undo: list = []

    @contextmanager
    def installed(self):
        try:
            for name, (module, path) in TIMED.items():
                self._patch(module, path, self._timed(name, _resolve(module, path)[2]))
            for name, (module, path) in COUNTED.items():
                self._patch(module, path, self._counted(name, _resolve(module, path)[2]))
            for name, cls in SCALAR_MUL.items():
                for attr in ("__mul__", "__rmul__"):
                    orig = getattr(cls, attr)
                    self._undo.append((cls, attr, orig))
                    setattr(cls, attr, self._counted_mul(name, orig))
            yield self
        finally:
            while self._undo:
                owner, attr, orig = self._undo.pop()
                setattr(owner, attr, orig)

    def _patch(self, module: str, path: str, wrapper):
        owner, attr, orig = _resolve(module, path)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                mod
                for name, mod in list(sys.modules.items())
                if name == "sialg" or name.startswith("sialg.")
            ]
        for target in targets:
            for name, value in list(vars(target).items()):
                if value is orig:
                    self._undo.append((target, name, orig))
                    setattr(target, name, wrapper)

    def _timed(self, name: str, fn):
        stack, calls, self_s, inclusive = self._stack, self.calls, self.self_s, self.inclusive
        counts = self.counts
        nnz = name == "amplify.spread"  # also count the nonzeros of each spread tensor

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child
                key = (self.label, name)
                inclusive[key] = inclusive.get(key, 0.0) + dt
            if nnz:
                counts[SPREAD_NNZ] += len(out.coeffs)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_mul(self, name: str, fn):
        counts = self.counts

        def wrapper(a, b):
            counts[name] += 1
            return fn(a, b)

        return wrapper

    def work_counts(self) -> dict:
        """Machine-independent counts: these must repeat exactly."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counts)
        return out

    def metrics(self) -> dict:
        """name -> (value, unit) for every per-layer metric the wrappers record."""
        out = {name: (n, "count") for name, n in self.work_counts().items()}
        for name, s in self.self_s.items():
            out[f"{name}.s"] = (s, "s")
        return out
