"""Import sialg from the `src` tree of the checkout that holds this directory."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_sialg():
    """Import and return `sialg`; raise ImportError unless it comes from SRC."""
    sys.path.insert(0, SRC)
    import sialg

    if not os.path.abspath(sialg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sialg was imported from {sialg.__file__}, not from {SRC}")
    return sialg
