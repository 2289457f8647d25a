"""Process set-up shared by the benchmark's entry points.

Must run before numpy is imported: it pins the BLAS thread pools to one
thread, so that no pass starts more threads than the worker count it
asks for, and puts the checkout's ``src`` first on the import path (for
this process and for any pool worker or probe it starts).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and make ``import sparselms`` load ``ROOT/src``.

    Exits with status 2 when the checkout holds no ``src/sparselms``:
    the benchmark measures the program from source and has nothing to
    fall back on.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy loads")
    if not (SRC / "sparselms" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'sparselms'}; run the benchmark "
              "from the root of a sparselms checkout", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import sparselms
    if Path(sparselms.__file__).resolve().parent != SRC / "sparselms":
        print(f"error: sparselms loaded from {sparselms.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
