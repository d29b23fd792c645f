"""Where the benchmark finds the program: the `src/` tree of its own checkout."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "seqrel"
OUT_DIR = BENCH_DIR / "out"

# one thread per process: the load comes from a single interpreter
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingProgram(RuntimeError):
    pass


def use_checkout_package() -> None:
    """Import `seqrel` from this checkout's source tree, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no seqrel package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import seqrel

    if Path(seqrel.__file__).resolve().parent != PACKAGE:
        raise MissingProgram(f"seqrel was imported from {seqrel.__file__}, not {PACKAGE}")
