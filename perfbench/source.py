"""Where the benchmark finds the program and puts its own outputs.

The benchmark runs against the sources of the checkout it lives in,
never against an installed copy of the package.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BUNDLED_SCENARIO = SRC / "rastube" / "data" / "casestudy_omni.json"


class MissingSource(RuntimeError):
    pass


def import_rastube():
    """Import ``rastube`` from ``<checkout>/src``; raise MissingSource when
    the checkout holds no sources."""
    if not (SRC / "rastube" / "__init__.py").is_file():
        raise MissingSource(f"no rastube sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rastube

    if Path(rastube.__file__).resolve().parent != SRC / "rastube":
        raise MissingSource(f"imported rastube from {rastube.__file__}, not from {SRC}")
    return rastube
