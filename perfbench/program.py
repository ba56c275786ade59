"""Imports the morreykit under test from this checkout's `src/` directory.

The benchmark never uses an installed copy: a checkout without the sources
raises ImportError here, and the entry point exits non-zero without a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morreykit"

if not (PACKAGE / "__init__.py").is_file():
    raise ImportError(f"no morreykit sources at {PACKAGE}")
sys.path.insert(0, str(PACKAGE.parent))

import morreykit  # noqa: E402
from morreykit import (  # noqa: E402
    closedform,
    constants,
    core,
    document,
    numeric,
    sampling,
)

if Path(morreykit.__file__).resolve().parent != PACKAGE:
    raise ImportError(f"imported morreykit from {morreykit.__file__}, not {PACKAGE}")

MODULES = {
    "closedform": closedform,
    "constants": constants,
    "document": document,
    "numeric": numeric,
}
