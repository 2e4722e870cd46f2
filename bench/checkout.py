"""Locate the dpmobility sources of the checkout this benchmark lives in.

The benchmark always runs the package from ``src/`` next to its own
directory, never an installed copy, so it measures the code it ships with.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and check that
    ``dpmobility`` is imported from there; exit with code 2 otherwise."""
    if (SRC / "dpmobility" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import dpmobility

        found = Path(dpmobility.__file__).resolve()
        if found.is_relative_to(SRC):
            return
        print(f"bench: dpmobility was imported from {found}, not {SRC}", file=sys.stderr)
    else:
        print(f"bench: no dpmobility sources under {SRC}", file=sys.stderr)
    sys.exit(2)
