"""Locates the doseband sources of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program() -> None:
    """Put the checkout's ``src`` first on the import path, or exit with an
    error when the checkout holds no doseband sources."""
    if not (SRC / "doseband" / "__init__.py").is_file():
        raise SystemExit(f"error: no doseband sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
