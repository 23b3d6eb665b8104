"""Locations inside the checkout, and the guard that the benchmark measures
the checkout's own `src/dppln` rather than some installed copy."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"


class CheckoutError(RuntimeError):
    """The checkout lacks the program the benchmark measures."""


def use_checkout_src():
    """Put the checkout's `src` first on the import path and import dppln.

    Raises CheckoutError when `src/dppln` is missing or the import resolves
    elsewhere.
    """
    if not (SRC / "dppln" / "__init__.py").is_file():
        raise CheckoutError(f"no dppln package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dppln

    if Path(dppln.__file__).resolve().parent != SRC / "dppln":
        raise CheckoutError(f"dppln imported from {dppln.__file__}, not from {SRC}")
    return dppln


def child_env() -> dict:
    """Environment for child interpreters: the checkout's `src` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
