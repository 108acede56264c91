"""Locating the package under test and calling its public transforms.

Kept free of numpy so a fresh set-up probe can time ``import fastdcst``
(which imports numpy) from a process that has not imported it yet.
"""

import importlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

NORM_NAMES = ("TWO_SIDED", "UNITARY", "UNITARY_SQRT_N")
# spelling of each normalization on the fastdcst command line
CLI_NORM = {"TWO_SIDED": "two-sided", "UNITARY": "unitary",
            "UNITARY_SQRT_N": "unitary-sqrtn"}


class MissingPackage(RuntimeError):
    """The checkout does not hold the package sources."""


def import_package(with_cli=False):
    """Import ``fastdcst`` (and its CLI) from this checkout's ``src``."""
    init = SRC / "fastdcst" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no package sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("fastdcst")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise MissingPackage(f"imported fastdcst from {pkg.__file__}, not {init}")
    if with_cli:
        importlib.import_module("fastdcst.cli")
    return pkg


def child_env():
    """Environment for a child process that imports the checkout's package."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def transform(pkg, name, x, norm, ledger):
    """One public transform call; ``dct2_scaled`` has no normalization."""
    fn = getattr(pkg, name)
    if name == "dct2_scaled":
        return fn(x, ledger=ledger)
    return fn(x, norm=pkg.Normalization[norm], ledger=ledger)
