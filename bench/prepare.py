"""Set-up of one workload: import chromagame from this checkout and build the
workload's fixed inputs (chi_g pre-solve, cache fill).

Run as a script, it times one set-up in the fresh interpreter it runs in and
prints the seconds taken:

    python3 bench/prepare.py sweep <workdir> [--quick]

`run.py` reports the median of several such set-ups as `setup_s`, so each
one pays for every import a user's own process pays for. Only modules that
every interpreter has loaded before `main` runs are imported ahead of the
clock.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
import time
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
ORACLE = os.path.join(ROOT, "tests", "oracle.py")
MODULES = ("core", "strategies", "solver", "formulas", "harness", "cli")


def import_package() -> SimpleNamespace:
    """Import chromagame from this checkout's src/, never an installed copy."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("chromagame")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "chromagame"):
        raise ImportError(f"chromagame was imported from {package.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"chromagame.{m}") for m in MODULES}
    return SimpleNamespace(package=package, **mods)


def import_oracle():
    """The vertex-explicit oracle of tests/oracle.py; used by the checks only."""
    spec = importlib.util.spec_from_file_location("bench_vertex_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def prepare(name: str, quick: bool, workdir: str):
    """Returns the package and the workload `name`, ready to time."""
    pkg = import_package()
    from workloads import WORKLOADS  # bench/ is sys.path[0] when run as a script

    return pkg, WORKLOADS[name](pkg, quick, workdir)


def main() -> int:
    t0 = time.perf_counter()
    _pkg, workload = prepare(sys.argv[1], "--quick" in sys.argv[3:], sys.argv[2])
    elapsed = time.perf_counter() - t0
    workload.cleanup()
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
