"""Set-up of each workload: import walkdim and build the inputs that
are not under test.  Imports nothing heavier than walkdim itself, so a
fresh-interpreter set-up probe times exactly what a user pays."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HOOK_JSON = BENCH / "hook.json"
OUT_DIR = BENCH / "out"

# Declared constants (map count, contraction ratio, energy scale) of the
# audit table: sg, its 3-fold composition, and a 4-fold variant twice.
K1 = (3, Fraction(1, 2), Fraction(5, 3))
K2 = (27, Fraction(1, 8), Fraction(295, 63))
K3 = (81, Fraction(1, 16), Fraction(1475, 189))
K4 = (81, Fraction(1, 16), Fraction(1475, 189))
AUDIT_PAIRS = ((K1, K2), (K1, K3), (K1, K4), (K2, K3), (K2, K4), (K3, K4))

WORKLOADS = ("exact-solve", "graph-estimators", "measure-sample")


def import_walkdim():
    """Import walkdim from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import walkdim

    origin = Path(walkdim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"walkdim was imported from {origin}, not from {SRC}")
    return walkdim


def corner_values(k: int, seed: int) -> tuple:
    """Harmonic boundary data: 1 at corner seed mod k, 0 elsewhere."""
    return tuple(Fraction(int(a == seed % k)) for a in range(k))


def setup(workload: str, seed: int) -> dict:
    wd = import_walkdim()
    sg = wd.load_system("sg")
    inputs = {"wd": wd, "seed": seed, "sg": sg, "corner": corner_values(3, seed)}
    if workload == "exact-solve":
        sg2 = wd.compose(sg, sg)
        inputs.update(
            segment=wd.load_system("segment"),
            hook=wd.load_system(str(HOOK_JSON)),
            sg2=sg2,
            sg3=wd.compose(sg, sg2),
        )
    elif workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
