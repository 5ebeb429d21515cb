from fractions import Fraction
from pathlib import Path

import pytest

from walkdim.ifs import IfsSpec, Similitude, compose, load_system, preset

REPO = Path(__file__).resolve().parent.parent

# The hook moved right by 1/2: translations in thirds, boundary in
# halves, so the lattice denominator d = 6 needs the boundary's 2.
SHIFTED_HOOK = {
    "name": "shifted-hook",
    "maps": [
        {"ratio": "1/3", "translate": [x, y]}
        for x, y in [("1/3", "0"), ("2/3", "0"), ("1", "0"), ("1/3", "1/3"), ("1/3", "2/3")]
    ],
    "boundary": [["1/2", "0"], ["3/2", "0"], ["1/2", "1"]],
}

# The n = 4 grid gasket on seven of its ten cells: its unit network is
# not renormalization-fixed, and the power iteration that Newton's
# method replaced needed 191 steps on it.
SLOW_GRID = {
    "name": "slow-grid",
    "maps": [
        {"ratio": "1/4", "translate": [f"{i}/4", f"{j}/4"]}
        for i, j in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 0), (3, 0)]
    ],
    "boundary": [["0", "0"], ["1", "0"], ["0", "1"]],
}

# The Vicsek cross: five cells of the 3 x 3 grid, four corners.
VICSEK = {
    "name": "vicsek",
    "maps": [
        {"ratio": "1/3", "translate": [f"{x}/3", f"{y}/3"]}
        for x, y in [(0, 0), (2, 0), (1, 1), (0, 2), (2, 2)]
    ],
    "boundary": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
}


@pytest.fixture(scope="session")
def sg():
    return preset("sg")


@pytest.fixture(scope="session")
def segment():
    return preset("segment")


@pytest.fixture(scope="session")
def hook():
    """5-map, ratio-1/3 gasket whose unit network is not
    renormalization-fixed; its coordinates are not dyadic."""
    third = Fraction(1, 3)
    offsets = [(0, 0), (third, 0), (2 * third, 0), (0, third), (0, 2 * third)]
    return IfsSpec(
        "hook",
        tuple(Similitude(third, (Fraction(x), Fraction(y))) for x, y in offsets),
        ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    )


@pytest.fixture(scope="session")
def lattice_systems(sg, segment):
    """Systems whose lattice arithmetic the oracle tests cover: dyadic,
    one-dimensional, ternary (bench/hook.json), a composition, and a
    boundary denominator the translations lack."""
    return {
        "sg": sg,
        "segment": segment,
        "hook": load_system(str(REPO / "bench" / "hook.json")),
        "sg2": compose(sg, sg),
        "shifted-hook": IfsSpec.from_json(SHIFTED_HOOK),
    }
