from fractions import Fraction

import pytest

from walkdim.ifs import IfsSpec, Similitude, preset


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
