"""Shared fixtures and helpers for the test suite."""

import random

import pytest

from phopf.fields import GF, QQ
from phopf.examples import sweedler_h4


@pytest.fixture(scope="session")
def h4():
    return sweedler_h4(QQ)


@pytest.fixture(scope="session")
def h4_gf5():
    return sweedler_h4(GF(5))


@pytest.fixture
def rng():
    return random.Random(20260815)


def bare(s):
    """A copy of an action, coaction, bimodule or bicomodule that carries no
    certificate of its own (H and A are shared), so its check sweeps."""
    from phopf.actions import PartialActionData
    from phopf.coactions import PartialCoactionData
    if isinstance(s, PartialActionData):
        return PartialActionData(s.hopf, s.alg, s.side, dict(s.map.entries),
                                 s.symmetric, s.name)
    if isinstance(s, PartialCoactionData):
        return PartialCoactionData(s.hopf, s.alg, s.side, dict(s.map.entries), s.name,
                                   unchecked=True)
    return type(s)(bare(s.left), bare(s.right))


def rand_fraction(rng, lo=-6, hi=7, den=4):
    from fractions import Fraction
    return Fraction(rng.randrange(lo, hi), rng.randrange(1, den + 1))
