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
        return PartialCoactionData(s.hopf, s.alg, s.side, dict(s.map.entries), s.name)
    return type(s)(bare(s.left), bare(s.right))


def forged_coaction(hopf, alg, side, entries, name=""):
    """A coaction whose map is `entries`, even where they fail the counit
    law that construction enforces: the trivial coaction a ↦ a ⊗ 1_H
    (resp. 1_H ⊗ a) is built, and its map is then replaced."""
    from phopf.coactions import PartialCoactionData
    from phopf.linalg import Tensor3
    trivial = {((i, i, k) if side == "right" else (i, k, i)): c
               for i in range(alg.dim) for k, c in enumerate(hopf.unit) if c}
    p = PartialCoactionData(hopf, alg, side, trivial, name)
    p.map = Tensor3(p.map.dims, entries)
    return p


def rand_fraction(rng, lo=-6, hi=7, den=4):
    from fractions import Fraction
    return Fraction(rng.randrange(lo, hi), rng.randrange(1, den + 1))
