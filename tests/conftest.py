from __future__ import annotations

from fractions import Fraction

import pytest

from wds import (GradedSetup, MINIMAL, SHORT, ReductionFrame, WGenerators,
                 build_sl)
from wds.hierarchy import solve_dressing


class Config:
    """One fully built reduction: algebra, grading, frame, generators."""

    def __init__(self, algebra, f_labels, kind, s="e", isotropic=False,
                 params=(), form_scale=None):
        self.algebra = algebra
        self.setup = GradedSetup(algebra, algebra.parse(f_labels), kind)
        if s == "e":
            s_vec = self.setup.e
        else:
            s_vec = s
        self.frame = ReductionFrame(self.setup, s_vec, isotropic=isotropic)
        self.gens = WGenerators(self.frame)
        self._dressing = {}

    def dressing(self, max_deg=4, projected=True):
        key = (Fraction(max_deg), projected)
        if key not in self._dressing:
            self._dressing[key] = solve_dressing(
                self.frame, max_deg, projected=projected)
        return self._dressing[key]


@pytest.fixture(scope="session")
def sl3_min():
    return Config(build_sl(3), {"E31": 1}, MINIMAL)


@pytest.fixture(scope="session")
def sl4_min():
    return Config(build_sl(4), {"E41": 1}, MINIMAL)


@pytest.fixture(scope="session")
def sl4_short():
    return Config(build_sl(4), {"E31": 1, "E42": 1}, SHORT)


@pytest.fixture(scope="session")
def sl3_iso():
    g = build_sl(3)
    return Config(g, {"E31": 1}, MINIMAL,
                  s=g.parse({"E12": 1, "E23": 1}), isotropic=True)


@pytest.fixture(scope="session")
def sl4_generic():
    g = build_sl(4, params=["s1", "s2"], form_scale="c")
    s1, s2 = g.ring.param("s1"), g.ring.param("s2")
    s = g.parse({"E13": s1, "E24": s2})
    return Config(g, {"E31": 1, "E42": 1}, SHORT, s=s)


@pytest.fixture(scope="session")
def sl2_min():
    return Config(build_sl(2), {"E21": 1}, MINIMAL)
