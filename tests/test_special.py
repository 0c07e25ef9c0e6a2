"""The ports of Cephes' Gamma, erf and erfc keep scipy.special's values bit
for bit, so moving the package off scipy.special moved no number of it.
scipy is the oracle here only; the package does not import it for these."""

import math

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from subtail import special
from subtail.errors import DomainError

_MAXGAM = 171.624376956302725


def _bits(x):
    # NaNs compare by being NaN, everything else by its exact bits and sign
    return "nan" if math.isnan(x) else float(x).hex()


def _mismatches(ours, theirs, xs):
    return [(x, ours(x), float(theirs(x))) for x in xs if _bits(ours(x)) != _bits(theirs(x))]


def _gamma_grid():
    rng = np.random.default_rng(20240612)
    return np.concatenate([
        rng.uniform(0.0, 1e-9, 2000),
        10.0 ** rng.uniform(-300.0, -9.0, 2000),
        rng.uniform(0.0, 1.0, 5000),
        rng.uniform(1.0, 33.0, 5000),
        rng.uniform(33.0, _MAXGAM, 5000),
        np.arange(0.5, 171.5, 0.5),
        # the branch points: small, the recurrences' 2 and 3, Stirling's 33,
        # its pow split and MAXGAM
        [5e-324, 1e-9, np.nextafter(1e-9, 0.0), np.nextafter(1e-9, 1.0), 2.0, 3.0,
         np.nextafter(33.0, 0.0), 33.0, np.nextafter(33.0, 34.0), 143.01608,
         np.nextafter(143.01608, 144.0), np.nextafter(_MAXGAM, 0.0)],
        # the Gamma(1 - beta) of the Caputo kernels the package builds
        [1.0 - b for b in (0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.8, 0.9)],
    ])


def _erf_grid():
    rng = np.random.default_rng(20240613)
    edges = [np.nextafter(e, d) for e in (1.0, 8.0) for d in (0.0, 10.0)] + [1.0, 8.0]
    tiny = 10.0 ** rng.uniform(-323.0, -290.0, 500)
    special_values = [0.0, 26.5, 26.6, 27.2, 27.3, 5e-324, 2.2250738585072014e-308,
                      math.inf, math.nan]
    pos = np.concatenate([
        rng.uniform(0.0, 30.0, 6000),
        rng.uniform(0.9, 1.1, 2000),
        rng.uniform(7.9, 8.1, 2000),
        tiny, edges, special_values,
    ])
    return np.concatenate([pos, -pos])


class TestGamma:
    def test_bits_on_seeded_grids(self):
        assert _mismatches(special.gamma, sc.gamma, _gamma_grid()) == []

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(st.floats(5e-324, 1e-9), st.floats(1e-9, 1.0), st.floats(1.0, 33.0),
                       st.floats(33.0, _MAXGAM)))
    def test_bits_on_hypothesis_floats(self, x):
        assert _bits(special.gamma(x)) == _bits(sc.gamma(x))

    @pytest.mark.parametrize("x", [_MAXGAM, np.nextafter(_MAXGAM, 200.0), 172.0, 1e300, math.inf])
    def test_inf_from_maxgam_on(self, x):
        assert special.gamma(x) == math.inf == sc.gamma(x)

    def test_a_python_float(self):
        assert type(special.gamma(np.float64(0.5))) is float

    @pytest.mark.parametrize("x", [0.0, -0.0, -1e-300, -0.5, -3.0, -math.inf, math.nan])
    def test_non_positive_or_nan_is_domain_error(self, x):
        with pytest.raises(DomainError):
            special.gamma(x)


class TestErf:
    @pytest.mark.parametrize("name", ["erf", "erfc"])
    def test_bits_on_seeded_grids(self, name):
        assert _mismatches(getattr(special, name), getattr(sc, name), _erf_grid()) == []

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=True, allow_infinity=True))
    def test_bits_on_hypothesis_floats(self, x):
        assert _bits(special.erf(x)) == _bits(sc.erf(x))
        assert _bits(special.erfc(x)) == _bits(sc.erfc(x))

    @pytest.mark.parametrize("x, erf, erfc", [
        (0.0, 0.0, 1.0), (-0.0, -0.0, 1.0), (math.inf, 1.0, 0.0), (-math.inf, -1.0, 2.0)])
    def test_zeros_and_infinities(self, x, erf, erfc):
        assert _bits(special.erf(x)) == _bits(erf) and _bits(special.erfc(x)) == _bits(erfc)

    def test_nan_gives_nan(self):
        assert math.isnan(special.erf(math.nan)) and math.isnan(special.erfc(math.nan))

    @pytest.mark.parametrize("name", ["erf", "erfc"])
    @pytest.mark.parametrize("shape", [(0,), (7,), (3, 4)])
    def test_an_array_entry_is_the_scalar_call(self, name, shape):
        f = getattr(special, name)
        xs = np.random.default_rng(5).uniform(-10.0, 10.0, shape)
        got = f(xs)
        assert got.shape == shape and got.dtype == np.float64
        assert [_bits(v) for v in got.ravel()] == [_bits(f(float(x))) for x in xs.ravel()]
        assert [_bits(v) for v in got.ravel()] == [_bits(v) for v in getattr(sc, name)(xs).ravel()]

    def test_a_list_is_an_array(self):
        assert special.erfc([0.5, 2.0]).tolist() == [special.erfc(0.5), special.erfc(2.0)]
