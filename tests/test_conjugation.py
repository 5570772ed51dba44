"""Every map of the package commutes with complex conjugation.

This is the premise of the raster mirror in ``dynamics.sample_slice``: on
a slice whose row height-1-i starts at the conjugates of row i's start
points, the bottom half of the raster is copied from the top half instead
of computed.  The copy is the full computation only while each map's
steps send conj(p) to conj(f(p)), bit for bit up to the sign of an exact
zero and with nan matching nan.  That rests on numpy's complex product,
real-times-complex product and np.exp (and, for the scalar engine, on
Python's complex arithmetic and cmath.exp) being symmetric under
conjugation in IEEE arithmetic.  A numpy or libm that breaks it fails
here first.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shearbasins import maps
from shearbasins.maps import MapWord, map_from_spec

PACKAGE_MAPS = {
    "F3": map_from_spec({"family": "F3"}),
    "F3(0.5,2,-1.5)": map_from_spec({"family": "F3", "a": 0.5, "b": 2.0, "c": -1.5}),
    "G": map_from_spec({"family": "G"}),
    "G(2,0.5,1.3)": map_from_spec({"family": "G", "a": 2.0, "b": 0.5, "c": 1.3}),
    "FAMILY_K": map_from_spec({"family": "FAMILY_K"}),
    "FAMILY_K unequal": map_from_spec({"family": "FAMILY_K", "a": [0.5, 1.0, 2.0], "b": 7.0}),
    "PROTO_1D": map_from_spec({"family": "PROTO_1D"}),
    "PROTO_1D(-0.75)": map_from_spec({"family": "PROTO_1D", "a": -0.75}),
    "PROTO_2D": map_from_spec({"family": "PROTO_2D"}),
}

PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1.0, 2.0, 1e154, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-3.0, 3.0),
    st.floats(700.0, 720.0),
    st.floats(-720.0, -700.0),
    st.floats(),
)
COORD = st.builds(complex, PARTS, PARTS)
# real parts at which exp overflows (above about 709.78) or comes close to it
EXP_ARGUMENT = st.builds(complex, st.floats(700.0, 720.0), PARTS)


@st.composite
def _exp_point(draw, word: MapWord):
    """A point at which the word's first exponential, exp(a (w - zeta)) of its
    first overshear, takes a drawn argument with real part in [700, 720]."""
    a = word.factors[-2].weights[0]
    zs = draw(st.lists(st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                       min_size=word.dim - 1, max_size=word.dim - 1))
    zeta = math.prod(zs, start=1 + 0j)
    return (*zs, zeta + draw(EXP_ARGUMENT) / a)


def _points(name):
    f = PACKAGE_MAPS[name]
    points = st.lists(COORD, min_size=f.dim, max_size=f.dim).map(tuple)
    if isinstance(f, MapWord):
        points = st.one_of(points, _exp_point(f))
    return st.lists(points, min_size=1, max_size=12)


def _same(x: float, y: float) -> bool:
    """Equal up to the sign of an exact zero; nan matches nan."""
    return x == y or (math.isnan(x) and math.isnan(y))


def _conjugate_points(p, q) -> bool:
    """q is conj(p): equal real parts, negated imaginary parts."""
    return len(p) == len(q) and all(_same(a.real, b.real) and _same(a.imag, -b.imag) for a, b in zip(p, q))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.sampled_from(sorted(PACKAGE_MAPS)).flatmap(lambda name: st.tuples(st.just(name), _points(name))))
def test_mirror_premise_every_package_map_commutes_with_conjugation(case):
    name, pts = case
    f = PACKAGE_MAPS[name]
    for p in pts:
        conj = tuple(x.conjugate() for x in p)
        assert _conjugate_points(f(p), f(conj)), (name, p)
    coords = [np.array([p[i] for p in pts], dtype=complex) for i in range(f.dim)]
    images = f.eval_batch([c.copy() for c in coords])
    mirrored = f.eval_batch([np.conj(c) for c in coords])
    for j, p in enumerate(pts):
        assert _conjugate_points([c[j] for c in images], [c[j] for c in mirrored]), (name, p)


def test_mirror_premise_the_arithmetic_commutes_with_conjugation():
    """The operations the batch and scalar steps are made of, on 200 000
    arguments from 1e-300 to 1e300 in modulus, exp arguments with real part
    in [700, 720] among them, and on signed zeros, infinities and nan."""
    rng = np.random.default_rng(18)
    n = 200_000
    z = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n) \
        + 1j * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    w = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n) + 1j * rng.standard_normal(n)
    near_overflow = rng.uniform(700.0, 720.0, n) + 1j * rng.uniform(-50.0, 50.0, n)
    special = np.array([complex(x, y) for x in (0.0, -0.0, 1.5, math.inf, -math.inf, math.nan)
                        for y in (0.0, -0.0, -2.5, 700.0, math.inf, -math.inf, math.nan)])

    def assert_conjugates(got, mirrored):
        same = lambda x, y: (x == y) | (np.isnan(x) & np.isnan(y))  # noqa: E731
        assert np.all(same(got.real, mirrored.real) & same(got.imag, -mirrored.imag))

    with np.errstate(all="ignore"):
        for arg in (z, w, near_overflow, special):
            assert_conjugates(np.exp(arg), np.exp(np.conj(arg)))
        for a, b in ((z, w), (w, near_overflow), (w, w[::-1]), (special, special[::-1])):
            assert_conjugates(a * b, np.conj(a) * np.conj(b))
        for c in (0.3183098861837907, -0.75, 2.0):
            assert_conjugates(c * w, c * np.conj(w))
            assert_conjugates(-c * z, -c * np.conj(z))
    for x in (*near_overflow[:2000].tolist(), *special.tolist(), *w[:2000].tolist()):
        assert _conjugate_points([maps._cexp(x)], [maps._cexp(x.conjugate())]), x
        assert _conjugate_points([x * (0.5 - 2j)], [x.conjugate() * (0.5 + 2j)]), x
        assert _conjugate_points([1.5 * x], [1.5 * x.conjugate()]), x
