"""The compiled steps of a MapWord against an independent per-factor oracle.

A MapWord compiles its factors into one straight-line scalar step and one
numpy batch step.  The oracle below applies the closed forms of the ``maps``
module docstring one factor at a time, in plain Python:

    shear       (z, w) -> (z, w - zeta)
    overshear   (z, w) -> (z_i * exp(a_i w), w)
    twist       (z, w) -> (z, w * exp(-(A + b) zeta) + A zeta^2),  A = sum a_i

with every inverse written out as well.  The compiled steps promise the
same float operations in the same order, so they must match the oracle
bit for bit, signed zeros and overflow to inf included.

The batch step cannot match the scalar step bit for bit: numpy's complex
product may round differently from Python's (its vector loops may use fused
multiply-adds) and np.exp differs from cmath.exp near overflow.  The two are
compared by which outputs are finite, and by value at the working scale of
orbits and rasters.

The jet of a factor is the scalar step run on jet variables, and the jets
of the prototypes come from the same closed form as their values.  Both are
checked bit for bit against the closed forms written out on jets by hand.
"""

import cmath
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearbasins import maps
from shearbasins.jets import DimensionError, Jet, JetMap
from shearbasins.maps import (
    ElementaryKind,
    ElementaryMap,
    MapWord,
    Params,
    Prototype,
    PushforwardMap,
    build_F,
    build_family,
    push_forward,
)

K = ElementaryKind
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)
BATCH_SETTINGS = settings(SETTINGS, max_examples=60)


def _words():
    f3 = build_F(Params(1.0, 1.0, 3.0))
    return {
        "F3(1,1,3)": f3,
        "F3(1,2,5)": build_F(Params(1.0, 2.0, 5.0)),
        "K3 equal": build_family(3, (1.0, 1.0, 1.0), 4.0),
        "K3 unequal": build_family(3, (0.5, 1.0, 2.0), 4.0),
        "K4 equal": build_family(4, (1.0, 1.0, 1.0, 1.0), 5.0),
        "K4 unequal": build_family(4, (0.5, 1.0, 1.5, 2.0), 7.0),
        "F3 inverse": f3.inverse(),
        "F3 inverse then F3": f3.inverse().then(f3),
    }


WORDS = _words()


# ----------------------------------------------------------------------
# the oracle


def scalar_exp(x: complex) -> complex:
    try:
        return cmath.exp(x)
    except (OverflowError, ValueError):
        return complex(math.inf, math.inf)


def apply_factor(f: ElementaryMap, zs: list, w, zeta, exp):
    total = sum(f.weights)
    rate = total + f.w_coeff
    if f.kind is K.SHEAR:
        return zs, w - zeta
    if f.kind is K.SHEAR_INV:
        return zs, w + zeta
    # Every exponential is named before its product, so numpy cannot reuse
    # it as the product's buffer and swap the operands (its complex product
    # is not bitwise commutative), and the oracle rounds alike at every size.
    if f.kind is K.OVERSHEAR:
        es = [exp(a * w) for a in f.weights]
        return [z * e for z, e in zip(zs, es)], w
    if f.kind is K.OVERSHEAR_INV:
        es = [exp(-a * w) for a in f.weights]
        return [z * e for z, e in zip(zs, es)], w
    if f.kind is K.TWIST:
        e = exp(-rate * zeta)
        return zs, w * e + total * zeta * zeta
    e = exp(rate * zeta)
    return zs, (w - total * zeta * zeta) * e


def scalar_oracle(word: MapWord, p) -> tuple:
    *zs, w = (complex(x) for x in p)
    for f in reversed(word.factors):
        zeta = 1.0 + 0j
        for z in zs:
            zeta *= z
        zs, w = apply_factor(f, zs, w, zeta, scalar_exp)
    return (*zs, w)


def batch_oracle(word: MapWord, coords: list) -> list:
    *zs, w = coords
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for f in reversed(word.factors):
            zeta = zs[0]
            for z in zs[1:]:
                zeta = zeta * z
            zs, w = apply_factor(f, zs, w, zeta, np.exp)
    return [*zs, w]


def bits(q) -> bytes:
    return b"".join(struct.pack("<dd", x.real, x.imag) for x in q)


def finite(q) -> bool:
    return all(math.isfinite(x.real) and math.isfinite(x.imag) for x in q)


# ----------------------------------------------------------------------
# points


def points(dim: int, min_radius: float = 0.3, max_radius: float = 300.0):
    """Complex points of norm between the radii, log-uniformly spread."""
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    return st.tuples(
        st.lists(st.tuples(unit, unit), min_size=dim, max_size=dim),
        st.floats(math.log(min_radius), math.log(max_radius)),
    ).filter(lambda d: sum(x * x + y * y for x, y in d[0]) > 1e-6).map(lambda d: _scale(*d))


def _scale(parts, log_radius):
    v = [complex(x, y) for x, y in parts]
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    return tuple(x * (math.exp(log_radius) / norm) for x in v)


def signed_zero_points(dim: int):
    part = st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0])
    return st.lists(st.builds(complex, part, part), min_size=dim, max_size=dim).map(tuple)


def word_and_points(make_points, n: int = 1):
    return st.sampled_from(sorted(WORDS)).flatmap(
        lambda name: st.tuples(
            st.just(name), st.lists(make_points(WORDS[name].dim), min_size=n, max_size=n)
        )
    )


# ----------------------------------------------------------------------
# scalar step


@SETTINGS
@given(word_and_points(points))
def test_scalar_step_is_bitwise_the_oracle(case):
    name, (p,) = case
    word = WORDS[name]
    assert bits(word(p)) == bits(scalar_oracle(word, p))


@SETTINGS
@given(word_and_points(signed_zero_points))
def test_scalar_step_keeps_signed_zeros_of_the_oracle(case):
    name, (p,) = case
    word = WORDS[name]
    assert bits(word(p)) == bits(scalar_oracle(word, p))


def test_scalar_step_reaches_overflow_like_the_oracle():
    word = WORDS["F3(1,1,3)"]
    p = (1j, 1j, 300.0 + 0j)
    q = word(p)
    assert not finite(q)
    assert bits(q) == bits(scalar_oracle(word, p))


def test_long_orbit_is_bitwise_the_oracle():
    word = WORDS["F3(1,1,3)"]
    p = q = (0.1 + 0.05j, 0.1 - 0.02j, 0.05j)
    for _ in range(100_000):
        p, q = word(p), scalar_oracle(word, q)
    assert bits(p) == bits(q)


def test_elementary_map_is_a_one_factor_word():
    p = (0.3 - 0.1j, -0.2 + 0.4j, 0.5 + 0.25j)
    coords = [np.array([x]) for x in p]
    for kind in ElementaryKind:
        f = ElementaryMap(kind, (1.0, 2.0), 5.0)
        assert bits(f(p)) == bits(scalar_oracle(MapWord((f,)), p))
        assert all(
            a.tobytes() == b.tobytes()
            for a, b in zip(f.eval_batch(coords), batch_oracle(MapWord((f,)), coords))
        )


def test_one_exponential_per_bitwise_distinct_weight(monkeypatch):
    # the scalar step takes cmath.exp when it is compiled, so words built
    # after the patch count their exponentials through it
    calls = []
    exp = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda x: calls.append(x) or exp(x))
    p = (0.1 + 0.05j, 0.1 - 0.02j, 0.05j)
    for weights, exps in (((1.0, 1.0), 3), ((1.0, 2.0), 5)):
        calls.clear()
        build_F(Params(*weights, 5.0))(p)
        assert len(calls) == exps
    # weights that differ in their bits keep their own exponentials: 0.0 * w
    # and -0.0 * w can differ in the sign of a zero, and nan is never shared
    for weights in ((0.0, -0.0), (math.nan, math.nan)):
        word = MapWord((ElementaryMap(K.OVERSHEAR, weights, 1.0),))
        q = (complex(1.0, -0.0), complex(1.0, -0.0), complex(-1.0, 0.0))
        calls.clear()
        got = word(q)
        assert len(calls) == 2
        assert bits(got) == bits(scalar_oracle(word, q))
        coords = [np.array([x]) for x in q]
        assert [c.tobytes() for c in word.eval_batch(coords)] == [
            c.tobytes() for c in batch_oracle(word, coords)
        ]


@SETTINGS
@given(st.sampled_from([(0.3, 3.0), (300.0, 300.0)]).flatmap(
    lambda radii: word_and_points(lambda dim: points(dim, *radii))))
def test_direct_exponential_is_bitwise_the_cexp_step(case):
    name, (p,) = case
    word = WORDS[name]
    assert bits(word(p)) == bits(word._step(p, maps._cexp))


def test_step_reruns_with_cexp_only_when_cmath_exp_raises():
    word = WORDS["F3(1,1,3)"]
    far, near = (1j, 1j, 300.0 + 0j), (0.1 + 0.05j, 0.1 - 0.02j, 0.05j)
    with pytest.raises(OverflowError):
        word._step(far)
    assert bits(word(far)) == bits(word._step(far, maps._cexp))
    assert bits(word(near)) == bits(word._step(near)) == bits(word._step(near, maps._cexp))


def test_wrong_dimension_raises():
    for word in WORDS.values():
        with pytest.raises(DimensionError):
            word((1, 2))
        with pytest.raises(DimensionError):
            word((0j,) * (word.dim + 1))
    with pytest.raises(DimensionError):
        MapWord((ElementaryMap(K.SHEAR, (), 1.0),))


# ----------------------------------------------------------------------
# batch step


def points_or_signed_zeros(dim: int):
    return st.one_of(points(dim), signed_zero_points(dim))


@BATCH_SETTINGS
@given(word_and_points(points_or_signed_zeros, n=16))
def test_batch_step_is_bitwise_the_oracle(case):
    name, pts = case
    word = WORDS[name]
    coords = [np.array([p[i] for p in pts]) for i in range(word.dim)]
    got = word.eval_batch([c.copy() for c in coords])
    want = batch_oracle(word, [c.copy() for c in coords])
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def random_coords(dim: int, n: int, seed: int) -> list:
    """n points of radius up to about 3, with overflow and signed zeros mixed in."""
    rng = np.random.default_rng(seed)
    coords = [(rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.6 for _ in range(dim)]
    coords[-1][::97] = 300.0 + 0j
    coords[0][::89] = complex(-0.0, 0.0)
    return coords


def test_batch_step_is_bitwise_the_oracle_on_a_large_batch():
    """20 000 elements is past the size from which numpy reuses temporaries."""
    for name in ("F3(1,1,3)", "K3 unequal", "F3 inverse"):
        word = WORDS[name]
        coords = random_coords(word.dim, 20_000, seed=1)
        got = word.eval_batch(coords)
        want = batch_oracle(word, coords)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want], name


def test_batch_step_bits_do_not_depend_on_the_batch_size():
    """The same 500 points, embedded in batches of 1 000 and of 20 000, and
    the first 100 of them one by one."""
    for name in ("F3(1,1,3)", "K3 unequal", "F3 inverse"):
        word = WORDS[name]
        points = random_coords(word.dim, 500, seed=2)
        results = []
        for size in (1_000, 20_000):
            coords = random_coords(word.dim, size, seed=3)
            for c, x in zip(coords, points):
                c[size // 2 : size // 2 + 500] = x
            out = word.eval_batch(coords)
            results.append([c[size // 2 : size // 2 + 500].tobytes() for c in out])
        assert results[0] == results[1], name
        for i in range(100):
            alone = word.eval_batch([c[i : i + 1].copy() for c in points])
            assert [c.tobytes() for c in alone] == [r[16 * i : 16 * i + 16] for r in results[0]], name


def test_batch_step_never_writes_into_its_inputs():
    shear = MapWord((ElementaryMap(K.SHEAR, (1.0, 1.0), 3.0),))
    for word in (WORDS["F3(1,1,3)"], WORDS["K3 unequal"], shear):
        for size in (1, 7, 20_000):
            coords = random_coords(word.dim, size, seed=4)
            before = [c.tobytes() for c in coords]
            out = word.eval_batch(coords)
            assert [c.tobytes() for c in coords] == before
    # a shear leaves the z's as they are and returns the caller's own arrays
    assert all(a is b for a, b in zip(out[:-1], coords[:-1]))


@BATCH_SETTINGS
@given(word_and_points(points, n=16))
def test_batch_step_matches_scalar_step_elementwise(case):
    name, pts = case
    word = WORDS[name]
    out = word.eval_batch([np.array([p[i] for p in pts]) for i in range(word.dim)])
    for i, p in enumerate(pts):
        scalar = word(p)
        batch = tuple(complex(c[i]) for c in out)
        assert finite(batch) == finite(scalar)
        if finite(scalar) and max(abs(x) for x in p) <= 1.0:
            scale = max(1.0, max(abs(x) for x in scalar))
            assert max(abs(x - y) for x, y in zip(scalar, batch)) <= 1e-9 * scale


# ----------------------------------------------------------------------
# jets


def factor_jet_oracle(f: ElementaryMap, order: int) -> JetMap:
    """The closed form of each kind, written out on jets."""
    n = f.dim
    k = len(f.weights)
    xs = [Jet.variable(n, order, i) for i in range(n)]
    w = xs[k]
    zeta = Jet.monomial(n, order, (1,) * k + (0,))
    if f.kind is K.SHEAR:
        return JetMap([*xs[:k], w - zeta])
    if f.kind is K.SHEAR_INV:
        return JetMap([*xs[:k], w + zeta])
    if f.kind is K.OVERSHEAR:
        return JetMap([*(z * (w * a).exp() for z, a in zip(xs, f.weights)), w])
    if f.kind is K.OVERSHEAR_INV:
        return JetMap([*(z * (w * -a).exp() for z, a in zip(xs, f.weights)), w])
    total = sum(f.weights)
    rate = total + f.w_coeff
    if f.kind is K.TWIST:
        return JetMap([*xs[:k], w * (zeta * -rate).exp() + zeta * zeta * total])
    return JetMap([*xs[:k], (w - zeta * zeta * total) * (zeta * rate).exp()])


def prototype_jet_oracle(proto: Prototype, order: int) -> JetMap:
    if proto.kind == "quadratic_1d":
        z = Jet.variable(1, order, 0)
        return JetMap([z + z * z * proto.a])
    z, w = Jet.variable(2, order, 0), Jet.variable(2, order, 1)
    factor = Jet.constant(2, order, 1.0) + z * w * 0.5
    return JetMap([z * factor, w * factor])


def jet_bits(jet_map: JetMap) -> list:
    """Every term with the repr of its real and imaginary parts, so signed
    zeros count."""
    return [
        (c.k, c.order, [(e, repr(x.real), repr(x.imag)) for e, x in c.sorted_terms()])
        for c in jet_map.components
    ]


FACTOR_WEIGHTS = {
    "equal": lambda k: (1.0,) * k,
    "unequal": lambda k: tuple(0.5 * (i + 1) * (-1) ** i for i in range(k)),
    "signed zeros": lambda k: tuple(-0.0 if i % 2 else 0.0 for i in range(k)),
    "zero and one": lambda k: tuple(-0.0 if i % 2 else 1.0 for i in range(k)),
}


@pytest.mark.parametrize("weights", sorted(FACTOR_WEIGHTS))
def test_factor_jets_are_bitwise_the_closed_forms(weights):
    for kind in ElementaryKind:
        for k in range(1, 5):
            f = ElementaryMap(kind, FACTOR_WEIGHTS[weights](k), 3.0)
            for order in range(13):
                assert jet_bits(f.jet(order)) == jet_bits(factor_jet_oracle(f, order)), (kind, k, order)


def test_prototype_jets_are_bitwise_the_closed_forms():
    for proto in (Prototype("quadratic_1d", 1.0), Prototype("quadratic_1d", -2.5),
                  Prototype("quadratic_1d", 0.1), Prototype("product_2d")):
        for order in range(13):
            assert jet_bits(proto.jet(order)) == jet_bits(prototype_jet_oracle(proto, order))


def test_pushforward_jet_is_the_pushed_forward_word_jet():
    for params in (Params(1.0, 1.0, 3.0), Params(0.5, 2.0, -1.5)):
        g = PushforwardMap(build_F(params))
        for order in (0, 1, 3, 6):
            assert jet_bits(g.jet(order)) == jet_bits(push_forward(g.word.jet(2 * order)))


# ----------------------------------------------------------------------
# pickling


def test_word_and_pushforward_survive_pickle():
    for word in WORDS.values():
        back = pickle.loads(pickle.dumps(word))
        assert back == word and hash(back) == hash(word)
        q = (0.1j,) * word.dim
        assert bits(back(q)) == bits(word(q))
    g = PushforwardMap(WORDS["F3(1,1,3)"])
    back = pickle.loads(pickle.dumps(g))
    assert back == g
    q = (0.05 + 0.02j, 0.1 - 0.03j)
    assert bits(back(q)) == bits(g(q))

