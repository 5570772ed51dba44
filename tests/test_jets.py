"""Jet engine tests.

Derived expectations come from independent oracles: direct pointwise
evaluation of the polynomials, finite differences for the Jacobian and
analytic remainder bounds for truncation.  Property tests use dyadic
rational coefficients (m/16 with small m) so that every product and sum
is exact in double precision and ring identities hold bitwise.
"""

import cmath
import itertools
import json
import math
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearbasins.jets import (
    PRUNE_THRESHOLD,
    DimensionError,
    DomainError,
    Jet,
    JetMap,
    OrderRangeError,
    format_jet,
    grlex_key,
)
from shearbasins.maps import build_family


def dyadic_jet(rng, k, order, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        while True:
            e = tuple(rng.randint(0, order) for _ in range(k))
            if sum(e) <= order:
                break
        terms[e] = complex((rng.randint(-32, 32) or 1) / 16.0, (rng.randint(-32, 32) or 1) / 16.0)
    return Jet(k, order, terms)


def jacobian(jet_map: JetMap) -> list[list[Jet]]:
    """Matrix of partial derivatives; entry (i, j) is d component_i / d x_j."""
    return [[c.derivative(j) for j in range(jet_map.k)] for c in jet_map.components]


def random_point(rng, k, radius):
    out = []
    for _ in range(k):
        r = radius * math.sqrt(rng.random())
        th = 2 * math.pi * rng.random()
        out.append(complex(r * math.cos(th), r * math.sin(th)))
    return tuple(out)


# ----------------------------------------------------------------------
# construction and bookkeeping


def test_constructor_validates_exponents():
    with pytest.raises(DimensionError):
        Jet(2, 4, {(1, 2, 3): 1.0})
    with pytest.raises(OrderRangeError):
        Jet(2, 2, {(2, 1): 1.0})
    with pytest.raises(ValueError):
        Jet(2, 4, {(-1, 0): 1.0})


def test_prune_threshold_drops_noise():
    jet = Jet(2, 3, {(1, 0): 1.0, (0, 1): 1e-15})
    assert jet.terms == {(1, 0): 1.0}


def test_coefficient_whose_modulus_overflows_is_a_domain_error():
    """abs() of a finite complex above the largest float raises OverflowError;
    the prune rule turns it into a DomainError naming the overflow."""
    with pytest.raises(DomainError, match="overflows"):
        Jet(1, 1, {(1,): complex(1.5e308, 1.5e308)})
    big = Jet(1, 1, {(1,): complex(1e308, 1e308)})
    with pytest.raises(DomainError, match="overflows"):
        big * 1.5
    with pytest.raises(DomainError, match="overflows"):
        Jet(1, 1, {(1,): 1.5e308}) + Jet(1, 1, {(1,): 1.5e308j})
    assert math.isinf((big + big).coefficient((1,)).real)  # an infinite part is kept, as before


def test_nan_coefficient_is_kept():
    jet = Jet(2, 3, {(1, 0): math.nan, (0, 1): complex(0.0, math.nan)})
    assert set(jet.terms) == {(1, 0), (0, 1)}
    assert all(cmath.isnan(c) for c in jet.terms.values())


def test_monomial_truncates_out_of_range():
    assert Jet.monomial(3, 2, (1, 1, 1)).is_zero()


@pytest.mark.parametrize(
    "exponents, error", [((5, 0, 0), DimensionError), ((-1, 9), ValueError), ((1, 2, 3), DimensionError)]
)
def test_monomial_validates_exponents_beyond_the_order(exponents, error):
    with pytest.raises(error):
        Jet.monomial(2, 3, exponents)


def test_grlex_iteration_order():
    jet = Jet(2, 3, {(0, 2): 1.0, (1, 0): 1.0, (3, 0): 1.0, (0, 0): 1.0, (1, 1): 1.0})
    assert [e for e, _ in jet.sorted_terms()] == [(0, 0), (1, 0), (0, 2), (1, 1), (3, 0)]
    assert grlex_key((0, 2)) < grlex_key((1, 1))


# ----------------------------------------------------------------------
# addition


def test_add_simple():
    one_plus_z = Jet(1, 3, {(0,): 1.0, (1,): 1.0})
    minus_one_plus_z = Jet(1, 3, {(0,): -1.0, (1,): 1.0})
    assert one_plus_z + minus_one_plus_z == Jet(1, 3, {(1,): 2.0})


def test_add_zero_identity():
    rng = random.Random(1)
    f = dyadic_jet(rng, 3, 4)
    assert f + Jet(3, 4, {}) == f


def test_add_dimension_errors():
    with pytest.raises(DimensionError):
        Jet(2, 3, {}) + Jet(3, 3, {})
    with pytest.raises(DimensionError):
        Jet(2, 3, {}) + Jet(2, 4, {})


def test_add_evaluation_oracle():
    rng = random.Random(2)
    for _ in range(50):
        f = dyadic_jet(rng, 3, 5)
        g = dyadic_jet(rng, 3, 5)
        p = random_point(rng, 3, 0.5)
        assert abs((f + g)(p) - (f(p) + g(p))) <= 1e-12


# ----------------------------------------------------------------------
# multiplication


def test_mul_simple():
    one_plus_z = Jet(1, 4, {(0,): 1.0, (1,): 1.0})
    one_minus_z = Jet(1, 4, {(0,): 1.0, (1,): -1.0})
    assert one_plus_z * one_minus_z == Jet(1, 4, {(0,): 1.0, (2,): -1.0})


def test_mul_truncation_rule():
    z = Jet.variable(3, 2, 0)
    zt = Jet.monomial(3, 2, (1, 1, 0))
    assert (z * zt).is_zero()


def test_mul_evaluation_oracle_with_remainder_bound():
    rng = random.Random(3)
    order, radius = 5, 0.1
    for _ in range(50):
        f = dyadic_jet(rng, 3, order)
        g = dyadic_jet(rng, 3, order)
        p = random_point(rng, 3, radius)
        bound = 10.0 * max(1.0, f.l1_norm() * g.l1_norm()) * radius ** (order + 1)
        assert abs((f * g)(p) - f(p) * g(p)) <= bound


def test_ring_axioms_exact_for_dyadic_coefficients():
    rng = random.Random(4)
    for _ in range(30):
        f = dyadic_jet(rng, 3, 6)
        g = dyadic_jet(rng, 3, 6)
        h = dyadic_jet(rng, 3, 6)
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def per_pair_product(f, g):
    """Every pair of terms, left factor in grlex order, each sum from 0j."""
    acc = {}
    for ea, ca in f.sorted_terms():
        for eb, cb in g.sorted_terms():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= f.order:
                acc[e] = acc.get(e, 0j) + ca * cb
    return {e: c for e, c in acc.items() if abs(c) >= PRUNE_THRESHOLD}


def bits(terms):
    return {e: struct.pack("<dd", c.real, c.imag) for e, c in terms.items()}


@st.composite
def jet_pairs(draw):
    """Two jets with non-dyadic coefficients.

    One pair of terms has degrees summing exactly to the order, and on
    request two products land on one monomial and cancel to roundoff.
    """
    k = draw(st.integers(1, 5))
    order = draw(st.integers(0, 12))

    def exponent(degree):
        e = [0] * k
        for _ in range(degree):
            e[draw(st.integers(0, k - 1))] += 1
        return tuple(e)

    def coeff():
        return draw(st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)) / 3

    def terms():
        n = draw(st.integers(0, 10))
        return {exponent(draw(st.integers(0, order))): coeff() for _ in range(n)}

    f, g = terms(), terms()
    d = draw(st.integers(0, order))
    f[exponent(d)] = coeff()
    g[exponent(order - d)] = coeff()
    if order >= 1 and draw(st.booleans()):
        du = draw(st.integers(0, order - 1))
        u, v = exponent(du), exponent(draw(st.integers(1, order - du)))
        p, q, r = (complex(draw(st.floats(0.25, 4)), draw(st.floats(-4, 4))) / 3 for _ in range(3))
        f.update({u: p, v: q})
        g.update({v: r, u: -(p * r) / q})
    return Jet(k, order, f), Jet(k, order, g)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(jet_pairs())
def test_product_is_bitwise_the_per_pair_convolution(pair):
    f, g = pair
    h = f * g
    assert (h.k, h.order) == (f.k, f.order)
    assert bits(h.terms) == bits(per_pair_product(f, g))


def test_product_prunes_cancellations_below_threshold():
    x, y = Jet.variable(2, 4, 0), Jet.variable(2, 4, 1)
    assert ((x + y * 1e-8) * (x - y * 1e-8)).terms == {(2, 0): 1.0}
    assert ((x + y * 1e-8) * (x - y * 1e-8 * (1 + 2**-52))).terms == {(2, 0): 1.0}


def test_product_of_sparse_jets_allocates_no_dense_buffer():
    rng = random.Random(6)
    f = dyadic_jet(rng, 5, 10, n_terms=12)
    g = dyadic_jet(rng, 5, 10, n_terms=12)
    tracemalloc.start()
    try:
        f * g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense (11,)*5 complex buffer alone takes 2.6 MB
    assert peak < 1_000_000


def test_product_overflow_raises_no_runtime_warning():
    f = Jet(2, 4, {(1, 0): 1e200, (0, 1): 1e200j})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = f * f
    assert math.isinf(h.coefficient((2, 0)).real)
    assert math.isinf(h.coefficient((0, 2)).real)


# ----------------------------------------------------------------------
# results of arithmetic: built from valid terms, only pruned

NEAR_THRESHOLD = [
    s * m * x
    for s in (1.0, -1.0)
    for m in (0.5, 1.0, 1.5, 2.0)
    for x in (math.nextafter(PRUNE_THRESHOLD, 0.0), PRUNE_THRESHOLD, math.nextafter(PRUNE_THRESHOLD, 1.0))
]
SPECIAL_PARTS = st.one_of(
    st.sampled_from(NEAR_THRESHOLD + [0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(-4, 4),
)


@st.composite
def same_space_jets(draw):
    """Two jets of one space; coefficient parts near the threshold, signed zeros, nan, inf."""
    k, order = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    exponent = st.tuples(*[st.integers(0, order)] * k).filter(lambda e: sum(e) <= order)

    def jet():
        keys = draw(st.lists(exponent, max_size=8))
        return Jet(k, order, {e: complex(draw(SPECIAL_PARTS), draw(SPECIAL_PARTS)) for e in keys})

    return jet(), jet()


def assert_valid_result(r):
    """Terms the public constructor would keep unchanged: same keys, same bits."""
    assert bits(Jet(r.k, r.order, r.terms).terms) == bits(r.terms)
    for e, c in r.terms.items():
        assert type(e) is tuple and len(e) == r.k and sum(e) <= r.order
        assert all(type(x) is int and x >= 0 for x in e)
        assert type(c) is complex


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(same_space_jets())
def test_arithmetic_results_keep_the_constructor_invariants(pair):
    f, g = pair
    results = [f + g, f - g, -f, f * g, f * 0, f * math.nan, f * 0.75, 1.5 * f, f / -0.25]
    results.append(Jet(f.k, f.order, {e: c for e, c in f.terms.items() if sum(e)}).exp())
    results += [f.derivative(i) for i in range(f.k)]
    results += [f.homogeneous_part(d) for d in range(f.order + 1)]
    for r in results:
        assert_valid_result(r)


def test_arithmetic_makes_no_public_constructor_calls(monkeypatch):
    rng = random.Random(16)
    exponents = [e for e in itertools.product(range(9), repeat=3) if sum(e) <= 8]
    f, g = (Jet(3, 8, {e: complex(rng.randint(1, 32) / 16, 0.5) for e in rng.sample(exponents, 30)}) for _ in range(2))
    assert len(f.terms) == len(g.terms) == 30
    calls = []
    init = Jet.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Jet, "__init__", counting_init)
    _ = (f + g, f - g, f * g, -f, f.derivative(0), f.homogeneous_part(2))
    assert calls == []
    jet = build_family(4, (1.0,) * 4, 5.0).jet(10)
    assert len(calls) < sum(len(c.terms) for c in jet.components)


# ----------------------------------------------------------------------
# exponential


def test_exp_of_zero():
    assert Jet(2, 4, {}).exp() == Jet.constant(2, 4, 1.0)


def test_exp_taylor_coefficients():
    w = Jet.variable(1, 2, 0)
    assert w.exp() == Jet(1, 2, {(0,): 1.0, (1,): 1.0, (2,): 0.5})


def test_exp_group_law_exact_after_pruning():
    for order in (2, 5, 9):
        aw = Jet.variable(3, order, 2) * 1.7
        assert aw.exp() * (-aw).exp() == Jet.constant(3, order, 1.0)


def test_exp_rejects_constant_term():
    with pytest.raises(DomainError):
        Jet.constant(2, 4, 0.5).exp()
    with pytest.raises(DomainError):
        Jet(1, 3, {(0,): math.nan, (1,): 1.0}).exp()


def test_exp_evaluation_oracle():
    rng = random.Random(6)
    order, radius = 8, 0.1
    for _ in range(20):
        f = dyadic_jet(rng, 2, order)
        f = f - Jet.constant(2, order, f.coefficient((0, 0)))
        p = random_point(rng, 2, radius)
        bound = 10.0 * math.exp(f.l1_norm()) * max(1.0, f.l1_norm()) ** (order + 1) * radius ** (order + 1)
        assert abs(f.exp()(p) - np.exp(f(p))) <= bound


# ----------------------------------------------------------------------
# composition


def origin_map(rng, k, order):
    comps = []
    for _ in range(k):
        jet = dyadic_jet(rng, k, order, n_terms=5)
        comps.append(jet - Jet.constant(k, order, jet.coefficient((0,) * k)))
    return JetMap(comps)


def test_compose_with_identity_both_sides():
    rng = random.Random(7)
    f = origin_map(rng, 3, 5)
    ident = JetMap.identity(3, 5)
    assert f.compose(ident) == f
    assert ident.compose(f) == f


def test_compose_requires_origin_preserving_inner():
    shifted = JetMap([Jet.constant(2, 3, 1.0), Jet.variable(2, 3, 1)])
    with pytest.raises(DomainError):
        JetMap.identity(2, 3).compose(shifted)


def test_compose_arity_mismatch():
    outer = JetMap.identity(3, 4)
    inner = JetMap.identity(2, 4)
    with pytest.raises(DimensionError):
        outer.compose(inner)


def test_compose_associativity_exact():
    rng = random.Random(8)
    for _ in range(10):
        a = origin_map(rng, 3, 5)
        b = origin_map(rng, 3, 5)
        c = origin_map(rng, 3, 5)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_evaluation_oracle():
    rng = random.Random(9)
    order, radius = 6, 0.1
    for _ in range(10):
        a = origin_map(rng, 2, order)
        b = origin_map(rng, 2, order)
        p = random_point(rng, 2, radius)
        direct = a(b(p))
        via_jet = a.compose(b)(p)
        scale = max(1.0, sum(c.l1_norm() for c in a.components)) * max(
            1.0, sum(c.l1_norm() for c in b.components)
        ) ** order
        bound = 10.0 * scale * radius ** (order + 1)
        assert max(abs(x - y) for x, y in zip(direct, via_jet)) <= bound


# ----------------------------------------------------------------------
# evaluation


def test_eval_monomial():
    zt = Jet.monomial(3, 4, (1, 1, 0))
    assert zt((2, 3, 5)) == 6


def test_eval_constant():
    assert Jet.constant(3, 4, 7.0)((1j, 2, -3)) == 7.0


def test_eval_dimension_error():
    with pytest.raises(DimensionError):
        Jet.constant(3, 4, 1.0)((1, 2))


# ----------------------------------------------------------------------
# homogeneous parts, derivative, jacobian


def test_homogeneous_part_range_error():
    with pytest.raises(OrderRangeError):
        Jet.constant(2, 3, 1.0).homogeneous_part(4)


def test_homogeneous_part_picks_exact_degree():
    jet = Jet(2, 3, {(0, 0): 1.0, (1, 0): 2.0, (1, 1): 3.0, (3, 0): 4.0})
    assert jet.homogeneous_part(2) == Jet(2, 3, {(1, 1): 3.0})


def test_jacobian_of_identity():
    jac = jacobian(JetMap.identity(3, 4))
    for i in range(3):
        for j in range(3):
            want = Jet.constant(3, 3, 1.0) if i == j else Jet(3, 3, {})
            assert jac[i][j] == want


def test_jacobian_polynomial_example():
    # component pair (-2 x^2, -3 x y) in variables (x, y)
    part = JetMap([Jet(2, 2, {(2, 0): -2.0}), Jet(2, 2, {(1, 1): -3.0})])
    jac = jacobian(part)
    assert jac[0][0] == Jet(2, 1, {(1, 0): -4.0})
    assert jac[0][1] == Jet(2, 1, {})
    assert jac[1][0] == Jet(2, 1, {(0, 1): -3.0})
    assert jac[1][1] == Jet(2, 1, {(1, 0): -3.0})


def test_jacobian_against_finite_differences():
    rng = random.Random(10)
    f = JetMap([dyadic_jet(rng, 3, 5) for _ in range(3)])
    jac = jacobian(f)
    h = 1e-5
    for _ in range(20):
        p = random_point(rng, 3, 0.3)
        j = rng.randrange(3)
        shifted_plus = tuple(x + (h if m == j else 0) for m, x in enumerate(p))
        shifted_minus = tuple(x - (h if m == j else 0) for m, x in enumerate(p))
        for i in range(3):
            fd = (f.components[i](shifted_plus) - f.components[i](shifted_minus)) / (2 * h)
            assert abs(jac[i][j](p) - fd) <= 1e-6


def test_euler_identity_for_homogeneous_parts():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(2, 4)
        comps = []
        for _ in range(3):
            terms = {}
            for _ in range(4):
                while True:
                    e = tuple(rng.randint(0, d) for _ in range(3))
                    if sum(e) == d:
                        break
                terms[e] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            comps.append(Jet(3, d, terms))
        part = JetMap(comps)
        jac = jacobian(part)
        v = random_point(rng, 3, 1.0)
        dp_v = np.array([[jac[i][j](v) for j in range(3)] for i in range(3)])
        assert np.max(np.abs(dp_v @ np.array(v) - d * np.array(part(v)))) <= 1e-10


# ----------------------------------------------------------------------
# serialization and display


def test_json_roundtrip_and_term_order():
    rng = random.Random(12)
    jet = dyadic_jet(rng, 3, 5)
    data = jet.to_dict()
    assert Jet.from_dict(data) == jet
    keys = [tuple(t["e"]) for t in data["terms"]]
    assert keys == sorted(keys, key=grlex_key)
    # stable bytes through json round trip
    assert json.dumps(data, sort_keys=True) == json.dumps(Jet.from_dict(data).to_dict(), sort_keys=True)


def test_format_jet_readable():
    jet = Jet(3, 4, {(1, 0, 0): 1.0, (2, 1, 0): -1.0})
    assert format_jet(jet, ("z", "t", "w")) == "z - z^2*t"


def test_jetmap_requires_uniform_components():
    with pytest.raises(DimensionError):
        JetMap([Jet.constant(2, 3, 1.0), Jet.constant(2, 4, 1.0)])
