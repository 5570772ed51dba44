"""Map construction tests.

The strongest oracle here is an independent closed form for the composed
word, derived by hand by chasing a point through the five factors:

    F1 = z exp(-a zeta E),  F2 = t exp(-b zeta E),   E = exp((a+b)(w - zeta))
    u  = zeta exp(-(a+b) zeta E)
    F3 = (w - zeta + zeta E) exp(-(a+b+c) u) + (a+b) u^2

with zeta = z t.  Everything symbolic (jets of the word, the induced
planar map, normal-form coefficients) is checked against this formula or
against direct evaluation at sampled points.
"""

import cmath
import math
import pickle
import random

import pytest

from shearbasins.jets import DimensionError, DomainError, Jet, JetMap
from shearbasins.maps import (
    ElementaryKind,
    ElementaryMap,
    MapWord,
    Params,
    Prototype,
    SemiConjugacyError,
    build_F,
    build_family,
    eval_pushforward,
    family_in_regime,
    map_from_spec,
    planar_word,
    project_pi,
    push_forward,
    verify_normal_form,
)

P113 = Params(1.0, 1.0, 3.0)


def direct_F(p, a, b, c):
    """Hand-derived closed form of the five-factor word (independent oracle)."""
    z, t, w = (complex(x) for x in p)
    zeta = z * t
    E = cmath.exp((a + b) * (w - zeta))
    u = zeta * cmath.exp(-(a + b) * zeta * E)
    w3 = w - zeta + zeta * E
    return (
        z * cmath.exp(-a * zeta * E),
        t * cmath.exp(-b * zeta * E),
        w3 * cmath.exp(-(a + b + c) * u) + (a + b) * u * u,
    )


def disk(rng, radius):
    r = radius * math.sqrt(rng.random())
    th = 2 * math.pi * rng.random()
    return complex(r * math.cos(th), r * math.sin(th))


def ball_point(rng, dim, radius):
    per = radius / math.sqrt(dim)
    return tuple(disk(rng, per) for _ in range(dim))


# ----------------------------------------------------------------------
# elementary maps


def test_shear_closed_form():
    shear = MapWord((ElementaryMap(ElementaryKind.SHEAR, (1.0, 1.0), 3.0),))
    assert shear((1, 2, 3)) == (1, 2, 1)


def test_overshear_fixes_zero_w():
    overshear = MapWord((ElementaryMap(ElementaryKind.OVERSHEAR, (1.0, 1.0), 3.0),))
    assert overshear((1, 1, 0)) == (1, 1, 0)


def test_each_kind_inverts():
    rng = random.Random(0)
    for kind in ElementaryKind:
        factor = MapWord((ElementaryMap(kind, (1.0, 1.0), 3.0),))
        worst = 0.0
        for _ in range(100):
            p = ball_point(rng, 3, 1.0)
            q = factor.inverse()(factor(p))
            worst = max(worst, max(abs(x - y) for x, y in zip(p, q)))
        assert worst <= 1e-13, kind


def test_twist_round_trip_radius_one():
    factor = ElementaryMap(ElementaryKind.TWIST, (1.0, 1.0), 3.0)
    twist = MapWord((factor,))
    rng = random.Random(1)
    for _ in range(100):
        p = ball_point(rng, 3, 1.0)
        q = twist(twist.inverse()(p))
        assert max(abs(x - y) for x, y in zip(p, q)) <= 1e-13
    assert pickle.loads(pickle.dumps(factor)) == factor
    assert hash(factor) == hash(ElementaryMap(ElementaryKind.TWIST, (1.0, 1.0), 3.0))


def test_shear_jet_is_exact_polynomial():
    shear = MapWord((ElementaryMap(ElementaryKind.SHEAR, (1.0, 1.0), 3.0),))
    jet = shear.jet(4)
    assert jet == JetMap(
        [
            Jet.variable(3, 4, 0),
            Jet.variable(3, 4, 1),
            Jet(3, 4, {(0, 0, 1): 1.0, (1, 1, 0): -1.0}),
        ]
    )


# ----------------------------------------------------------------------
# the composed word


def test_build_F_has_five_factors_and_fixes_origin():
    word = build_F(P113)
    assert len(word.factors) == 5
    assert word((0j, 0j, 0j)) == (0j, 0j, 0j)


def test_build_F_rejects_zero_parameters():
    with pytest.raises(DomainError):
        Params(0.0, 1.0, 3.0)
    with pytest.raises(DomainError):
        build_family(2, (1.0, 0.0), 3.0)


def test_word_matches_hand_derived_closed_form():
    word = build_F(P113)
    rng = random.Random(2)
    for _ in range(200):
        p = ball_point(rng, 3, 0.5)
        q1 = word(p)
        q2 = direct_F(p, 1.0, 1.0, 3.0)
        assert max(abs(x - y) for x, y in zip(q1, q2)) <= 1e-14


def test_fixed_planes_evaluate_to_identity():
    word = build_F(P113)
    rng = random.Random(3)
    for _ in range(50):
        z, w = disk(rng, 0.5), disk(rng, 0.5)
        for p in ((z, 0j, w), (0j, z, w)):
            q = word(p)
            # only an exponential round trip separates q from p
            assert max(abs(x - y) for x, y in zip(p, q)) <= 1e-15


def test_symmetry_t_F1_equals_z_F2_numerically():
    word = build_F(P113)
    rng = random.Random(4)
    for _ in range(100):
        p = ball_point(rng, 3, 0.5)
        q = word(p)
        assert abs(p[1] * q[0] - p[0] * q[1]) <= 1e-13


def test_symmetry_as_jets_when_a_equals_b():
    jet = build_F(P113).jet(8)
    z = Jet.variable(3, 8, 0)
    t = Jet.variable(3, 8, 1)
    assert (t * jet.components[0]).allclose(z * jet.components[1], tol=1e-12)


def test_eval_word_dimension_check():
    with pytest.raises(DimensionError):
        build_F(P113)((1, 2))


def test_eval_word_propagates_divergence_without_raising():
    word = build_F(P113)
    q = word((1e200, 1e200, 0.0))
    assert any(not math.isfinite(x.real) for x in q)


# ----------------------------------------------------------------------
# inversion


def test_invert_word_is_involution():
    word = build_F(P113)
    assert word.inverse().inverse() == word


def test_inverse_round_trip_numeric():
    word = build_F(P113)
    inv = word.inverse()
    rng = random.Random(5)
    for _ in range(100):
        p = ball_point(rng, 3, 0.5)
        q = inv(word(p))
        assert max(abs(x - y) for x, y in zip(p, q)) <= 1e-12


def test_inverse_round_trip_as_jets():
    word = build_F(P113)
    round_trip = word.inverse().then(word).jet(6)
    defect = round_trip.minus_identity().max_abs_diff(JetMap([Jet(3, 6, {})] * 3))
    assert defect < 1e-12


# ----------------------------------------------------------------------
# jets of the word


def test_degree_three_jet_of_F113():
    jet = build_F(P113).jet(3)
    assert jet == JetMap(
        [
            Jet(3, 3, {(1, 0, 0): 1.0, (2, 1, 0): -1.0}),
            Jet(3, 3, {(0, 1, 0): 1.0, (1, 2, 0): -1.0}),
            Jet(3, 3, {(0, 0, 1): 1.0, (1, 1, 1): -3.0}),
        ]
    )


def test_homogeneous_parts_of_F113():
    jet = build_F(P113).jet(6)
    assert jet.homogeneous_part(1).allclose(JetMap.identity(3, 6))
    assert all(c.is_zero() for c in jet.homogeneous_part(2).components)
    deg3 = jet.homogeneous_part(3)
    assert deg3.allclose(
        JetMap(
            [
                Jet(3, 6, {(2, 1, 0): -1.0}),
                Jet(3, 6, {(1, 2, 0): -1.0}),
                Jet(3, 6, {(1, 1, 1): -3.0}),
            ]
        )
    )


def test_low_order_remainder_coefficients_match_hand_expansion():
    # with A = a+b: coeff(zeta^3, F3) = A c - A^2/2 = 4, coeff(zeta w^2, F3) = A^2/2 = 2
    jet = build_F(P113).jet(6)
    f3 = jet.components[2]
    assert abs(f3.coefficient((3, 3, 0)) - 4.0) <= 1e-12
    assert abs(f3.coefficient((1, 1, 2)) - 2.0) <= 1e-12


def test_jet_evaluation_matches_exact_word():
    word = build_F(P113)
    jet = word.jet(8)
    rng = random.Random(6)
    for _ in range(30):
        p = ball_point(rng, 3, 0.05)
        exact = word(p)
        approx = jet(p)
        assert max(abs(x - y) for x, y in zip(exact, approx)) <= 1e-9


# ----------------------------------------------------------------------
# normal form report


def test_verify_form_passes_for_built_word():
    report = verify_normal_form(build_F(P113).jet(8), (P113.a, P113.b), P113.c)
    assert report.passed
    assert len(report.checks) == 5


def test_verify_form_fails_without_twist_factor():
    word = build_F(P113)
    four_factor = MapWord(word.factors[1:])
    report = verify_normal_form(four_factor.jet(8), (P113.a, P113.b), P113.c)
    ideal_w = report["ideal_Fw"]
    assert not ideal_w.ok
    # a pure zeta^2 monomial without the w factor is the witness
    assert "(2, 2, 0)" in ideal_w.note


def test_verify_form_identity_map_fails_coefficient_checks():
    report = verify_normal_form(JetMap.identity(3, 8), (P113.a, P113.b), P113.c)
    assert not report["coeff_F1"].ok
    assert not report["coeff_F2"].ok
    assert not report["coeff_Fw"].ok


@pytest.mark.parametrize(
    "component, exponent, failing",
    [
        (0, (2, 1, 0), ["coeff_F1", "ideal_Fz"]),  # the zeta term of F_1
        (0, (3, 2, 0), ["ideal_Fz"]),  # z * zeta^2, inside the remainder ideal
        (2, (2, 2, 1), ["ideal_Fw"]),  # w * zeta^2, inside the remainder ideal
    ],
)
def test_verify_form_fails_on_a_nan_coefficient(component, exponent, failing):
    jet = build_F(P113).jet(8)
    comps = list(jet.components)
    comps[component] = Jet(3, 8, {**comps[component].terms, exponent: complex(math.nan)})
    report = verify_normal_form(JetMap(comps), (P113.a, P113.b), P113.c)
    assert [c.name for c in report.checks if not c.ok] == failing


def test_verify_form_dimension_error():
    with pytest.raises(DimensionError):
        verify_normal_form(JetMap.identity(2, 8), (P113.a, P113.b), P113.c)


# ----------------------------------------------------------------------
# projection and the induced planar map


def test_project_pi_values():
    assert project_pi((2, 3, 5)) == (6, 5)
    assert project_pi((1.5, 0, 7)) == (0, 7)


def test_project_pi_fiber_invariance():
    rng = random.Random(7)
    for _ in range(20):
        p = ball_point(rng, 3, 0.5)
        lam = 2.0
        assert project_pi((lam * p[0], p[1] / lam, p[2])) == pytest.approx(project_pi(p))


def test_push_forward_coefficients_match_planar_form():
    g = push_forward(build_F(P113).jet(8))
    g1, g2 = g.components
    assert abs(g1.coefficient((1, 0)) - 1.0) <= 1e-12
    assert abs(g1.coefficient((2, 0)) + 2.0) <= 1e-12  # -2a
    assert abs(g2.coefficient((0, 1)) - 1.0) <= 1e-12
    assert abs(g2.coefficient((1, 1)) + 3.0) <= 1e-12  # -c


def test_push_forward_order_is_halved():
    assert push_forward(build_F(P113).jet(8)).order == 4
    assert push_forward(build_F(P113).jet(16)).order == 8


def test_push_forward_rejects_non_product_structure():
    broken = JetMap(
        [
            Jet(3, 4, {(1, 0, 0): 1.0, (0, 3, 0): 1.0}),
            Jet.variable(3, 4, 1),
            Jet.variable(3, 4, 2),
        ]
    )
    with pytest.raises(SemiConjugacyError):
        push_forward(broken)


def test_eval_pushforward_fixes_the_x_zero_line():
    word = build_F(P113)
    assert eval_pushforward(word, (0j, 0.3 + 0.1j)) == (0j, 0.3 + 0.1j)


def test_eval_pushforward_matches_planar_jet():
    word = build_F(P113)
    g = push_forward(word.jet(16))  # planar jet complete to order 8
    rng = random.Random(8)
    for _ in range(30):
        q = ball_point(rng, 2, 0.05)
        exact = eval_pushforward(word, q)
        approx = g(q)
        assert max(abs(x - y) for x, y in zip(exact, approx)) <= 1e-8


def test_eval_pushforward_branch_independent():
    word = build_F(P113)
    rng = random.Random(9)
    for _ in range(50):
        x, y = disk(rng, 0.3), disk(rng, 0.3)
        s = cmath.sqrt(x)
        plus = project_pi(word((s, s, y)))
        minus = project_pi(word((-s, -s, y)))
        assert max(abs(a - b) for a, b in zip(plus, minus)) < 1e-13


def conditioned_defect(x, y) -> float:
    """Largest coordinate error relative to |y| ln|y|, the condition of exp at y.

    The w-coordinate of G grows doubly exponentially (to 1e150 on the
    square below), so a rounding of its exponent's argument shows up
    multiplied by that argument, about ln|y|.
    """
    worst = 0.0
    for a, b in zip(x, y):
        scale = max(abs(a), abs(b))
        if scale:
            worst = max(worst, abs(a - b) / (scale * max(1.0, math.log(scale))))
    return worst


@pytest.mark.parametrize("params", [Params(1.0, 1.0, 3.0), Params(2.0, 0.5, 1.3)])
def test_zeta_word_agrees_with_the_square_root_lift(params):
    word = build_F(params)
    g = planar_word(word)
    assert g.dim == 2 and [f.kind for f in g.factors] == [f.kind for f in word.factors]
    assert all(f.weights == (params.a + params.b,) and f.w_coeff == params.c for f in g.factors)
    rng = random.Random(12)
    worst = 0.0
    for _ in range(2000):
        q = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(2))
        worst = max(worst, conditioned_defect(g(q), eval_pushforward(word, q)))
    assert worst <= 1e-12


def test_family_word_projects_onto_its_zeta_word():
    word = build_family(3, (0.7, 0.3, 1.1), 5.3)
    g = planar_word(word)
    assert g.dim == 2 and all(f.weights == (0.7 + 0.3 + 1.1,) for f in g.factors)
    rng = random.Random(13)
    worst = 0.0
    for _ in range(500):
        p = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(4))
        image = word(p)
        lhs = (image[0] * image[1] * image[2], image[3])
        worst = max(worst, conditioned_defect(lhs, g((p[0] * p[1] * p[2], p[3]))))
    assert worst <= 1e-12


def test_semiconjugacy_pointwise():
    word = build_F(P113)
    rng = random.Random(10)
    worst = 0.0
    for _ in range(100):
        p = ball_point(rng, 3, 0.5)
        lhs = project_pi(word(p))
        rhs = eval_pushforward(word, project_pi(p))
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
    assert worst <= 1e-12


def test_equivariance_of_the_word():
    word = build_F(P113)
    rng = random.Random(11)
    worst = 0.0
    for _ in range(50):
        p = ball_point(rng, 3, 0.25)
        lam = cmath.exp(2j * math.pi * rng.random()) * (0.5 + 1.5 * rng.random())
        gauged = word((lam * p[0], p[1] / lam, p[2]))
        base = word(p)
        worst = max(
            worst,
            abs(gauged[0] - lam * base[0]),
            abs(gauged[1] - base[1] / lam),
            abs(gauged[2] - base[2]),
        )
    assert worst <= 1e-12


# ----------------------------------------------------------------------
# the C^{k+1} family


def test_family_k2_is_the_three_dimensional_word():
    family = build_family(2, (1.0, 1.0), 3.0)
    assert family.jet(6).allclose(build_F(P113).jet(6), tol=1e-12)


def test_family_requires_enough_coordinates():
    with pytest.raises(DimensionError):
        build_family(1, (1.0,), 2.0)


def test_family_fixed_hyperplanes():
    word = build_family(3, (1.0, 1.0, 1.0), 4.0)
    rng = random.Random(12)
    for _ in range(20):
        p = list(ball_point(rng, 4, 0.5))
        i = rng.randrange(3)
        p[i] = 0j
        q = word(tuple(p))
        assert max(abs(x - y) for x, y in zip(p, q)) <= 1e-15


def test_family_normal_form_k3():
    weights = (1.0, 1.0, 1.0)
    word = build_family(3, weights, 4.0)
    report = verify_normal_form(word.jet(8), weights, 4.0, note_literal_remainder=True)
    assert report.passed
    # the construction produces zeta*w^2 which the narrow remainder reading excludes
    assert any("narrow" in note for note in report.notes)


def test_family_regime_predicate():
    assert family_in_regime((1.0, 1.0, 1.0), 4.0)
    assert not family_in_regime((1.0, 1.0, 1.0), 3.0)
    assert not family_in_regime((1.0, 2.0, 1.0), 10.0)


def test_family_automorphism_round_trip():
    word = build_family(3, (1.0, 1.0, 1.0), 4.0)
    rng = random.Random(13)
    for _ in range(50):
        p = ball_point(rng, 4, 0.5)
        q = word.inverse()(word(p))
        assert max(abs(x - y) for x, y in zip(p, q)) <= 1e-12


# ----------------------------------------------------------------------
# prototypes


def test_quadratic_prototype_value():
    proto = Prototype("quadratic_1d", 1.0)
    assert proto((-0.1,))[0] == pytest.approx(-0.09, abs=1e-15)


def test_product_prototype_recursion_one_step():
    proto = Prototype("product_2d")
    z, w = 0.1, 0.1
    q = proto((z, w))
    assert q[0] * q[1] == pytest.approx(0.01 * 1.005**2, abs=1e-16)


def test_product_prototype_fixes_axes():
    proto = Prototype("product_2d")
    assert proto((0.3, 0)) == (0.3, 0)
    assert proto((0, 0.4)) == (0, 0.4)


def test_prototype_jets():
    assert Prototype("quadratic_1d", 2.0).jet(2) == JetMap([Jet(1, 2, {(1,): 1.0, (2,): 2.0})])
    jet = Prototype("product_2d").jet(3)
    assert jet == JetMap(
        [
            Jet(2, 3, {(1, 0): 1.0, (2, 1): 0.5}),
            Jet(2, 3, {(0, 1): 1.0, (1, 2): 0.5}),
        ]
    )


# ----------------------------------------------------------------------
# map specification interface


def test_map_from_spec_variants():
    assert isinstance(map_from_spec({"family": "F3", "a": 1, "b": 1, "c": 3}), MapWord)
    g = map_from_spec({"family": "G", "a": 1, "b": 2, "c": 3})
    assert isinstance(g, MapWord) and g.dim == 2
    assert [f.weights for f in g.factors] == [(3.0,)] * 5 and {f.w_coeff for f in g.factors} == {3.0}
    assert isinstance(map_from_spec({"family": "PROTO_1D", "a": 1}), Prototype)
    assert isinstance(map_from_spec({"family": "PROTO_2D"}), Prototype)
    fam = map_from_spec({"family": "FAMILY_K", "k": 3, "a": [1, 1, 1], "b": 4})
    assert fam.dim == 4
    with pytest.raises(ValueError):
        map_from_spec({"family": "NOPE"})
    # the defaults: a = 1, c = 3, k = 3, b = a for F3 and G, b = 4 for FAMILY_K
    assert map_from_spec({"family": "F3"}) == build_F(P113)
    assert map_from_spec({"family": "G"}) == planar_word(build_F(P113))
    assert map_from_spec({"family": "G", "a": 2}) == planar_word(build_F(Params(2.0, 2.0, 3.0)))
    assert map_from_spec({"family": "PROTO_1D"}) == Prototype("quadratic_1d", 1.0)
    assert map_from_spec({"family": "FAMILY_K"}) == build_family(3, (1.0, 1.0, 1.0), 4.0)
    # a is a number or a list; one weight is repeated k times for the family
    assert map_from_spec({"family": "FAMILY_K", "k": 4, "a": [2]}) == build_family(4, (2.0,) * 4, 4.0)
    assert map_from_spec({"family": "FAMILY_K", "k": 2, "a": 2}) == build_family(2, (2.0, 2.0), 4.0)
    with pytest.raises(DimensionError):
        map_from_spec({"family": "FAMILY_K", "k": 3, "a": [1, 2]})
    for family in ("F3", "G", "PROTO_1D"):
        assert map_from_spec({"family": family, "a": [2]}) == map_from_spec({"family": family, "a": 2})
        with pytest.raises(DimensionError):
            map_from_spec({"family": family, "a": [1, 2]})


@pytest.mark.parametrize("family, takes", [
    ("F3", "abc"), ("G", "abc"), ("PROTO_1D", "a"), ("PROTO_2D", ""), ("FAMILY_K", "abk"),
])
def test_map_from_spec_rejects_parameters_the_map_does_not_take(family, takes):
    for key in ("a", "b", "c", "k", "order", "seed"):
        spec = {"family": family, key: 2}
        if key in takes:
            map_from_spec(spec)
        else:
            with pytest.raises(ValueError, match=f"map {family} takes no parameter '{key}'"):
                map_from_spec(spec)


def test_word_jet_that_overflows_is_a_domain_error():
    word = build_F(Params(1e154, 1.0, 3.0))
    assert word.jet(1) == JetMap.identity(3, 1)
    with pytest.raises(DomainError, match="the order-4 jet overflows"):
        word.jet(4)


def test_non_finite_parameters_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        for abc in ((bad, 1.0, 3.0), (1.0, bad, 3.0), (1.0, 1.0, bad)):
            with pytest.raises(DomainError):
                Params(*abc)
        with pytest.raises(DomainError):
            build_family(3, (1.0, bad, 1.0), 4.0)
        with pytest.raises(DomainError):
            build_family(3, (1.0, 1.0, 1.0), bad)
        for kind in ("quadratic_1d", "product_2d"):
            with pytest.raises(DomainError):
                Prototype(kind, bad)
        for family in ("F3", "G", "PROTO_1D", "FAMILY_K"):
            with pytest.raises(DomainError):
                map_from_spec({"family": family, "a": bad})
    # a single factor takes any weight; nan is what keeps its exponential unshared
    nan_factor = ElementaryMap(ElementaryKind.OVERSHEAR, (math.nan, math.nan), 1.0)
    assert all(cmath.isnan(x) for x in MapWord((nan_factor,))((1.0, 1.0, 1.0))[:2])
