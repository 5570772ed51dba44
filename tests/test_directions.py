"""Characteristic direction and director tests.

The chart computation is cross-checked by finite differences of the
induced projective map inside directors() itself; here we also verify the
closed-form eigenvalues worked out by hand for the monomial-diagonal
leading parts:

    planar part (-2a x^2, -c x y):  [1:0] has lambda = -2a and director
    c/(2a) - 1 = (c - 2a)/(2a); [0:1] is degenerate.

    cubic part (-a z^2 t, -a z t^2, -c z t w):  the hyperplanes {z=0} and
    {t=0} are degenerate families, while {w=0} carries a non-degenerate
    torus of directions with lambda = -a z t and directors {0, c/a - 1}.
"""

import math
import random

import numpy as np
import pytest

from shearbasins.directions import (
    DEGENERATE,
    NON_DEGENERATE_ATTRACTING,
    NON_DEGENERATE_OTHER,
    CharacteristicDirection,
    IdentityJetError,
    UnsupportedDimensionError,
    characteristic_directions,
    characteristic_set_dimension,
    classify,
    directors,
    directors_in_chart,
    leading_term,
)
from shearbasins.jets import DomainError, Jet, JetMap
from shearbasins.maps import Params, Prototype, build_F, build_family, push_forward


def planar_part(a, c, order=2):
    return JetMap([Jet(2, order, {(2, 0): -2 * a}), Jet(2, order, {(1, 1): -c})])


# ----------------------------------------------------------------------
# leading term extraction


def test_leading_term_of_the_word():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    assert lt.degree == 3
    assert lt.part.allclose(
        JetMap(
            [
                Jet(3, 6, {(2, 1, 0): -1.0}),
                Jet(3, 6, {(1, 2, 0): -1.0}),
                Jet(3, 6, {(1, 1, 1): -3.0}),
            ]
        )
    )


def test_leading_term_of_planar_map():
    lt = leading_term(push_forward(build_F(Params(1, 1, 3)).jet(8)))
    assert lt.degree == 2
    assert abs(lt.part.components[0].coefficient((2, 0)) + 2.0) <= 1e-12
    assert abs(lt.part.components[1].coefficient((1, 1)) + 3.0) <= 1e-12


def test_leading_term_of_quadratic_prototype():
    lt = leading_term(Prototype("quadratic_1d", 2.0).jet(4))
    assert lt.degree == 2
    assert lt.part.components[0] == Jet(1, 4, {(2,): 2.0})


def test_leading_term_identity_error():
    with pytest.raises(IdentityJetError):
        leading_term(JetMap.identity(3, 5))


def test_leading_term_requires_tangency():
    doubled = JetMap([Jet(2, 4, {(1, 0): 2.0}), Jet.variable(2, 4, 1)])
    with pytest.raises(DomainError):
        leading_term(doubled)


# ----------------------------------------------------------------------
# exact solver on the package's maps


def test_directions_of_the_word():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    found = characteristic_directions(lt, names=("z", "t", "w"))
    tags = {d.family_tag for d in found}
    assert "hyperplane z=0" in tags
    assert "hyperplane t=0" in tags
    hyper = [d for d in found if d.family_tag and d.family_tag.startswith("hyperplane")]
    assert all(d.degenerate for d in hyper)
    torus = [d for d in found if d.family_tag and d.family_tag.startswith("torus")]
    assert len(torus) == 1
    extra = torus[0]
    assert not extra.degenerate
    assert abs(extra.lam + 0.5) <= 1e-12  # -a * z * t at the balanced representative
    assert extra.family_dim == 1
    assert all(d.residual <= 1e-8 for d in found)


def test_directions_of_planar_part():
    lt = leading_term(push_forward(build_F(Params(1, 1, 3)).jet(8)))
    found = characteristic_directions(lt, names=("zeta", "w"))
    isolated = [d for d in found if not d.degenerate]
    assert len(isolated) == 1
    d = isolated[0]
    assert abs(abs(d.v[0]) - 1.0) <= 1e-12 and abs(d.v[1]) <= 1e-12
    assert abs(d.lam + 2.0) <= 1e-12
    degenerate = [d for d in found if d.degenerate]
    assert len(degenerate) == 1
    assert abs(degenerate[0].v[0]) <= 1e-12


def test_directions_boundary_case_adds_torus():
    # c = 2a: the component coefficients agree, so the torus {x y != 0}
    # becomes characteristic on top of the isolated [1:0]
    from shearbasins.directions import LeadingTerm

    lt = LeadingTerm(2, planar_part(1.0, 2.0))
    found = characteristic_directions(lt, names=("x", "y"))
    tags = {d.family_tag for d in found if d.family_tag}
    assert any(t.startswith("torus") for t in tags)


def test_directions_one_variable():
    lt = leading_term(Prototype("quadratic_1d", 1.0).jet(3))
    found = characteristic_directions(lt)
    assert len(found) == 1
    d = found[0]
    assert d.v == (1.0 + 0j,)
    assert abs(d.lam - 1.0) <= 1e-12
    assert d.directors == ()
    assert classify(d) == NON_DEGENERATE_ATTRACTING


def test_unsupported_dimension():
    from shearbasins.directions import LeadingTerm

    part = JetMap([Jet.monomial(5, 2, tuple(2 if j == i else 0 for j in range(5))) for i in range(5)])
    with pytest.raises(UnsupportedDimensionError):
        characteristic_directions(LeadingTerm(2, part))


def test_directions_deterministic():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    a = characteristic_directions(lt, names=("z", "t", "w"))
    b = characteristic_directions(lt, names=("z", "t", "w"))
    assert a == b


# ----------------------------------------------------------------------
# directors


def test_director_value_for_planar_map():
    from shearbasins.directions import LeadingTerm

    for a, c, expected in ((1.0, 3.0, 0.5), (2.0, 5.0, 0.25), (0.5, 2.0, 1.0)):
        lt = LeadingTerm(2, planar_part(a, c))
        found = characteristic_directions(lt, names=("x", "y"))
        d = next(d for d in found if not d.degenerate and d.family_dim == 0)
        assert len(d.directors) == 1
        assert abs(d.directors[0] - expected) <= 1e-10


def test_director_zero_at_regime_boundary():
    from shearbasins.directions import LeadingTerm

    lt = LeadingTerm(2, planar_part(1.0, 2.0))
    found = characteristic_directions(lt, names=("x", "y"))
    d = next(d for d in found if not d.degenerate and d.family_dim == 0)
    assert abs(d.directors[0]) <= 1e-12
    assert classify(d) == NON_DEGENERATE_OTHER


def test_directors_of_the_torus_family():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    found = characteristic_directions(lt, names=("z", "t", "w"))
    torus = next(d for d in found if d.family_tag and d.family_tag.startswith("torus"))
    # hand computation gives {0, c/a - 1} = {0, 2}
    assert sorted(x.real for x in torus.directors) == pytest.approx([0.0, 2.0], abs=1e-10)
    assert classify(torus) == NON_DEGENERATE_OTHER


def test_directors_reject_degenerate_directions():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    found = characteristic_directions(lt, names=("z", "t", "w"))
    degenerate = next(d for d in found if d.degenerate)
    with pytest.raises(DomainError):
        directors(lt, degenerate)


def test_directors_finite_difference_cross_check():
    """The quotient formula equals the derivative of the induced chart map."""
    from shearbasins.directions import LeadingTerm, _chart_derivative_fd, _quotient_operator

    lt = LeadingTerm(2, planar_part(1.0, 3.0))
    v = (1.0 + 0j, 0j)
    lam = -2.0 + 0j
    quotient = _quotient_operator(lt, v, lam, 0)
    fd = _chart_derivative_fd(lt, v, 0) - np.eye(1)
    assert np.max(np.abs(quotient - fd)) <= 1e-6


def test_chart_independence():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    found = characteristic_directions(lt, names=("z", "t", "w"))
    torus = next(d for d in found if d.family_tag and d.family_tag.startswith("torus"))
    e0 = directors_in_chart(lt, torus, 0)
    e1 = directors_in_chart(lt, torus, 1)
    assert max(abs(a - b) for a, b in zip(e0, e1)) <= 1e-8


def test_scaling_covariance():
    from shearbasins.directions import LeadingTerm

    lt = LeadingTerm(2, planar_part(1.0, 3.0))
    base = next(
        d for d in characteristic_directions(lt, names=("x", "y")) if not d.degenerate
    )
    rng = random.Random(0)
    for _ in range(10):
        phase = complex(math.cos(t := 2 * math.pi * rng.random()), math.sin(t))
        v = tuple(phase * x for x in base.v)
        pv = np.array(lt.part(v))
        lam = complex(np.vdot(np.array(v), pv))
        assert abs(lam - base.lam * phase ** (lt.degree - 1)) <= 1e-8
        moved = CharacteristicDirection(
            v=v, lam=lam, degenerate=False, directors=(), residual=0.0
        )
        assert max(abs(a - b) for a, b in zip(directors(lt, moved), base.directors)) <= 1e-8


def test_euler_identity_on_found_directions():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    jac = lt.part.jacobian()
    for d in characteristic_directions(lt):
        if d.degenerate:
            continue
        dp_v = np.array([[jac[i][j](d.v) for j in range(3)] for i in range(3)])
        defect = np.max(np.abs(dp_v @ np.array(d.v) - lt.degree * d.lam * np.array(d.v)))
        assert defect <= 1e-8


# ----------------------------------------------------------------------
# classification and set dimension


def test_classify_families_of_the_word():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    found = characteristic_directions(lt, names=("z", "t", "w"))
    kinds = {d.family_tag: classify(d) for d in found}
    assert kinds["hyperplane z=0"] == DEGENERATE
    assert kinds["hyperplane t=0"] == DEGENERATE


def test_characteristic_set_dimension_matches_hyperplane_cone():
    lt = leading_term(build_F(Params(1, 1, 3)).jet(6))
    found = characteristic_directions(lt)
    assert characteristic_set_dimension(found) == 2

    word4 = build_family(3, (1.0, 1.0, 1.0), 4.0)
    lt4 = leading_term(word4.jet(6))
    found4 = characteristic_directions(lt4)
    assert characteristic_set_dimension(found4) == 3


# ----------------------------------------------------------------------
# binary-form solver for planar parts that are not monomial-diagonal


def test_binary_form_finds_isolated_direction_of_generic_part():
    from shearbasins.directions import LeadingTerm

    # P(x, y) = (x^2 + y^2, x y): only [1:0] solves P(v) = lambda v
    part = JetMap([Jet(2, 2, {(2, 0): 1.0, (0, 2): 1.0}), Jet(2, 2, {(1, 1): 1.0})])
    found = characteristic_directions(LeadingTerm(2, part))
    assert len(found) == 1
    d = found[0]
    assert abs(abs(d.v[0]) - 1.0) <= 1e-8
    assert abs(d.lam - 1.0) <= 1e-8
    assert d.residual <= 1e-8


def test_binary_form_agrees_with_exact_solver_on_planar_part():
    from shearbasins.directions import LeadingTerm, _binary_form_directions

    lt = LeadingTerm(2, planar_part(1.0, 3.0))
    exact = characteristic_directions(lt, names=("x", "y"))
    binary = _binary_form_directions(lt)
    # the isolated non-degenerate direction and the degenerate axis both appear
    def signature(dirs):
        return sorted((d.degenerate, round(abs(d.v[0]), 6), round(abs(d.lam), 6)) for d in dirs)

    assert signature(binary) == signature(exact)


def test_binary_form_reports_a_dicritical_part_as_one_family():
    from shearbasins.directions import LeadingTerm

    # P = (x + y) (x, y): every direction is characteristic
    x, y = Jet.variable(2, 2, 0), Jet.variable(2, 2, 1)
    found = characteristic_directions(LeadingTerm(2, JetMap([(x + y) * x, (x + y) * y])))
    family = [d for d in found if d.family_dim == 1]
    assert len(family) == 1
    assert not family[0].degenerate
    assert family[0].directors == pytest.approx((0.0,), abs=1e-12)
    assert family[0].residual <= 1e-8
    degenerate = [d for d in found if d.degenerate]
    assert len(degenerate) == 1 and len(found) == 2
    v = degenerate[0].v
    assert abs(v[0] + v[1]) <= 1e-12  # [1:-1]
    assert characteristic_set_dimension(found) == 2


def test_binary_form_merges_a_quadruple_root():
    from shearbasins.directions import LeadingTerm

    # x P_2 - y P_1 = x y (y - 2x)^4: the roots are [0:1], [1:0] and [1:2] (four times)
    x, y = Jet.variable(2, 5, 0), Jet.variable(2, 5, 1)
    h = x * x * x * x + y * y * y * y
    q = (y - 2 * x) * (y - 2 * x)
    found = characteristic_directions(LeadingTerm(5, JetMap([h * x - x * q * q, h * y])))
    slopes = sorted((d.v[1] / d.v[0] if abs(d.v[0]) > 1e-12 else math.inf for d in found), key=abs)
    assert len(found) == 3
    assert slopes[0] == 0 and abs(slopes[1] - 2) <= 1e-8 and slopes[2] == math.inf
    assert all(d.residual <= 1e-8 for d in found)


def test_non_diagonal_part_in_three_variables_is_unsupported():
    from shearbasins.directions import LeadingTerm

    z, t, w = (Jet.variable(3, 2, i) for i in range(3))
    part = JetMap([z * z + t * t, z * t, w * w])
    with pytest.raises(UnsupportedDimensionError):
        characteristic_directions(LeadingTerm(2, part))


@pytest.mark.parametrize("part", ["diagonal", "non_diagonal"])
def test_one_degeneracy_rule_for_both_solvers(part):
    """|lambda| <= DEGENERATE_TOL reports lambda 0, no directors and the residual
    against 0, whether the exact torus solver or the binary form finds it."""
    from shearbasins.directions import LeadingTerm, _residual

    x, y = Jet.variable(2, 2, 0), Jet.variable(2, 2, 1)
    if part == "diagonal":  # the torus [1:0] has lambda 1e-9
        components = [1e-9 * x * x, 1e-9 * x * y]
    else:  # the root [1:0] of x P_2 - y P_1 has lambda 1e-9
        components = [1e-9 * x * x + y * y, x * y]
    lt = LeadingTerm(2, JetMap(components))
    degenerate = [d for d in characteristic_directions(lt) if d.degenerate]
    assert degenerate
    for d in degenerate:
        assert d.lam == 0j
        assert d.directors == ()
        assert d.residual == _residual(lt.part, d.v, 0j)
