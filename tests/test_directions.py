"""Characteristic direction and director tests.

The directors come from a closed form in the coefficients of the
monomial-diagonal leading part.  Here they are checked against an
eigen-solve of (1/lambda) DP(v) - Id on the quotient C^k / <v>, written in
this file as the reference, and against values worked out by hand:

    planar part (-2a x^2, -c x y):  [1:0] has lambda = -2a and director
    c/(2a) - 1 = (c - 2a)/(2a); [0:1] is degenerate.

    cubic part (-a z^2 t, -a z t^2, -c z t w):  the hyperplanes {z=0} and
    {t=0} are degenerate families, while {w=0} carries a non-degenerate
    torus of directions with lambda = -a z t and directors {0, c/a - 1}.
"""

import cmath
import math
import random

import numpy as np
import pytest

from shearbasins.directions import (
    DEGENERATE,
    NON_DEGENERATE_ATTRACTING,
    NON_DEGENERATE_OTHER,
    IdentityJetError,
    LeadingTerm,
    UnsupportedDimensionError,
    characteristic_directions,
    characteristic_set_dimension,
    classify,
    direction,
    leading_term,
)
from shearbasins.jets import DomainError, Jet, JetMap
from shearbasins.maps import Params, Prototype, build_F, build_family, planar_word, push_forward
from tests.test_jets import jacobian


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
    for a, c, expected in ((1.0, 3.0, 0.5), (2.0, 5.0, 0.25), (0.5, 2.0, 1.0)):
        lt = LeadingTerm(2, planar_part(a, c))
        found = characteristic_directions(lt, names=("x", "y"))
        d = next(d for d in found if not d.degenerate and d.family_dim == 0)
        assert len(d.directors) == 1
        assert abs(d.directors[0] - expected) <= 1e-10


def test_director_zero_at_regime_boundary():
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


def eigen_directors(lt, d):
    """The reference: eigenvalues of (1/lambda) DP(v) - Id on C^k / <v>, in the
    chart of the largest coordinate of v, where row i of the quotient is row i
    minus v_i / v_chart times the chart's row."""
    k, v = lt.part.k, d.v
    jac = jacobian(lt.part)
    a = np.array([[jac[i][j](v) for j in range(k)] for i in range(k)], dtype=complex) / d.lam
    chart = int(np.argmax(np.abs(v)))
    rows = [i for i in range(k) if i != chart]
    m = np.array([[a[i, j] - v[i] / v[chart] * a[chart, j] for j in rows] for i in rows]) - np.eye(k - 1)
    return sorted((complex(e) for e in np.linalg.eigvals(m)), key=lambda z: (round(z.real, 10), round(z.imag, 10)))


def random_words(rng, draws):
    """(word, number of non-degenerate directions) for random parameters:
    FAMILY_K with k = 2 to 5 equal weights (F3 at k = 2) and G.  The boundary
    cases come with each draw: w joins the torus when its coefficient equals
    the weight, c = a + b adds G's torus {zeta w != 0} (the c = 2a torus at
    a = b), and at a + b = 0 G's part has a zero component and no
    non-degenerate direction."""
    def weight():
        return rng.choice((-1, 1)) * rng.uniform(0.1, 4.0)

    for _ in range(draws):
        a, b, c = weight(), weight(), weight()
        for k in range(2, 6):
            yield build_family(k, (a,) * k, c), 1
            yield build_family(k, (a,) * k, a), 2
        yield planar_word(build_family(2, (a, b), c)), 1
        yield planar_word(build_family(2, (a, b), a + b)), 2
        yield planar_word(build_family(2, (a, -a), c)), 0


def test_closed_form_directors_equal_an_eigen_solve():
    compared = 0
    for word, expected in random_words(random.Random(2874), 30):
        lt = leading_term(word.jet(word.dim))
        found = [d for d in characteristic_directions(lt) if not d.degenerate]
        assert len(found) == expected
        for d in found:
            reference = eigen_directors(lt, d)
            assert len(d.directors) == len(reference) == lt.part.k - 1
            scale = max([1.0] + [abs(e) for e in reference])
            assert max(abs(x - e) for x, e in zip(d.directors, reference)) <= 1e-14 * scale
            compared += 1
    assert compared >= 400


def test_scaling_covariance():
    """At G(1, 3) and at every non-degenerate direction of the random words."""
    lts = [LeadingTerm(2, planar_part(1.0, 3.0))]
    lts += [leading_term(word.jet(word.dim)) for word, _ in random_words(random.Random(2874), 30)]
    rng = random.Random(0)
    for lt in lts:
        for base in (d for d in characteristic_directions(lt) if not d.degenerate):
            for _ in range(10):
                phase = cmath.exp(2j * math.pi * rng.random())
                v = tuple(phase * x for x in base.v)
                lam = complex(np.vdot(np.array(v), np.array(lt.part(v))))
                assert abs(lam - base.lam * phase ** (lt.degree - 1)) <= 1e-8
                assert direction(lt, v, lam).directors == base.directors


def test_euler_identity_on_found_directions():
    """At F3(1, 1, 3) and at every non-degenerate direction of the random words."""
    lts = [leading_term(build_F(Params(1, 1, 3)).jet(6))]
    lts += [leading_term(word.jet(word.dim)) for word, _ in random_words(random.Random(2874), 30)]
    for lt in lts:
        jac, k = jacobian(lt.part), lt.part.k
        for d in characteristic_directions(lt):
            if d.degenerate:
                continue
            dp_v = np.array([[jac[i][j](d.v) for j in range(k)] for i in range(k)])
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
# parts the solver does not take, and the one degeneracy rule


def test_non_diagonal_part_in_three_variables_is_unsupported():
    """Only a monomial-diagonal part has a solver, in three variables as in
    two: the planar part (x^2 + y^2, x y) raises too."""
    z, t, w = (Jet.variable(3, 2, i) for i in range(3))
    x, y = Jet.variable(2, 2, 0), Jet.variable(2, 2, 1)
    for part in (JetMap([z * z + t * t, z * t, w * w]), JetMap([x * x + y * y, x * y])):
        with pytest.raises(UnsupportedDimensionError):
            characteristic_directions(LeadingTerm(2, part))


def test_one_degeneracy_rule():
    """|lambda| <= DEGENERATE_TOL reports lambda 0, no directors and the residual
    against 0: the torus [1:0] of (1e-9 x^2, 1e-9 x y) has lambda 1e-9."""
    from shearbasins.directions import _residual

    x, y = Jet.variable(2, 2, 0), Jet.variable(2, 2, 1)
    lt = LeadingTerm(2, JetMap([1e-9 * x * x, 1e-9 * x * y]))
    degenerate = [d for d in characteristic_directions(lt) if d.degenerate]
    assert degenerate
    for d in degenerate:
        assert d.lam == 0j
        assert d.directors == ()
        assert d.residual == _residual(lt.part, d.v, 0j)
