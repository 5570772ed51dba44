"""Characteristic directions and directors of tangent-to-identity jet maps.

For a self-map germ F = id + P + h.o.t. with leading homogeneous part P of
degree r, a direction v != 0 is characteristic when P(v) = lambda v.  One
rule, in ``direction``, which builds every direction record, decides
degeneracy: |lambda| <= DEGENERATE_TOL is degenerate, reported with
lambda = 0 and no directors.  The directors of a non-degenerate direction
are the eigenvalues of the derivative at [v] of the map induced by P on
projective space, minus the identity.  In coordinates this is the operator
(1/lambda) DP(v) - Id acting on the quotient C^k / <v>; the Euler relation
DP(v) v = r P(v) removes the radial eigenvalue r - 1.

Every map built in this package has monomial-diagonal leading part,
P_i(v) = c_i * v^alpha * v_i with a common exponent alpha, for which the
full characteristic set is enumerated exactly: coordinate hyperplanes
{v_j = 0} for j in the support of alpha (all degenerate) and, for every
index set S containing that support on which the c_i agree, the torus of
directions supported exactly on S.  Any other planar part (k = 2) is
solved exactly as well: its characteristic directions are the roots of the
binary form x P_2 - y P_1, or every direction when that form vanishes.
Other parts in three or four variables raise UnsupportedDimensionError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .jets import DomainError, JetMap

DEGENERATE_TOL = 1e-8
ATTRACTING_TOL = 1e-10
_EPS = float(np.finfo(float).eps)

DEGENERATE = "DEGENERATE"
NON_DEGENERATE_ATTRACTING = "NON_DEGENERATE_ATTRACTING"
NON_DEGENERATE_OTHER = "NON_DEGENERATE_OTHER"


class UnsupportedDimensionError(ValueError):
    """No exact method for this part: more than four variables, or a part
    in three or four variables that is not monomial-diagonal."""


class CrossCheckError(ArithmeticError):
    """The chart formula for the directors and its finite-difference check disagree."""


class IdentityJetError(ValueError):
    """No nonzero homogeneous part above degree one within the order."""


@dataclass(frozen=True)
class LeadingTerm:
    """Smallest-degree nonzero homogeneous part of F - id."""

    degree: int
    part: JetMap


@dataclass(frozen=True)
class CharacteristicDirection:
    v: tuple[complex, ...]
    lam: complex
    degenerate: bool
    directors: tuple[complex, ...]
    residual: float
    family_tag: str | None = None
    family_dim: int = 0

    def to_dict(self) -> dict:
        return {
            "v": [[x.real, x.imag] for x in self.v],
            "lambda": [self.lam.real, self.lam.imag],
            "degenerate": self.degenerate,
            "directors": [[d.real, d.imag] for d in self.directors],
            "residual": self.residual,
            "family_tag": self.family_tag,
            "family_dim": self.family_dim,
            "classification": classify(self),
        }


def leading_term(jet_map: JetMap) -> LeadingTerm:
    """Extract (r, P_r); requires a map tangent to the identity."""
    if not jet_map.linear_part_is_identity():
        raise DomainError("leading term needs a map tangent to the identity")
    diff = jet_map.minus_identity()
    for r in range(2, jet_map.order + 1):
        part = diff.homogeneous_part(r)
        if any(not c.is_zero() for c in part.components):
            return LeadingTerm(r, part)
    raise IdentityJetError("the jet is the identity up to its truncation order")


# ----------------------------------------------------------------------
# helpers


def _normalize(v: np.ndarray) -> tuple[complex, ...]:
    """Unit representative with the largest coordinate made real positive."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    pivot = int(np.argmax(np.abs(v)))
    phase = v[pivot] / abs(v[pivot])
    v = v / phase
    return tuple(complex(x) for x in v)


def _eval_part(part: JetMap, v: Sequence[complex]) -> np.ndarray:
    return np.array(part(v), dtype=complex)


def _residual(part: JetMap, v: Sequence[complex], lam: complex) -> float:
    pv = _eval_part(part, v)
    return float(np.linalg.norm(pv - lam * np.asarray(v, dtype=complex)))


def _monomial_diagonal(part: JetMap) -> tuple[tuple[int, ...], list[complex]] | None:
    """Recognize P_i = c_i * v^alpha * v_i with one shared alpha."""
    alpha: tuple[int, ...] | None = None
    coeffs: list[complex] = []
    for i, comp in enumerate(part.components):
        terms = comp.sorted_terms()
        if len(terms) != 1:
            return None
        e, c = terms[0]
        if e[i] < 1:
            return None
        this_alpha = tuple(x - 1 if j == i else x for j, x in enumerate(e))
        if alpha is None:
            alpha = this_alpha
        elif this_alpha != alpha:
            return None
        coeffs.append(c)
    if alpha is None:
        return None
    return alpha, coeffs


# ----------------------------------------------------------------------
# directors


def _quotient_operator(lt: LeadingTerm, v: Sequence[complex], lam: complex, chart: int) -> np.ndarray:
    """Matrix of (1/lambda) DP(v) - Id on C^k / <v> in the given chart."""
    k = lt.part.k
    jac = lt.part.jacobian()
    dp = np.array([[jac[i][j](v) for j in range(k)] for i in range(k)], dtype=complex)
    a = dp / lam
    rows = [i for i in range(k) if i != chart]
    vv = np.asarray(v, dtype=complex)
    m = np.empty((k - 1, k - 1), dtype=complex)
    for ri, i in enumerate(rows):
        for ci, j in enumerate(rows):
            m[ri, ci] = a[i, j] - (vv[i] / vv[chart]) * a[chart, j]
    return m - np.eye(k - 1)


def _chart_derivative_fd(lt: LeadingTerm, v: Sequence[complex], chart: int) -> np.ndarray:
    """Central finite differences, step 1e-5, of the induced chart map u -> P_j(x)/P_chart(x)."""
    k, h = lt.part.k, 1e-5
    vv = np.asarray(v, dtype=complex)
    base = vv / vv[chart]
    rows = [i for i in range(k) if i != chart]

    def chart_map(u: np.ndarray) -> np.ndarray:
        x = np.empty(k, dtype=complex)
        x[chart] = 1.0
        for ri, i in enumerate(rows):
            x[i] = u[ri]
        px = _eval_part(lt.part, tuple(x))
        return np.array([px[i] / px[chart] for i in rows], dtype=complex)

    u0 = np.array([base[i] for i in rows], dtype=complex)
    deriv = np.empty((k - 1, k - 1), dtype=complex)
    for col in range(k - 1):
        step = np.zeros(k - 1, dtype=complex)
        step[col] = h
        deriv[:, col] = (chart_map(u0 + step) - chart_map(u0 - step)) / (2 * h)
    return deriv


def _sorted_eigs(m: np.ndarray) -> tuple[complex, ...]:
    eigs = np.linalg.eigvals(m)
    return tuple(sorted((complex(e) for e in eigs), key=lambda z: (round(z.real, 10), round(z.imag, 10))))


def directors_in_chart(lt: LeadingTerm, d: CharacteristicDirection, chart: int) -> tuple[complex, ...]:
    """Directors computed in a prescribed affine chart (no cross-check)."""
    if d.degenerate:
        raise DomainError("directors are defined only for non-degenerate directions")
    if lt.part.k == 1:
        return ()
    if abs(d.v[chart]) == 0:
        raise DomainError("chart coordinate vanishes on this direction")
    return _sorted_eigs(_quotient_operator(lt, d.v, d.lam, chart))


def directors(lt: LeadingTerm, d: CharacteristicDirection) -> tuple[complex, ...]:
    """Director eigenvalues in the chart of the largest coordinate.

    A finite-difference derivative of the induced projective map provides a
    second opinion; disagreement beyond 1e-6 raises CrossCheckError.
    """
    chart = int(np.argmax(np.abs(np.asarray(d.v))))
    eigs = directors_in_chart(lt, d, chart)
    if eigs:
        fd = _sorted_eigs(_chart_derivative_fd(lt, d.v, chart) - np.eye(lt.part.k - 1))
        worst = max(abs(a - b) for a, b in zip(eigs, fd))
        if worst > 1e-6:
            raise CrossCheckError(
                f"director cross-check failed: chart formula vs finite differences differ by {worst:.3e}"
            )
    return eigs


def classify(d: CharacteristicDirection) -> str:
    """DEGENERATE, attracting (all director real parts > 0) or other."""
    if d.degenerate:
        return DEGENERATE
    if all(x.real > ATTRACTING_TOL for x in d.directors):
        return NON_DEGENERATE_ATTRACTING
    return NON_DEGENERATE_OTHER


def characteristic_set_dimension(dirs: Sequence[CharacteristicDirection]) -> int:
    """Dimension of the characteristic cone in C^k (family dim + 1)."""
    return max((d.family_dim + 1 for d in dirs), default=0)


# ----------------------------------------------------------------------
# solvers


def direction(lt: LeadingTerm, v: tuple[complex, ...], lam: complex, **family) -> CharacteristicDirection:
    """The record of [v] with P(v) = lam v; ``family`` holds its family tag and dimension.

    |lam| <= DEGENERATE_TOL makes [v] degenerate: lambda 0, the residual
    against 0 and no directors.  Any other [v] gets its directors."""
    degenerate = abs(lam) <= DEGENERATE_TOL
    if degenerate:
        lam = 0j
    d = CharacteristicDirection(v, lam, degenerate, (), _residual(lt.part, v, lam), **family)
    return d if degenerate else replace(d, directors=directors(lt, d))


def _exact_directions(lt: LeadingTerm, alpha: tuple[int, ...], coeffs: list[complex],
                      names: Sequence[str]) -> list[CharacteristicDirection]:
    k = lt.part.k
    support = [j for j in range(k) if alpha[j] > 0]
    out: list[CharacteristicDirection] = []

    if k >= 2:
        for j in support:
            v = _normalize(np.array([0.0 if i == j else 1.0 for i in range(k)], dtype=complex))
            out.append(direction(lt, v, 0j, family_tag=f"hyperplane {names[j]}=0", family_dim=k - 2))

    scale = max(abs(c) for c in coeffs)
    others = [j for j in range(k) if j not in support]
    for extra_size in range(len(others) + 1):
        for extra in itertools.combinations(others, extra_size):
            s = sorted(support + list(extra))
            if not s:
                continue
            cs = [coeffs[j] for j in s]
            if max(abs(c - cs[0]) for c in cs) > 1e-12 * max(scale, 1.0):
                continue
            v = _normalize(np.array([1.0 if i in s else 0.0 for i in range(k)], dtype=complex))
            vv = np.asarray(v)
            mono = complex(np.prod([vv[j] ** alpha[j] for j in range(k)])) if any(alpha) else 1.0
            tag = None if len(s) == 1 else "torus support={" + ",".join(names[j] for j in s) + "}"
            out.append(direction(lt, v, cs[0] * mono, family_tag=tag, family_dim=len(s) - 1))
    return out


def _binary_roots(form: np.ndarray, tol: float) -> list[np.ndarray]:
    """Projective roots [x:y] of the binary form sum_j form[j] x^(n-j) y^j.

    Coefficients up to ``tol`` count as zero.  The chart x = 1 gives the
    numpy.roots of q(t) = sum_j form[j] t^j, plus [0:1] when the top
    coefficient vanishes.  A root c of multiplicity m comes back as m values
    spread by about rho = (eps |q|(|c|) / |q^(m)(c) / m!|)^(1/m), eps^(1/m)
    for a well-separated root; the largest cluster within 4 rho of its mean
    becomes the mean, which is the root to roundoff.
    """
    q = np.where(np.abs(form) <= tol, 0j, form)[::-1]
    left = sorted(np.roots(q), key=lambda t: (t.real, t.imag))
    out = []
    while left:
        near = sorted(range(len(left)), key=lambda i: abs(left[i] - left[0]))
        for m in range(len(left), 0, -1):
            c = sum(left[i] for i in near[:m]) / m
            spread = max(abs(left[i] - c) for i in near[:m])
            top = abs(np.polyval(np.polyder(q, m), c)) / math.factorial(m)
            if (spread / 4) ** m * top <= _EPS * np.polyval(np.abs(q), abs(c)):
                break
        out.append(np.array([1.0, c], dtype=complex))
        left = [t for i, t in enumerate(left) if i not in near[:m]]
    if q[0] == 0:
        out.append(np.array([0.0, 1.0], dtype=complex))
    return out


def _root_direction(lt: LeadingTerm, x: np.ndarray) -> CharacteristicDirection:
    v = _normalize(x)
    return direction(lt, v, complex(np.vdot(np.asarray(v), _eval_part(lt.part, v))))


def _binary_form_directions(lt: LeadingTerm) -> list[CharacteristicDirection]:
    """Directions of a planar part as the roots of x P_2 - y P_1.

    In C^2 these roots are exactly the characteristic directions (Hakim
    1998; Abate 2001).  When the form vanishes identically the part is
    dicritical, P = h (x, y): every direction is characteristic, the
    induced map of the projective line is the identity, so the directors
    are 0, and the degenerate ones are the roots of h.
    """
    r = lt.degree
    p1, p2 = lt.part.components
    tol = 1e-12 * max(abs(c) for comp in (p1, p2) for c in comp.terms.values())
    form = np.array([p2.coefficient((r - j, j)) - p1.coefficient((r + 1 - j, j - 1)) for j in range(r + 2)])
    if np.any(np.abs(form) > tol):
        return [_root_direction(lt, x) for x in _binary_roots(form, tol)]
    # h has degree r - 1, so it is nonzero at one of any r directions
    reps = [_root_direction(lt, np.array([1.0, j], dtype=complex)) for j in range(r)]
    family = replace(max(reps, key=lambda d: abs(d.lam)), directors=(0j,), family_tag="dicritical", family_dim=1)
    h = np.array([p1.coefficient((r - j, j)) for j in range(r)])
    return [family] + [_root_direction(lt, x) for x in _binary_roots(h, tol)]


def characteristic_directions(
    lt: LeadingTerm,
    names: Sequence[str] | None = None,
) -> list[CharacteristicDirection]:
    """All characteristic directions of the leading part.

    Monomial-diagonal parts are enumerated exactly, including the
    positive-dimensional families; other planar parts go through the roots
    of the binary form x P_2 - y P_1.  Any other part raises
    UnsupportedDimensionError.  Every returned direction satisfies the
    residual bound ||P(v) - lambda v|| <= 1e-8 at ||v|| = 1.
    """
    k = lt.part.k
    if names is None:
        names = [f"x{i}" for i in range(k)]
    structure = _monomial_diagonal(lt.part)
    if structure is not None:
        return _exact_directions(lt, structure[0], structure[1], names)
    if k == 2:
        return _binary_form_directions(lt)
    raise UnsupportedDimensionError(f"no direction solver for a non-diagonal part in {k} variables")
