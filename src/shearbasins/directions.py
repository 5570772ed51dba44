"""Characteristic directions and directors of tangent-to-identity jet maps.

For a self-map germ F = id + P + h.o.t. with leading homogeneous part P of
degree r, a direction v != 0 is characteristic when P(v) = lambda v.  One
rule, in ``direction``, which builds every direction record, decides
degeneracy: |lambda| <= DEGENERATE_TOL is degenerate, reported with
lambda = 0 and no directors.  The directors of a non-degenerate direction
are the eigenvalues of the derivative at [v] of the map induced by P on
projective space, minus the identity: the operator (1/lambda) DP(v) - Id
acting on the quotient C^k / <v>.

Every map built in this package has a monomial-diagonal leading part,
P_i(v) = c_i * v^alpha * v_i with a common exponent alpha and c_i possibly
zero; any other part raises UnsupportedDimensionError.  The full
characteristic set is enumerated exactly: coordinate hyperplanes
{v_j = 0} for j in the support of alpha (all degenerate) and, for every
index set S containing that support on which the c_i agree, say c_i = c,
the torus of directions supported exactly on S, with lambda = c v^alpha.
Their directors have a closed form, (c_i - c)/c for each i outside S and
|S| - 1 zeros.  As v_i = 0 outside S and alpha_j = 0 outside S,
    (1/lambda) DP(v) = diag(c_i/c) + v w^T, with w_j = alpha_j / v_j;
    the rank-one term maps into <v>, and c_i/c = 1 on S, so modulo v
    the operator is diag(c_i/c) outside S and the identity on S / <v>.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jets import DomainError, JetMap

DEGENERATE_TOL = 1e-8
ATTRACTING_TOL = 1e-10

DEGENERATE = "DEGENERATE"
NON_DEGENERATE_ATTRACTING = "NON_DEGENERATE_ATTRACTING"
NON_DEGENERATE_OTHER = "NON_DEGENERATE_OTHER"


class UnsupportedDimensionError(ValueError):
    """No exact method for this part: it is not monomial-diagonal."""


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


def _residual(part: JetMap, v: Sequence[complex], lam: complex) -> float:
    pv = np.array(part(v), dtype=complex)
    return float(np.linalg.norm(pv - lam * np.asarray(v, dtype=complex)))


def _monomial_diagonal(part: JetMap) -> tuple[tuple[int, ...], list[complex]]:
    """(alpha, [c_i]) of P_i = c_i * v^alpha * v_i with one shared alpha; a
    zero component has c_i = 0.  Any other part raises UnsupportedDimensionError."""
    alpha: tuple[int, ...] | None = None
    coeffs: list[complex] = []
    for i, comp in enumerate(part.components):
        terms = comp.sorted_terms()
        if not terms:
            coeffs.append(0j)
            continue
        e, c = terms[0]
        this_alpha = tuple(x - 1 if j == i else x for j, x in enumerate(e))
        if len(terms) != 1 or e[i] < 1 or alpha not in (None, this_alpha):
            alpha = None
            break
        alpha = this_alpha
        coeffs.append(c)
    if alpha is None:
        raise UnsupportedDimensionError(f"no direction solver for a non-diagonal part in {part.k} variables")
    return alpha, coeffs


# ----------------------------------------------------------------------
# classification


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
    against 0 and no directors.  Any other [v] gets the directors of the
    module docstring, with S the support of v and c the coefficient c_i of
    its first index, sorted by real and then imaginary part; x + 0.0 turns
    a zero part -0.0 into +0.0."""
    if abs(lam) <= DEGENERATE_TOL:
        return CharacteristicDirection(v, 0j, True, (), _residual(lt.part, v, 0j), **family)
    coeffs = _monomial_diagonal(lt.part)[1]
    support = [i for i, x in enumerate(v) if x != 0]
    c = coeffs[support[0]]
    eigs = [(ci - c) / c for i, ci in enumerate(coeffs) if i not in support] + [0j] * (len(support) - 1)
    directors = tuple(complex(z.real + 0.0, z.imag + 0.0)
                      for z in sorted(eigs, key=lambda z: (round(z.real, 10), round(z.imag, 10))))
    return CharacteristicDirection(v, lam, False, directors, _residual(lt.part, v, lam), **family)


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


def characteristic_directions(
    lt: LeadingTerm,
    names: Sequence[str] | None = None,
) -> list[CharacteristicDirection]:
    """All characteristic directions of the leading part.

    A monomial-diagonal part is enumerated exactly, including the
    positive-dimensional families; any other part raises
    UnsupportedDimensionError.  Every returned direction satisfies the
    residual bound ||P(v) - lambda v|| <= 1e-8 at ||v|| = 1.
    """
    if names is None:
        names = [f"x{i}" for i in range(lt.part.k)]
    alpha, coeffs = _monomial_diagonal(lt.part)
    return _exact_directions(lt, alpha, coeffs, names)
