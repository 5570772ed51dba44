"""Exact shear/overshear words in C^{k+1} and their induced planar maps.

The central object is a five-factor word of elementary automorphisms of
C^{k+1} with coordinates (z_1, ..., z_k, w) and product coordinate
zeta = z_1 * ... * z_k:

    shear       (z, w) -> (z, w - zeta)
    overshear   (z, w) -> (z_i * exp(a_i w), w)
    twist       (z, w) -> (z, w * exp(-(A + b) zeta) + A zeta^2),  A = sum a_i

The word  twist o overshear^-1 o shear^-1 o overshear o shear  is an
automorphism tangent to the identity whose components have the normal form

    F_i = z_i (1 - a_i zeta + h.o.t.),    F_w = w (1 - b zeta + h.o.t.) + O(zeta^3)

which :func:`verify_normal_form` certifies monomial by monomial.  For k = 2
(coordinates z, t, w) the word is the classical three-dimensional example;
the projection (z, t, w) -> (zt, w) semi-conjugates it to a planar map that
:func:`push_forward` extracts symbolically and :func:`eval_pushforward`
evaluates exactly through a square-root lift.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .jets import DimensionError, DomainError, Jet, JetMap
from .report import Report

def _cexp(x: complex) -> complex:
    try:
        return cmath.exp(x)
    except (OverflowError, ValueError):
        return complex(math.inf, math.inf)


class SemiConjugacyError(ValueError):
    """The jet map does not descend along the product projection."""


@dataclass(frozen=True)
class Params:
    """Shear strengths of the three-dimensional word; all finite and nonzero."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.a, self.b, self.c)):
            raise DomainError("shear parameters a, b, c must be finite")
        if self.a == 0 or self.b == 0 or self.c == 0:
            raise DomainError("shear parameters a, b, c must all be nonzero")

    @property
    def in_chosen_regime(self) -> bool:
        """a = b > 0 and c > 2a, the regime used for the basin statements."""
        return self.a == self.b and self.a > 0 and self.c > 2 * self.a


def family_in_regime(weights: Sequence[float], w_coeff: float) -> bool:
    """All z-weights equal, real and positive, and the w-weight exceeds their sum."""
    ws = list(weights)
    return all(w == ws[0] and w > 0 for w in ws) and w_coeff > sum(ws)


class ElementaryKind(Enum):
    SHEAR = "shear"
    SHEAR_INV = "shear_inv"
    OVERSHEAR = "overshear"
    OVERSHEAR_INV = "overshear_inv"
    TWIST = "twist"
    TWIST_INV = "twist_inv"


_INVERSE_KIND = {
    ElementaryKind.SHEAR: ElementaryKind.SHEAR_INV,
    ElementaryKind.SHEAR_INV: ElementaryKind.SHEAR,
    ElementaryKind.OVERSHEAR: ElementaryKind.OVERSHEAR_INV,
    ElementaryKind.OVERSHEAR_INV: ElementaryKind.OVERSHEAR,
    ElementaryKind.TWIST: ElementaryKind.TWIST_INV,
    ElementaryKind.TWIST_INV: ElementaryKind.TWIST,
}

# The closed form of each kind, written once for complex scalars, jets and
# numpy arrays: the argument of its exponential e, or None, then its updates
# "x op y", each meaning x = x op y.  A z-kind runs them for every z_i, with
# {a} its weight; {rate} = {total} + w_coeff.  The scalar step built from it
# also gives ElementaryMap.jet.
_FORMULAS = {
    ElementaryKind.SHEAR: (None, ["w - zeta"]),
    ElementaryKind.SHEAR_INV: (None, ["w + zeta"]),
    ElementaryKind.OVERSHEAR: ("{a} * w", ["{z} * e"]),
    ElementaryKind.OVERSHEAR_INV: ("-{a} * w", ["{z} * e"]),
    ElementaryKind.TWIST: ("-{rate} * zeta", ["w * e", "w + {total} * zeta * zeta"]),
    ElementaryKind.TWIST_INV: ("{rate} * zeta", ["w - {total} * zeta * zeta", "w * e"]),
}


def _compile(factors: Sequence[ElementaryMap]):
    """Straight-line scalar and batch steps of the word ``factors``."""
    zs = [f"z{i}" for i in range(len(factors[0].weights))]
    coords = ", ".join([*zs, "w"])
    namespace = {"cmath": cmath, "np": np, "DimensionError": DimensionError}

    def body(batch: bool, indent: str) -> str:
        # owned: the arrays this batch step allocated, the only ones it adds
        # or subtracts into; it never multiplies in place, because numpy's
        # in-place complex product rounds differently on one-element arrays
        lines, owned, zeta_valid = [], set(), False
        for j, factor in enumerate(reversed(factors)):
            exponent, updates = _FORMULAS[factor.kind]
            total = sum(factor.weights)
            namespace.update({f"rate{j}": total + factor.w_coeff, f"total{j}": total})
            if "zeta" in f"{exponent}{updates}" and not zeta_valid:
                lines.append("zeta = " + " * ".join(zs if batch else ["(1+0j)", *zs]))
                zeta_valid = True
            groups: dict = {"w": (None, ["w"])}
            if updates[0].startswith("{z}"):
                # one exponential per bitwise-distinct weight; nan weights share none
                groups = {}
                for i, a in enumerate(factor.weights):
                    key = (type(a), float(a).hex()) if a == a else i
                    groups.setdefault(key, (a, []))[1].append(f"z{i}")
                zeta_valid = False
            for g, (a, targets) in enumerate(groups.values()):
                names = {"a": f"a{j}_{g}", "rate": f"rate{j}", "total": f"total{j}"}
                namespace[names["a"]] = a
                if exponent and batch:
                    lines += [f"e = {exponent.format(**names)}", "np.exp(e, out=e)"]
                elif exponent:
                    lines.append(f"e = exp({exponent.format(**names)})")
                for z in targets:
                    for formula in updates:
                        x, op, y = formula.format(z=z, **names).split(" ", 2)
                        if batch and x in owned and op != "*":
                            lines.append(f"{x} {op}= {y}")
                        else:
                            lines.append(f"{x} = {x} {op} {y}")
                            owned.add(x)
        return "".join(f"\n{indent}{line}" for line in lines)

    scalar_body = body(False, "    ")
    batch_body = body(True, "        ")
    exec(f"""
def step(p, exp=cmath.exp, convert=complex):
    try:
        {coords} = p
    except ValueError:
        raise DimensionError(f"point has {{len(p)}} coordinates, expected {len(zs) + 1}") from None
    {coords} = {", ".join(f"convert({x})" for x in [*zs, "w"])}{scalar_body}
    return ({coords},)

def batch(coords):
    {coords} = coords
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):{batch_body}
    return [{coords}]
""", namespace)
    return namespace["step"], namespace["batch"]


@dataclass(frozen=True)
class ElementaryMap:
    """One elementary automorphism of C^{k+1} with its exact closed form."""

    kind: ElementaryKind
    weights: tuple[float, ...]
    w_coeff: float

    @property
    def dim(self) -> int:
        return len(self.weights) + 1

    def inverse(self) -> "ElementaryMap":
        return ElementaryMap(_INVERSE_KIND[self.kind], self.weights, self.w_coeff)

    def __call__(self, p: Sequence[complex]) -> tuple[complex, ...]:
        return _one_factor_word(self)(p)

    def eval_batch(self, coords: list[np.ndarray]) -> list[np.ndarray]:
        return _one_factor_word(self).eval_batch(coords)

    def jet(self, order: int) -> JetMap:
        xs = [Jet.variable(self.dim, order, i) for i in range(self.dim)]
        return JetMap(_one_factor_word(self)._step(xs, Jet.exp, lambda x: x))


@dataclass(frozen=True)
class MapWord:
    """Composition word; ``factors[0]`` is applied last, ``factors[-1]`` first.

    Construction compiles the word from ``_FORMULAS`` into one straight-line
    scalar step (``__call__``) and one numpy batch step (``eval_batch``).
    Both do the float operations of applying the factors' closed forms one
    by one, in the same order: the scalar zeta product starts from (1+0j),
    weights enter as the float-complex products a * w and -a * w, _cexp
    turns overflow into inf, and the twist's total is sum(weights) from int
    0.  A zeta product is reused only across factors that leave every z_i
    unchanged.  The scalar step calls cmath.exp directly; only when it
    raises (overflow, or an infinite argument) does ``__call__`` rerun the
    step with _cexp, which returns cmath.exp's value wherever that returns.

    The scalar step also serves jets: its exponential and its coordinate
    conversion are parameters, cmath.exp and complex by default, and
    ElementaryMap.jet runs it on Jet variables with Jet.exp and no
    conversion.  They exist for that one caller and are not user options.

    Each factor takes one exponential per distinct weight, shared by the
    z_i of that weight and named e before any product uses it: with equal
    weights the exponentials are equal bit for bit, so computing one is
    enough.  Weights count as equal only when bitwise equal (so -0.0 and
    0.0 differ, and a nan weight shares with none).  Every batch product
    is written coordinate * e.  Were e a nameless temporary, numpy would
    reuse it as the product's buffer on arrays of 16 384 elements or more
    and compute e * coordinate instead; its complex product fuses
    multiply-adds and is not bitwise commutative, so the bits would depend
    on the batch size.

    The batch step takes arrays of one or more dimensions and never writes
    into them.  It updates in place only arrays it allocated itself, and
    only by addition or subtraction: numpy's in-place complex product
    rounds differently on one-element arrays.  It runs inside np.errstate,
    so overflow gives inf or nan without a RuntimeWarning.  Equality,
    hashing and pickling use ``factors`` only; unpickling compiles again.
    """

    factors: tuple[ElementaryMap, ...]

    def __post_init__(self):
        if not self.factors:
            raise DimensionError("a map word needs at least one factor")
        if len({f.dim for f in self.factors}) != 1 or self.dim < 2:
            raise DimensionError("all factors must act on the same space C^{k+1}, k >= 1")
        step, batch = _compile(self.factors)
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_batch", batch)

    def __reduce__(self):
        return (MapWord, (self.factors,))

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    def __call__(self, p: Sequence[complex]) -> tuple[complex, ...]:
        try:
            return self._step(p)
        except (OverflowError, ValueError):
            return self._step(p, _cexp)

    def eval_batch(self, coords: list[np.ndarray]) -> list[np.ndarray]:
        return self._batch(coords)

    def inverse(self) -> "MapWord":
        return MapWord(tuple(f.inverse() for f in reversed(self.factors)))

    def then(self, other: "MapWord") -> "MapWord":
        """Word for other o self."""
        return MapWord(other.factors + self.factors)

    def jet(self, order: int) -> JetMap:
        result: JetMap | None = None
        for factor in reversed(self.factors):
            fj = factor.jet(order)
            result = fj if result is None else fj.compose(result)
        return result


@lru_cache(maxsize=64)
def _one_factor_word(factor: ElementaryMap) -> MapWord:
    """The compiled word of one factor; equal factors share it."""
    return MapWord((factor,))


def build_family(k: int, weights: Sequence[float], w_coeff: float) -> MapWord:
    """Five-factor word in C^{k+1}; requires k >= 2 and finite nonzero parameters."""
    if k < 2:
        raise DimensionError("the construction needs at least two z-coordinates")
    ws = tuple(float(a) for a in weights)
    if len(ws) != k:
        raise DimensionError(f"expected {k} weights, got {len(ws)}")
    if not all(math.isfinite(x) for x in (*ws, w_coeff)):
        raise DomainError("all weights and the w-coefficient must be finite")
    if any(a == 0 for a in ws) or w_coeff == 0:
        raise DomainError("all weights and the w-coefficient must be nonzero")

    def factor(kind: ElementaryKind) -> ElementaryMap:
        return ElementaryMap(kind, ws, float(w_coeff))

    return MapWord(
        (
            factor(ElementaryKind.TWIST),
            factor(ElementaryKind.OVERSHEAR_INV),
            factor(ElementaryKind.SHEAR_INV),
            factor(ElementaryKind.OVERSHEAR),
            factor(ElementaryKind.SHEAR),
        )
    )


def build_F(params: Params) -> MapWord:
    """The three-dimensional word in coordinates (z, t, w)."""
    return build_family(2, (params.a, params.b), params.c)


# ----------------------------------------------------------------------
# projection to the (zeta, w) plane


def project_pi(p: Sequence[complex]) -> tuple[complex, complex]:
    """(z, t, w) -> (z t, w)."""
    if len(p) != 3:
        raise DimensionError("the projection is defined on three coordinates")
    return (p[0] * p[1], p[2])


def push_forward(jet_map: JetMap) -> JetMap:
    """Planar jet induced along (z, t, w) -> (zt, w).

    Every monomial of (F1*F2, F3) must carry equal z and t exponents;
    otherwise the map does not descend and SemiConjugacyError is raised.
    The result is complete to order floor(order / 2): the monomial
    zeta^i w^m needs degree 2i + m upstairs.
    """
    if jet_map.k != 3 or jet_map.arity_out != 3:
        raise DimensionError("push_forward expects a three-dimensional self-map")
    f1, f2, f3 = jet_map.components
    order2 = jet_map.order // 2

    def collapse(jet3: Jet) -> Jet:
        terms: dict[tuple[int, int], complex] = {}
        for e, c in jet3.sorted_terms():
            i, j, m = e
            if i != j:
                raise SemiConjugacyError(
                    f"monomial z^{i} t^{j} w^{m} breaks the product structure"
                )
            if i + m <= order2:
                terms[(i, m)] = c
        return Jet(2, order2, terms)

    return JetMap([collapse(f1 * f2), collapse(f3)])


def eval_pushforward(word: MapWord, q: Sequence[complex]) -> tuple[complex, complex]:
    """Exact induced planar map via the square-root lift (sqrt x, sqrt x, y).

    Uses the principal branch; the result is branch independent because the
    word commutes with (z, t) -> (lambda z, t / lambda).
    """
    if word.dim != 3:
        raise DimensionError("the induced planar map needs a three-dimensional word")
    if len(q) != 2:
        raise DimensionError("expected a planar point (x, y)")
    s = cmath.sqrt(complex(q[0]))
    return project_pi(word((s, s, complex(q[1]))))


@dataclass(frozen=True)
class PushforwardMap:
    """Picklable evaluator for the induced planar map."""

    word: MapWord

    @property
    def dim(self) -> int:
        return 2

    def __call__(self, q: Sequence[complex]) -> tuple[complex, complex]:
        return eval_pushforward(self.word, q)

    def jet(self, order: int) -> JetMap:
        return push_forward(self.word.jet(2 * order))

    def eval_batch(self, coords: list[np.ndarray]) -> list[np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            s = np.sqrt(coords[0])
            z, t, w = self.word.eval_batch([s, s, coords[1]])
            return [z * t, w]


# ----------------------------------------------------------------------
# prototypes


@dataclass(frozen=True)
class Prototype:
    """Non-automorphism model maps: the 1D quadratic and the 2D product map."""

    kind: str  # "quadratic_1d" | "product_2d"
    a: float = 1.0

    def __post_init__(self):
        if self.kind not in ("quadratic_1d", "product_2d"):
            raise ValueError(f"unknown prototype kind {self.kind!r}")
        if not math.isfinite(self.a):
            raise DomainError("the prototype coefficient must be finite")
        if self.kind == "quadratic_1d" and self.a == 0:
            raise DomainError("the quadratic prototype needs a nonzero coefficient")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "quadratic_1d" else 2

    def __call__(self, p: Sequence[complex]) -> tuple[complex, ...]:
        if len(p) != self.dim:
            raise DimensionError(f"point has {len(p)} coordinates, expected {self.dim}")
        return tuple(self._formula([complex(x) for x in p]))

    def eval_batch(self, coords: list[np.ndarray]) -> list[np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            return self._formula(coords)

    def jet(self, order: int) -> JetMap:
        return JetMap(self._formula([Jet.variable(self.dim, order, i) for i in range(self.dim)]))

    def _formula(self, coords: list) -> list:
        """The closed form on complex scalars, numpy arrays or jets."""
        if self.kind == "quadratic_1d":
            (z,) = coords
            return [z + self.a * z * z]
        z, w = coords
        factor = 1 + 0.5 * z * w
        return [z * factor, w * factor]


# ----------------------------------------------------------------------
# normal-form verification


def _in_ideal(e: tuple[int, ...], generators: Sequence[tuple[int, ...]]) -> bool:
    return any(all(x >= g for x, g in zip(e, gen)) for gen in generators)


def _worst(*defects: float) -> float:
    """Largest defect; nan if any is nan (max() drops a nan that is not first)."""
    return math.nan if any(math.isnan(d) for d in defects) else max(defects)


def verify_normal_form(
    jet_map: JetMap,
    weights: Sequence[float],
    w_coeff: float,
    note_literal_remainder: bool = False,
) -> Report:
    """Certify the shear word's normal form monomial by monomial.

    For each z-component the checks are: unit linear coefficient, the
    zeta-coefficient equals -a_i, and the remainder lies in the monomial
    ideal z_i * (zeta^2, zeta w).  For the w-component: unit linear
    coefficient, zeta w coefficient equals -b, and the remainder lies in
    w * (zeta^2, zeta w) + (zeta^3).  A nan or infinite coefficient fails
    the check it belongs to.
    """
    k = len(weights)
    n = k + 1
    if jet_map.k != n or jet_map.arity_out != n:
        raise DimensionError(f"expected a self-map of C^{n}")
    order = jet_map.order
    tol = 1e-12
    report = Report(title="normal form")

    ones = (1,) * k

    def zexp(i: int, extra_z: int = 0, extra_w: int = 0) -> tuple[int, ...]:
        e = [extra_z] * k
        e[i] += 1
        return tuple(e) + (extra_w,)

    for i in range(k):
        comp = jet_map.components[i]
        lin = comp.coefficient(zexp(i))
        zc = comp.coefficient(zexp(i, extra_z=1))
        defect = _worst(abs(lin - 1.0), abs(zc + weights[i]))
        report.add(
            f"coeff_F{i + 1}",
            defect <= tol,
            defect=defect,
            tolerance=tol,
            note=f"linear term 1, zeta term {-weights[i]:g}",
        )

    wc = jet_map.components[k]
    lin_w = wc.coefficient((0,) * k + (1,))
    zw = wc.coefficient(ones + (1,))
    defect = _worst(abs(lin_w - 1.0), abs(zw + w_coeff))
    report.add(
        "coeff_Fw",
        defect <= tol,
        defect=defect,
        tolerance=tol,
        note=f"linear term 1, zeta*w term {-w_coeff:g}",
    )

    # remainder ideals
    bad_z: list[str] = []
    for i in range(k):
        expected = Jet(n, order, {zexp(i): 1.0, zexp(i, extra_z=1): -weights[i]})
        diff = jet_map.components[i] - expected
        gens = (zexp(i, extra_z=2), zexp(i, extra_z=1, extra_w=1))
        for e, c in diff.sorted_terms():
            if not (_in_ideal(e, gens) and cmath.isfinite(c)):
                bad_z.append(f"F{i + 1}: {e} -> {c:.3g}")
    report.add(
        "ideal_Fz",
        not bad_z,
        note="; ".join(bad_z) if bad_z else "remainders in z_i*(zeta^2, zeta*w)",
    )

    expected_w = Jet(n, order, {(0,) * k + (1,): 1.0, ones + (1,): -w_coeff})
    diff_w = wc - expected_w
    gens_w = (tuple(2 for _ in range(k)) + (1,), ones + (2,), tuple(3 for _ in range(k)) + (0,))
    bad_w = [f"{e} -> {c:.3g}" for e, c in diff_w.sorted_terms()
             if not (_in_ideal(e, gens_w) and cmath.isfinite(c))]
    report.add(
        "ideal_Fw",
        not bad_w,
        note="; ".join(bad_w) if bad_w else "remainder in w*(zeta^2, zeta*w) + (zeta^3)",
    )

    if note_literal_remainder:
        narrow = (
            tuple(3 for _ in range(k)) + (0,),
            tuple(2 for _ in range(k)) + (1,),
            ones + (3,),
        )
        outside = [f"{e} -> {c:.3g}" for e, c in diff_w.sorted_terms() if not _in_ideal(e, narrow)]
        if outside:
            report.notes.append(
                "w-component remainder monomials outside the narrow set "
                "{zeta^3, zeta^2 w, zeta w^3} (allowed by the ideal above): "
                + "; ".join(outside)
            )
    return report


def verify_form_eq1(jet_map: JetMap, params: Params) -> Report:
    """Three-dimensional normal-form report (five checks)."""
    if jet_map.k != 3:
        raise DimensionError("expected a jet map in three variables")
    return verify_normal_form(jet_map, (params.a, params.b), params.c)


# ----------------------------------------------------------------------
# map specification (JSON external interface)


def map_from_spec(spec: dict):
    """Build a map from {"family": ..., "a": ..., "b": ..., "c": ..., "k": ...}.

    The one factory of maps; the CLI turns its flags and config files into
    such a spec.  Missing entries take the defaults a = 1, c = 3, k = 3, and
    b = a for F3 and G or b = 4 for FAMILY_K.  ``a`` is a number or a list:
    FAMILY_K repeats a single weight k times, F3, G and PROTO_1D take
    exactly one, and PROTO_2D has no parameters.
    """
    family = spec.get("family")
    a = spec.get("a", 1.0)
    weights = [float(x) for x in a] if isinstance(a, (list, tuple)) else [float(a)]
    if family == "FAMILY_K":
        k = int(spec.get("k", 3))
        if len(weights) == 1:
            weights *= k
        if len(weights) != k:
            raise DimensionError(f"need {k} weights for the family, got {len(weights)}")
        return build_family(k, weights, float(spec.get("b", 4.0)))
    if family == "PROTO_2D":
        return Prototype("product_2d")
    if family not in ("F3", "G", "PROTO_1D"):
        raise ValueError(f"unknown map {family!r}")
    if len(weights) != 1:
        raise DimensionError(f"map {family} takes one weight a, got {len(weights)}")
    if family == "PROTO_1D":
        return Prototype("quadratic_1d", weights[0])
    word = build_F(Params(weights[0], float(spec.get("b", weights[0])), float(spec.get("c", 3.0))))
    return word if family == "F3" else PushforwardMap(word)
