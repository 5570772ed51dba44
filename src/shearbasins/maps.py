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
(coordinates z, t, w) the word is the classical three-dimensional example.
Each factor acts on (zeta, w) as a one-coordinate factor of weight A would,
so the projection (z, w) -> (zeta, w) semi-conjugates the word to its
zeta-word :func:`planar_word`, for k = 2 the planar map G.  Its check is
:func:`push_forward` (G's jet from the word's jet); :func:`eval_pushforward`
(G through a square-root lift) is only the tests' reference.  Each closed form
is written once, a factor's in ``_FORMULAS``, a prototype's in ``_PROTOTYPES``,
and ``_compile`` alone makes code of it: for every package map one scalar step
(points and jets), one batch step and the ``advance`` loop ``iterate`` runs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .jets import DimensionError, DomainError, Jet, JetMap, OrderRangeError
from .report import Report

def _cexp(x: complex) -> complex:
    """cmath.exp, or C's cexp value where it raises; like cmath.exp and np.exp, commutes with conjugation."""
    try:
        return cmath.exp(x)
    except OverflowError:
        return complex(math.inf * math.cos(x.imag), math.inf * math.sin(x.imag) if x.imag else x.imag)
    except ValueError:  # an infinite imaginary part
        return complex(math.inf if x.real == math.inf else math.nan, math.nan)


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


_INVERSE_KIND = {k: ElementaryKind(k.value[:-4] if k.value.endswith("_inv") else k.value + "_inv")
                 for k in ElementaryKind}

# The closed form of each kind, written once for complex scalars, jets and
# numpy arrays: the argument of its exponential e, or None, then its updates
# "x op y", each meaning x = x op y.  A z-kind runs them for every z_i, with
# {a} its weight; {rate} = {total} + w_coeff.  The scalar step built from it
# also gives MapWord.jet.
_FORMULAS = {
    ElementaryKind.SHEAR: (None, ["w - zeta"]),
    ElementaryKind.SHEAR_INV: (None, ["w + zeta"]),
    ElementaryKind.OVERSHEAR: ("{a} * w", ["{z} * e"]),
    ElementaryKind.OVERSHEAR_INV: ("-{a} * w", ["{z} * e"]),
    ElementaryKind.TWIST: ("-{rate} * zeta", ["w * e", "w + {total} * zeta * zeta"]),
    ElementaryKind.TWIST_INV: ("{rate} * zeta", ["w - {total} * zeta * zeta", "w * e"]),
}


# The prototypes' closed forms as statements on (w,) and (z0, w), for complex
# scalars, jets and numpy arrays alike; a is the quadratic's coefficient.
_PROTOTYPES = {
    "quadratic_1d": ["w = w + a * w * w"],
    "product_2d": ["f = 1 + 0.5 * z0 * w", "z0 = z0 * f", "w = w * f"],
}


def _compile(xs: Sequence[str], statements, kind: str):
    """The map on coordinates ``xs`` whose closed form ``statements(batch, namespace)``
    writes, compiled as ``kind``: "step", "advance" or "batch" (see _ClosedForm)."""
    coords = ", ".join(xs)  # each unpacking target ends in a comma, so that (w,) unpacks
    namespace = {"cmath": cmath, "math": math, "np": np, "DimensionError": DimensionError}

    def body(batch: bool, indent: str) -> str:
        return "".join(f"\n{indent}{line}" for line in statements(batch, namespace))

    if kind == "step":
        source = f"""
def step(p, exp=cmath.exp, convert=complex):
    try:
        {coords}, = p
    except ValueError:
        raise DimensionError(f"point has {{len(p)}} coordinates, expected {len(xs)}") from None
    {coords}, = {", ".join(f"convert({x})" for x in xs)},{body(False, "    ")}
    return ({coords},)
"""
    elif kind == "advance":
        # _norm's sum: each coordinate's two squares, then the coordinates left to right
        last = "".join(f"\n            last_{x} = {x}" for x in xs)
        norm = " + ".join(f"({x}.real * {x}.real + {x}.imag * {x}.imag)" for x in xs)
        lasts = ", ".join(f"last_{x}" for x in xs)
        source = f"""
def advance(p, n, stop, eps, radius, block):
    exp, sqrt = cmath.exp, math.sqrt
    if len(p) != {len(xs)}:
        return p, None, n, block, None
    {coords}, = p
    try:
        while True:{last}
            n += 1{body(False, "            ")}
            nrm = sqrt({norm})
            if n == stop or not eps <= nrm <= radius or {xs[0]}.real == last_{xs[0]}.real:
                return ({lasts},), ({coords},), n, block, nrm
            if nrm > block:
                block = nrm
    except (OverflowError, ValueError):
        return ({lasts},), None, n - 1, block, None
"""
    else:
        source = f"""
def batch(coords):
    {coords}, = coords
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):{body(True, "        ")}
    return [{coords}]
"""
    exec(source, namespace)
    return namespace[kind]


class _ClosedForm:
    """A map whose ``_statements(batch, namespace)`` write its closed form as
    straight-line code on (z0, ..., w): the one base of MapWord and Prototype.

    ``_compile`` builds from them, each on first use, the scalar step
    (``__call__`` and ``jet``), the numpy batch step (``eval_batch``) and
    ``advance``; a forked worker compiles what the parent never ran, once
    per worker.  The scalar step calls cmath.exp directly; only when it
    raises (overflow, or an infinite argument) does ``__call__`` rerun the
    step with _cexp, which returns cmath.exp's value wherever that returns.
    Its exponential and its coordinate conversion are parameters, cmath.exp
    and complex by default, for ``jet`` alone, which runs the step on Jet
    variables with Jet.exp and no conversion, one truncated product at a
    time.  They are not user options.

    ``advance(p, n, stop, eps, radius, block)`` is ``iterate``'s loop of
    scalar steps from the complex point p of index n.  It keeps the
    coordinates in locals, with no conversion and no tuple per step, adds
    each step's norm into the block maximum ``block`` as ``iterate`` does,
    and writes ``_norm``'s sum inline.  It returns (point before, point,
    index, block, norm of the point) at the first step whose norm lies
    outside [eps, radius] or is nan, or whose first coordinate's real part
    did not change (every stationary step), and at index ``stop``; before
    a step whose cmath.exp raises it returns (point, None, index, block,
    None), and that step goes through ``__call__``.

    The batch step runs inside np.errstate, so overflow gives inf or nan
    without a RuntimeWarning.  Equality, hashing and pickling use the
    dataclass fields only; an unpickled map compiles again, on first use.
    """

    @property
    def _coords(self) -> list[str]:
        return [*(f"z{i}" for i in range(self.dim - 1)), "w"]

    _step = cached_property(lambda self: _compile(self._coords, self._statements, "step"))
    _batch = cached_property(lambda self: _compile(self._coords, self._statements, "batch"))
    advance = cached_property(lambda self: _compile(self._coords, self._statements, "advance"))

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    def __call__(self, p: Sequence[complex]) -> tuple[complex, ...]:
        try:
            return self._step(p)
        except (OverflowError, ValueError):
            return self._step(p, _cexp)

    def eval_batch(self, coords: list[np.ndarray]) -> list[np.ndarray]:
        return self._batch(coords)

    def jet(self, order: int) -> JetMap:
        xs = [Jet.variable(self.dim, order, i) for i in range(self.dim)]
        jet = JetMap(self._step(xs, Jet.exp, lambda x: x))
        if not all(cmath.isfinite(c) for comp in jet.components for c in comp.terms.values()):
            raise DomainError(f"the order-{order} jet overflows: a coefficient is not finite")
        return jet


@dataclass(frozen=True)
class ElementaryMap:
    """One factor of a word (kind, z-weights, w-coefficient); ``MapWord((f,))`` evaluates it."""

    kind: ElementaryKind
    weights: tuple[float, ...]
    w_coeff: float

    @property
    def dim(self) -> int:
        return len(self.weights) + 1

    def inverse(self) -> "ElementaryMap":
        return ElementaryMap(_INVERSE_KIND[self.kind], self.weights, self.w_coeff)


@dataclass(frozen=True)
class MapWord(_ClosedForm):
    """Composition word; ``factors[0]`` is applied last, ``factors[-1]`` first.

    Any k >= 1 is allowed; :func:`planar_word` builds k = 1 words.

    Its statements do the float operations of applying the factors' closed
    forms from ``_FORMULAS`` one by one, in the same order: the scalar zeta
    product starts from (1+0j), weights enter as the float-complex products
    a * w and -a * w, _cexp turns overflow into inf, and the twist's total
    is sum(weights) from int 0.  A zeta product is reused only across
    factors that leave every z_i unchanged.  A word that is only built,
    such as the F3 word behind ``directions --map G``, compiles nothing.

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
    rounds differently on one-element arrays.
    """

    factors: tuple[ElementaryMap, ...]

    def __post_init__(self):
        if not self.factors:
            raise DimensionError("a map word needs at least one factor")
        if len({f.dim for f in self.factors}) != 1 or self.dim < 2:
            raise DimensionError("all factors must act on the same space C^{k+1}, k >= 1")

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    def _statements(self, batch: bool, namespace: dict) -> list[str]:
        # owned: the arrays this batch step allocated, the only ones it adds
        # or subtracts into; it never multiplies in place, because numpy's
        # in-place complex product rounds differently on one-element arrays
        zs = self._coords[:-1]
        lines, owned, zeta_valid = [], set(), False
        for j, factor in enumerate(reversed(self.factors)):
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
        return lines

    def inverse(self) -> "MapWord":
        return MapWord(tuple(f.inverse() for f in reversed(self.factors)))

    def then(self, other: "MapWord") -> "MapWord":
        """Word for other o self."""
        return MapWord(other.factors + self.factors)



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


@cache
def planar_word(word: MapWord) -> MapWord:
    """The map ``word`` induces on (zeta, w), for F3 the map G: the same
    factors, each with the single weight sum(f.weights) that its twist uses.
    One word's planar word is built once per process, so its checks share
    its compiled code."""
    return MapWord(tuple(ElementaryMap(f.kind, (sum(f.weights),), f.w_coeff) for f in word.factors))


# ----------------------------------------------------------------------
# projection to the (zeta, w) plane


def project_pi(p: Sequence[complex]) -> tuple[complex, complex]:
    """(z, t, w) -> (z t, w)."""
    if len(p) != 3:
        raise DimensionError("the projection is defined on three coordinates")
    return (p[0] * p[1], p[2])


def push_forward(jet_map: JetMap) -> JetMap:
    """Planar jet induced along (z, t, w) -> (zt, w), the check of G's jet.

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
    """G through the square-root lift (sqrt x, sqrt x, y), the reference for :func:`planar_word`.

    Uses the principal branch; the result is branch independent because the
    word commutes with (z, t) -> (lambda z, t / lambda).
    """
    if word.dim != 3:
        raise DimensionError("the induced planar map needs a three-dimensional word")
    if len(q) != 2:
        raise DimensionError("expected a planar point (x, y)")
    s = cmath.sqrt(complex(q[0]))
    return project_pi(word((s, s, complex(q[1]))))


# ----------------------------------------------------------------------
# prototypes


@dataclass(frozen=True)
class Prototype(_ClosedForm):
    """Non-automorphism model maps: the 1D quadratic and the 2D product map (``_PROTOTYPES``)."""

    kind: str  # "quadratic_1d" | "product_2d"
    a: float = 1.0

    def __post_init__(self):
        if self.kind not in _PROTOTYPES:
            raise ValueError(f"unknown prototype kind {self.kind!r}")
        if not math.isfinite(self.a):
            raise DomainError("the prototype coefficient must be finite")
        if self.kind == "quadratic_1d" and self.a == 0:
            raise DomainError("the quadratic prototype needs a nonzero coefficient")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "quadratic_1d" else 2

    def _statements(self, batch: bool, namespace: dict) -> list[str]:
        namespace["a"] = self.a
        return _PROTOTYPES[self.kind]


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
    the check it belongs to.  The zeta*z_i and zeta*w terms have degree
    k + 1, so a jet of lower order raises ``OrderRangeError``.
    """
    k = len(weights)
    n = k + 1
    if jet_map.k != n or jet_map.arity_out != n:
        raise DimensionError(f"expected a self-map of C^{n}")
    order = jet_map.order
    if order < n:
        raise OrderRangeError(f"the normal form reads the degree-{n} terms zeta*z_i and zeta*w: "
                              f"need order >= {n} (k + 1), got {order}")
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


# ----------------------------------------------------------------------
# map specification (JSON external interface)


# the parameters each map family takes
_PARAMETERS = {"F3": ("a", "b", "c"), "G": ("a", "b", "c"), "PROTO_1D": ("a",), "PROTO_2D": (),
               "FAMILY_K": ("a", "b", "k")}


def map_from_spec(spec: dict):
    """Build a map from {"family": ..., "a": ..., "b": ..., "c": ..., "k": ...}.

    The one factory of maps; the CLI turns its flags and config files into
    such a spec.  Missing entries take the defaults a = 1, c = 3, k = 3, and
    b = a for F3 and G or b = 4 for FAMILY_K.  ``a`` is a number or a list:
    FAMILY_K repeats a single weight k times, F3, G and PROTO_1D take
    exactly one, and PROTO_2D has no parameters.  A key the map does not
    take (``k`` for F3, ``c`` for FAMILY_K, ...) is an error.
    """
    family = spec.get("family")
    if family not in _PARAMETERS:
        raise ValueError(f"unknown map {family!r}")
    extra = [key for key in spec if key != "family" and key not in _PARAMETERS[family]]
    if extra:
        raise ValueError(f"map {family} takes no parameter {extra[0]!r}")
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
    if len(weights) != 1:
        raise DimensionError(f"map {family} takes one weight a, got {len(weights)}")
    if family == "PROTO_1D":
        return Prototype("quadratic_1d", weights[0])
    word = build_family(2, (weights[0], float(spec.get("b", weights[0]))), float(spec.get("c", 3.0)))
    return word if family == "F3" else planar_word(word)
