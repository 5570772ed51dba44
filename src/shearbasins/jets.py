"""Sparse truncated multivariate power series with complex coefficients.

A :class:`Jet` holds the monomials of total degree <= ``order`` of a
holomorphic germ at the origin, keyed by exponent tuples.  Products and
compositions discard everything above the truncation order, and any
coefficient whose modulus falls below :data:`PRUNE_THRESHOLD` is dropped,
so an absent monomial always means a zero coefficient (a nan coefficient
is kept).  Term iteration, evaluation and serialization use graded
lexicographic order, which keeps every derived output bit-stable across
runs.

A product multiplies only the nonzero terms: each output coefficient is
the sum, from 0j, of Python complex products ``a * b`` taken with the
left factor's terms in graded lexicographic order.  No numpy arithmetic
is involved, so products round the same way on every host.

:class:`JetMap` bundles jets sharing the same variables into a truncated
map germ and adds composition, homogeneous parts and the Jacobian.
"""

from __future__ import annotations

from numbers import Number
from operator import add
from typing import Iterator, Mapping, Sequence

PRUNE_THRESHOLD = 1e-14
DEFAULT_ORDER = 8


class DimensionError(ValueError):
    """Operands disagree on variable count, truncation order or arity."""


class DomainError(ValueError):
    """Input outside the operation's domain (e.g. nonzero constant term)."""


class OrderRangeError(ValueError):
    """Requested degree lies outside the truncation order."""


def grlex_key(exponents: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key for graded lexicographic term order."""
    return (sum(exponents), exponents)


def _validate_exponents(e: tuple[int, ...], k: int, order: int) -> None:
    if len(e) != k:
        raise DimensionError(f"exponent vector {e} has length {len(e)}, expected {k}")
    if any(x < 0 for x in e):
        raise ValueError(f"negative exponent in {e}")
    if sum(e) > order:
        raise OrderRangeError(f"monomial {e} has degree {sum(e)} > order {order}")


class Jet:
    """One truncated power series.  Treat instances as immutable values."""

    __slots__ = ("k", "order", "terms")

    def __init__(self, k: int, order: int, terms: Mapping[tuple[int, ...], complex] | None = None):
        if k < 1:
            raise DimensionError("need at least one variable")
        if order < 0:
            raise OrderRangeError("truncation order must be >= 0")
        self.k = int(k)
        self.order = int(order)
        pruned: dict[tuple[int, ...], complex] = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                _validate_exponents(e, self.k, self.order)
                c = complex(c)
                if not abs(c) < PRUNE_THRESHOLD:  # nan is kept
                    pruned[e] = c
        self.terms = pruned

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, k: int, order: int, value: complex) -> "Jet":
        return cls(k, order, {(0,) * k: complex(value)})

    @classmethod
    def variable(cls, k: int, order: int, index: int) -> "Jet":
        if not 0 <= index < k:
            raise DimensionError(f"variable index {index} out of range for k={k}")
        return cls.monomial(k, order, tuple(1 if i == index else 0 for i in range(k)))

    @classmethod
    def monomial(cls, k: int, order: int, exponents: Sequence[int], coeff: complex = 1.0) -> "Jet":
        """Single monomial; degrees above the order truncate to the zero jet."""
        e = tuple(int(x) for x in exponents)
        if sum(e) > order:
            return cls(k, order, {})
        return cls(k, order, {e: complex(coeff)})

    # ------------------------------------------------------------------
    # basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Sequence[int]) -> complex:
        return self.terms.get(tuple(int(x) for x in exponents), 0j)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.terms.values())

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self.sorted_terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.k == other.k and self.order == other.order and self.terms == other.terms

    __hash__ = None  # mutable dict inside; value equality only

    def allclose(self, other: "Jet", tol: float = 1e-12) -> bool:
        """Symbolic equality: same support up to coefficients within tol."""
        if self.k != other.k or self.order != other.order:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(e, 0j) - other.terms.get(e, 0j)) <= tol for e in keys)

    def max_abs_diff(self, other: "Jet") -> float:
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.terms.get(e, 0j) - other.terms.get(e, 0j)) for e in keys), default=0.0)

    # ------------------------------------------------------------------
    # ring operations

    def _check_compatible(self, other: "Jet") -> None:
        if self.k != other.k:
            raise DimensionError(f"variable count mismatch: {self.k} vs {other.k}")
        if self.order != other.order:
            raise DimensionError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Jet | complex") -> "Jet":
        if isinstance(other, Number):
            other = Jet.constant(self.k, self.order, other)
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0j) + c
        return Jet(self.k, self.order, merged)

    def __radd__(self, other: complex) -> "Jet":
        return self.__add__(other)

    def __neg__(self) -> "Jet":
        return Jet(self.k, self.order, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Jet | complex") -> "Jet":
        return self.__add__(-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other: complex) -> "Jet":
        return (-self).__add__(other)

    def __mul__(self, other: "Jet | complex") -> "Jet":
        if isinstance(other, Number):
            other = complex(other)
            return Jet(self.k, self.order, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compatible(other)
        right = [(sum(e), e, c) for e, c in other.sorted_terms()]
        acc: dict[tuple[int, ...], complex] = {}
        for ea, ca in self.sorted_terms():
            room = self.order - sum(ea)
            for db, eb, cb in right:
                if db > room:
                    break
                e = tuple(map(add, ea, eb))
                acc[e] = acc.get(e, 0j) + ca * cb
        return Jet(self.k, self.order, acc)

    def __rmul__(self, other: complex) -> "Jet":
        return self.__mul__(other)

    def __truediv__(self, scalar: complex) -> "Jet":
        return self.__mul__(1.0 / complex(scalar))

    def exp(self) -> "Jet":
        """Truncated exponential sum_{m<=order} self^m / m!.

        Requires a vanishing constant term; only then is the finite sum the
        actual truncation of exp.
        """
        if abs(self.coefficient((0,) * self.k)) >= PRUNE_THRESHOLD:
            raise DomainError("jet exponential needs a zero constant term")
        result = Jet.constant(self.k, self.order, 1.0)
        term = Jet.constant(self.k, self.order, 1.0)
        for m in range(1, self.order + 1):
            term = term * self / m
            if term.is_zero():
                break
            result = result + term
        return result

    # ------------------------------------------------------------------
    # calculus and evaluation

    def derivative(self, index: int) -> "Jet":
        """Partial derivative, truncated at order-1."""
        if not 0 <= index < self.k:
            raise DimensionError(f"variable index {index} out of range for k={self.k}")
        new_order = max(self.order - 1, 0)
        terms: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            shifted = tuple(x - 1 if i == index else x for i, x in enumerate(e))
            if sum(shifted) <= new_order:
                terms[shifted] = terms.get(shifted, 0j) + c * e[index]
        return Jet(self.k, new_order, terms)

    def homogeneous_part(self, degree: int) -> "Jet":
        if not 0 <= degree <= self.order:
            raise OrderRangeError(f"degree {degree} outside [0, {self.order}]")
        return Jet(self.k, self.order, {e: c for e, c in self.terms.items() if sum(e) == degree})

    def __call__(self, point: Sequence[complex]) -> complex:
        if len(point) != self.k:
            raise DimensionError(f"point has {len(point)} coordinates, expected {self.k}")
        pt = [complex(x) for x in point]
        total = 0j
        for e, c in self.sorted_terms():
            value = c
            for x, p in zip(pt, e):
                if p:
                    value *= x**p
            total += value
        return total

    # ------------------------------------------------------------------
    # serialization and display

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "order": self.order,
            "terms": [
                {"e": list(e), "re": c.real, "im": c.imag} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Jet":
        terms = {tuple(t["e"]): complex(t["re"], t["im"]) for t in data["terms"]}
        return cls(int(data["k"]), int(data["order"]), terms)

    def __repr__(self) -> str:
        return f"Jet(k={self.k}, order={self.order}, {format_jet(self)})"


def format_jet(jet: Jet, names: Sequence[str] | None = None) -> str:
    """Human-readable polynomial string in graded-lex term order."""
    if names is None:
        names = [f"x{i}" for i in range(jet.k)]
    if jet.is_zero():
        return "0"
    pieces: list[str] = []
    for e, c in jet.sorted_terms():
        mono = "*".join(
            name if p == 1 else f"{name}^{p}" for name, p in zip(names, e) if p
        )
        if c.imag == 0.0:
            sign = "-" if c.real < 0 else "+"
            mag = abs(c.real)
            coeff = "" if mag == 1.0 and mono else f"{mag:.12g}"
        else:
            sign = "+"
            coeff = f"({c.real:.12g}{c.imag:+.12g}j)"
        body = coeff + ("*" if coeff and mono else "") + (mono or "")
        if not pieces:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)


class JetMap:
    """A tuple of jets over shared variables, viewed as a truncated map germ."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Jet]):
        comps = tuple(components)
        if not comps:
            raise DimensionError("a jet map needs at least one component")
        k, order = comps[0].k, comps[0].order
        for c in comps[1:]:
            if c.k != k or c.order != order:
                raise DimensionError("all components must share variables and order")
        self.components = comps

    @property
    def k(self) -> int:
        return self.components[0].k

    @property
    def order(self) -> int:
        return self.components[0].order

    @property
    def arity_out(self) -> int:
        return len(self.components)

    @classmethod
    def identity(cls, k: int, order: int) -> "JetMap":
        return cls([Jet.variable(k, order, i) for i in range(k)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JetMap):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def allclose(self, other: "JetMap", tol: float = 1e-12) -> bool:
        return self.arity_out == other.arity_out and all(
            a.allclose(b, tol) for a, b in zip(self.components, other.components)
        )

    def max_abs_diff(self, other: "JetMap") -> float:
        return max(a.max_abs_diff(b) for a, b in zip(self.components, other.components))

    def is_origin_preserving(self) -> bool:
        zero = (0,) * self.k
        return all(abs(c.coefficient(zero)) < PRUNE_THRESHOLD for c in self.components)

    def linear_part_is_identity(self, tol: float = 1e-12) -> bool:
        if self.arity_out != self.k or not self.is_origin_preserving():
            return False
        for i, comp in enumerate(self.components):
            lin = comp.homogeneous_part(1) if self.order >= 1 else comp
            for j in range(self.k):
                e = tuple(1 if m == j else 0 for m in range(self.k))
                want = 1.0 if i == j else 0.0
                if abs(lin.coefficient(e) - want) > tol:
                    return False
        return True

    def __call__(self, point: Sequence[complex]) -> tuple[complex, ...]:
        return tuple(c(point) for c in self.components)

    def compose(self, inner: "JetMap") -> "JetMap":
        """Substitute ``inner`` into ``self`` (self after inner), truncated."""
        if inner.arity_out != self.k:
            raise DimensionError(
                f"inner map produces {inner.arity_out} values, outer expects {self.k}"
            )
        if inner.order != self.order:
            raise DimensionError("composition requires matching truncation orders")
        if not inner.is_origin_preserving():
            raise DomainError("composition requires an origin-preserving inner map")

        powers: dict[tuple[int, int], Jet] = {}

        def power(j: int, m: int) -> Jet:
            key = (j, m)
            if key not in powers:
                powers[key] = inner.components[j] if m == 1 else power(j, m - 1) * inner.components[j]
            return powers[key]

        out_components = []
        for comp in self.components:
            acc = Jet.constant(inner.k, inner.order, 0.0)
            for e, c in comp.sorted_terms():
                prod: Jet | None = None
                for j, exp_j in enumerate(e):
                    if exp_j:
                        pj = power(j, exp_j)
                        prod = pj if prod is None else prod * pj
                term = Jet.constant(inner.k, inner.order, c) if prod is None else prod * c
                acc = acc + term
            out_components.append(acc)
        return JetMap(out_components)

    def homogeneous_part(self, degree: int) -> "JetMap":
        return JetMap([c.homogeneous_part(degree) for c in self.components])

    def minus_identity(self) -> "JetMap":
        if self.arity_out != self.k:
            raise DimensionError("minus_identity needs a self-map")
        ident = JetMap.identity(self.k, self.order)
        return JetMap([a - b for a, b in zip(self.components, ident.components)])

    def jacobian(self) -> list[list[Jet]]:
        """Matrix of partial derivatives; entry (i, j) is d component_i / d x_j."""
        return [[c.derivative(j) for j in range(self.k)] for c in self.components]

    def to_dict(self) -> dict:
        return {"components": [c.to_dict() for c in self.components]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "JetMap":
        return cls([Jet.from_dict(c) for c in data["components"]])

    def __repr__(self) -> str:
        body = "; ".join(format_jet(c) for c in self.components)
        return f"JetMap(k={self.k}, order={self.order}, [{body}])"
