"""Cartan calculus over a fixed chart.

Vector fields and differential forms of degree one and two, with the
operations the flatness analysis needs: Lie brackets, Lie derivatives
of functions and one-forms, exterior derivatives, interior products
and wedge products of one-forms. Forms above degree two never occur
(retracting spaces only need d of a one-form), so they are not
implemented.

All objects carry the Frame they live in; mixing charts raises
ChartError instead of producing silently wrong coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .symx import (Const, Expr, Mul, Point, Sub, SymxError, ZERO, diff,
                   normalize, Frame, ONE_E)


class ChartError(SymxError):
    """Operands live in different charts."""


def _same_chart(*objs) -> Frame:
    frame = objs[0].frame
    for o in objs[1:]:
        if o.frame != frame:
            raise ChartError(
                f"chart mismatch: '{frame.name}' vs '{o.frame.name}'")
    return frame


@dataclass(frozen=True)
class VectorField:
    """Column of n component expressions in a frame."""

    frame: Frame
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.frame.n:
            raise ValueError(
                f"{len(self.components)} components in an "
                f"{self.frame.n}-dimensional chart")

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.frame, tuple(
            normalize(a + b) for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.frame, tuple(
            normalize(a - b) for a, b in zip(self.components, other.components)))

    def scale(self, c: Expr) -> "VectorField":
        return VectorField(self.frame, tuple(
            normalize(Mul(c, x)) for x in self.components))

    def is_zero(self) -> bool:
        return all(normalize(x) == ZERO for x in self.components)

    @cached_property
    def evaluator(self):
        """Compiled components, built on first use: (coords, params) ->
        tuple of values, with symx's evaluation contract."""
        return self.frame.evaluator(self.components)

    def values(self, at: Point) -> np.ndarray:
        _same_chart(self, at)
        return np.array(self.evaluator(at.coords, at.params))


@dataclass(frozen=True)
class OneForm:
    """Row of n coefficient expressions, coefficient i multiplying dx_i."""

    frame: Frame
    coefficients: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.frame.n:
            raise ValueError(
                f"{len(self.coefficients)} coefficients in an "
                f"{self.frame.n}-dimensional chart")

    def __add__(self, other: "OneForm") -> "OneForm":
        _same_chart(self, other)
        return OneForm(self.frame, tuple(
            normalize(a + b) for a, b in zip(self.coefficients, other.coefficients)))

    def __sub__(self, other: "OneForm") -> "OneForm":
        _same_chart(self, other)
        return OneForm(self.frame, tuple(
            normalize(a - b) for a, b in zip(self.coefficients, other.coefficients)))

    def scale(self, c: Expr) -> "OneForm":
        return OneForm(self.frame, tuple(
            normalize(Mul(c, x)) for x in self.coefficients))

    def is_zero(self) -> bool:
        return all(normalize(x) == ZERO for x in self.coefficients)

    @cached_property
    def evaluator(self):
        """As VectorField.evaluator, over the coefficients."""
        return self.frame.evaluator(self.coefficients)

    def values(self, at: Point) -> np.ndarray:
        _same_chart(self, at)
        return np.array(self.evaluator(at.coords, at.params))


@dataclass(frozen=True)
class TwoForm:
    """Coefficients indexed by strictly increasing pairs i < j.

    Absent pairs are zero. coefficient(i, j) extends antisymmetrically.
    """

    frame: Frame
    coefficients: dict[tuple[int, int], Expr]

    def __post_init__(self):
        for (i, j) in self.coefficients:
            if not 0 <= i < j < self.frame.n:
                raise ValueError(f"index pair {(i, j)} is not strictly "
                                 "upper triangular")

    def coefficient(self, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        if i < j:
            return self.coefficients.get((i, j), ZERO)
        c = self.coefficients.get((j, i), ZERO)
        return ZERO if c == ZERO else normalize(Mul(Const(Fraction(-1)), c))

    def is_zero(self) -> bool:
        return all(normalize(c) == ZERO for c in self.coefficients.values())

    @cached_property
    def evaluator(self):
        """As VectorField.evaluator, over the stored coefficients."""
        return self.frame.evaluator(tuple(self.coefficients.values()))

    def values(self, at: Point) -> np.ndarray:
        """The antisymmetric n x n coefficient matrix at a point."""
        _same_chart(self, at)
        mat = np.zeros((self.frame.n, self.frame.n))
        for (i, j), val in zip(self.coefficients,
                               self.evaluator(at.coords, at.params)):
            mat[i, j] = val
            mat[j, i] = -val
        return mat


def basis_vector(frame: Frame, i: int) -> VectorField:
    """The coordinate field d/dx_i."""
    return VectorField(frame, tuple(
        ONE_E if j == i else ZERO for j in range(frame.n)))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y], component i given by sum_j (X_j dY_i/dx_j - Y_j dX_i/dx_j)."""
    frame = _same_chart(X, Y)
    comps = []
    for i in range(frame.n):
        acc: Expr = ZERO
        for j, xj in enumerate(frame.states):
            acc = acc + X.components[j] * diff(Y.components[i], xj) \
                      - Y.components[j] * diff(X.components[i], xj)
        comps.append(normalize(acc))
    return VectorField(frame, tuple(comps))


def lie_derivative_fn(X: VectorField, h: Expr) -> Expr:
    """L_X h = sum_j X_j dh/dx_j, normalized."""
    acc: Expr = ZERO
    for j, xj in enumerate(X.frame.states):
        acc = acc + X.components[j] * diff(h, xj)
    return normalize(acc)


def exterior_derivative_fn(h: Expr, frame: Frame) -> OneForm:
    """dh, with coefficients dh/dx_i."""
    return OneForm(frame, tuple(
        normalize(diff(h, x)) for x in frame.states))


def exterior_derivative_1form(w: OneForm) -> TwoForm:
    """d(sum a_i dx_i), coefficient (i<j) equal to da_j/dx_i - da_i/dx_j."""
    frame = w.frame
    coeffs: dict[tuple[int, int], Expr] = {}
    for i in range(frame.n):
        for j in range(i + 1, frame.n):
            c = normalize(Sub(diff(w.coefficients[j], frame.states[i]),
                              diff(w.coefficients[i], frame.states[j])))
            if c != ZERO:
                coeffs[(i, j)] = c
    return TwoForm(frame, coeffs)


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """a ^ b with (i<j) coefficient a_i b_j - a_j b_i."""
    frame = _same_chart(a, b)
    coeffs: dict[tuple[int, int], Expr] = {}
    for i in range(frame.n):
        for j in range(i + 1, frame.n):
            c = normalize(a.coefficients[i] * b.coefficients[j]
                          - a.coefficients[j] * b.coefficients[i])
            if c != ZERO:
                coeffs[(i, j)] = c
    return TwoForm(frame, coeffs)


def interior_product(X: VectorField, w: "OneForm | TwoForm"):
    """X into w. For a two-form gives the one-form with coefficients
    sum_i X_i w_{ij}; for a one-form gives the pairing <w, X>."""
    frame = _same_chart(X, w)
    if isinstance(w, OneForm):
        acc: Expr = ZERO
        for i in range(frame.n):
            acc = acc + X.components[i] * w.coefficients[i]
        return normalize(acc)
    comps = []
    for j in range(frame.n):
        acc = ZERO
        for i in range(frame.n):
            if i == j:
                continue
            c = w.coefficient(i, j)
            if c == ZERO:
                continue
            acc = acc + X.components[i] * c
        comps.append(normalize(acc))
    return OneForm(frame, tuple(comps))


def lie_derivative_1form(X: VectorField, w: OneForm,
                        dw: TwoForm | None = None) -> OneForm:
    """L_X w by Cartan's formula i_X dw + d(i_X w). Pass dw when d(w)
    is already built; it is computed otherwise."""
    frame = _same_chart(X, w)
    if dw is None:
        dw = exterior_derivative_1form(w)
    inner = interior_product(X, dw)
    outer = exterior_derivative_fn(interior_product(X, w), frame)
    return inner + outer
