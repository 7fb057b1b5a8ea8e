"""Cartan calculus over a fixed chart.

Vector fields and differential forms of degree one and two, with the
operations the flatness analysis needs: Lie brackets, Lie derivatives
of functions and one-forms, exterior derivatives, interior products
and wedge products of one-forms. Forms above degree two never occur
(retracting spaces only need d of a one-form), so they are not
implemented.

All objects carry the Frame they live in; mixing charts raises
ChartError instead of producing silently wrong coordinates.

Each coefficient is symx.fold of the terms its formula spells out:
normalize's tree for their sum from ZERO, with its stored pair, folded
on the operands' pairs without building the sum as a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .symx import (EvalError, Expr, Frame, ONE_E, Point, SymxError, ZERO,
                   fold, is_zero, point_rows)


class ChartError(SymxError):
    """Operands live in different charts."""


def _same_chart(*objs) -> Frame:
    frame = objs[0].frame
    for o in objs[1:]:
        if o.frame is not frame and o.frame != frame:
            raise ChartError(
                f"chart mismatch: '{frame.name}' vs '{o.frame.name}'")
    return frame


class _Evaluated:
    """A field or form that keeps what it compiles and evaluates: its
    evaluator, built on first use, and cached_values' outcomes."""

    def _values(self, exprs, points: Sequence[Point]) -> np.ndarray:
        """exprs, the object's, at points: one call of its evaluator
        (Frame.evaluator's function of exprs), compiled on the first."""
        _same_chart(self, *points)
        evaluate = vars(self).get("_evaluate")
        if evaluate is None:
            evaluate = vars(self)["_evaluate"] = self.frame.evaluator(exprs)
        return evaluate(*point_rows(points))

    def cached_values(self, points: Sequence[Point]) -> np.ndarray:
        """values(points), evaluated on the first call for these points
        only: a later call returns the same array, made read-only, or
        raises the same EvalError, its done made read-only. The outcome
        is kept by the identities of the points, with the points, so
        none can give its id to another point meanwhile."""
        kept = vars(self).setdefault("_evaluated", {})
        key = tuple(map(id, points))
        hit = kept.get(key)
        if hit is None:
            try:
                out = self.values(points)
                out.flags.writeable = False
            except EvalError as exc:
                out = exc
                if exc.done is not None:
                    exc.done.flags.writeable = False
            hit = kept[key] = tuple(points), out
        if isinstance(hit[1], EvalError):
            raise hit[1].with_traceback(None)
        return hit[1]


@dataclass(frozen=True)
class VectorField(_Evaluated):
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
            fold(((1, None, a, None), (1, None, b, None)))
            for a, b in zip(self.components, other.components)))

    def scale(self, c: Expr) -> "VectorField":
        return VectorField(self.frame, tuple(
            fold(((1, c, x, None),)) for x in self.components))

    def is_zero(self) -> bool:
        return all(map(is_zero, self.components))

    def values(self, points: Sequence[Point]) -> np.ndarray:
        """The components at each point, as a (points, n) array from
        one batched call; the first failing point raises EvalError with
        its row (Frame.evaluator's contract). cached_values keeps the
        outcome."""
        return self._values(self.components, points)

    @cached_property
    def _brackets(self) -> dict[int, tuple["VectorField", "VectorField"]]:
        """lie_bracket's memo of [self, Y]: id(Y) -> (Y, [self, Y]).
        An entry holds Y, so no other field can take its id meanwhile."""
        return {}


@dataclass(frozen=True)
class OneForm(_Evaluated):
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
            fold(((1, None, a, None), (1, None, b, None)))
            for a, b in zip(self.coefficients, other.coefficients)))

    def values(self, points: Sequence[Point]) -> np.ndarray:
        """As VectorField.values, over the coefficients."""
        return self._values(self.coefficients, points)


@dataclass(frozen=True)
class TwoForm(_Evaluated):
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
        return fold(((-1, None, self.coefficients.get((j, i), ZERO), None),))

    def values(self, points: Sequence[Point]) -> np.ndarray:
        """As VectorField.values, over the stored coefficients in the
        order of the coefficients dict."""
        return self._values(tuple(self.coefficients.values()), points)


def values_in_point_order(objs: Sequence, points: Sequence[Point]
                          ) -> tuple[list[np.ndarray],
                                     tuple[int, int, EvalError] | None]:
    """The values of each field or form at points, one batch each, and
    the failure that evaluating point by point (at each point, objs in
    order) meets first, as (row, index into objs, EvalError), or None.
    Where an object fails, its entry holds the rows before its failure.
    Each object keeps its outcome at points (cached_values), so a later
    call with the same points evaluates nothing again.
    """
    vals, first = [], None
    for i, obj in enumerate(objs):
        try:
            vals.append(obj.cached_values(points))
        except EvalError as exc:
            if exc.row is None:
                raise
            vals.append(exc.done)
            if first is None or exc.row < first[0]:
                first = (exc.row, i, exc)
    return vals, first


def basis_vector(frame: Frame, i: int) -> VectorField:
    """The coordinate field d/dx_i."""
    return VectorField(frame, tuple(
        ONE_E if j == i else ZERO for j in range(frame.n)))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y], component i given by sum_j (X_j dY_i/dx_j - Y_j dX_i/dx_j).

    X remembers the result for each Y by identity (hashing a field
    would hash its trees), so the flags, the output-pair search and the
    bracket oracle build a bracket they share once, and get one object.
    """
    hit = X._brackets.get(id(Y))
    if hit is not None and hit[0] is Y:
        return hit[1]
    frame = _same_chart(X, Y)
    xs, ys = X.components, Y.components
    bracket = VectorField(frame, tuple(
        fold(t for j, xj in enumerate(frame.states)
             for t in ((1, xs[j], ys[i], xj), (-1, ys[j], xs[i], xj)))
        for i in range(frame.n)))
    X._brackets[id(Y)] = (Y, bracket)
    return bracket


def lie_derivative_fn(X: VectorField, h: Expr) -> Expr:
    """L_X h = sum_j X_j dh/dx_j, normalized."""
    return fold((1, X.components[j], h, xj)
                for j, xj in enumerate(X.frame.states))


def exterior_derivative_fn(h: Expr, frame: Frame) -> OneForm:
    """dh, with coefficients dh/dx_i."""
    return OneForm(frame, tuple(fold(((1, None, h, x),))
                                for x in frame.states))


def exterior_derivative_1form(w: OneForm) -> TwoForm:
    """d(sum a_i dx_i), coefficient (i<j) equal to da_j/dx_i - da_i/dx_j."""
    a, xs = w.coefficients, w.frame.states
    return _two_form(w.frame, lambda i, j: (
        (1, None, a[j], xs[i]), (-1, None, a[i], xs[j])))


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    """a ^ b with (i<j) coefficient a_i b_j - a_j b_i."""
    p, q = a.coefficients, b.coefficients
    return _two_form(_same_chart(a, b), lambda i, j: (
        (1, p[i], q[j], None), (-1, p[j], q[i], None)))


def _two_form(frame: Frame, terms) -> TwoForm:
    """The two-form of the nonzero folds of terms(i, j), i < j."""
    coeffs: dict[tuple[int, int], Expr] = {}
    for i in range(frame.n):
        for j in range(i + 1, frame.n):
            c = fold(terms(i, j))
            if c != ZERO:
                coeffs[(i, j)] = c
    return TwoForm(frame, coeffs)


def interior_product(X: VectorField, w: "OneForm | TwoForm"):
    """X into w. For a two-form gives the one-form with coefficients
    sum_i X_i w_{ij}; for a one-form gives the pairing <w, X>."""
    frame = _same_chart(X, w)
    if isinstance(w, OneForm):
        return fold((1, x, c, None)
                    for x, c in zip(X.components, w.coefficients))
    return OneForm(frame, tuple(
        fold((1, x, c, None) for x, c in zip(X.components, (
            w.coefficient(i, j) for i in range(frame.n))) if c != ZERO)
        for j in range(frame.n)))


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
