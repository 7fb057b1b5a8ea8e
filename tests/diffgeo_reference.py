"""Test-side companion of flatcheck.diffgeo.

The Cartan calculus as it was built before it was folded on (num, den)
pairs: every operation spells out its sum as an expression tree, left-
nested from ZERO, with a raw `diff` tree per derivative, and normalizes
that tree. The harness's total derivative is here too, built the same
way, and the zero test that normalized its argument. Kept to show that
the library's folds return structurally equal trees carrying the same
stored pairs. A derivative's normal form names the atoms of its
operands (symx_reference.fold_atoms), as the library's fold does; the
walk of the raw diff trees can find fewer.
"""

from fractions import Fraction

from flatcheck.diffgeo import OneForm, TwoForm, VectorField, _same_chart
from flatcheck.symx import (Const, Mul, Sub, ZERO, diff, free_symbols,
                            normalize)

from symx_reference import fold_atoms


def _normalize_terms(tree, terms):
    """normalize(tree), its stored pair naming fold_atoms(terms)."""
    out = normalize(tree)
    if out._pair is not None:
        object.__setattr__(out, "_pair", (*out._pair[:2], fold_atoms(terms)))
    return out


def add_fields(X: VectorField, Y: VectorField) -> VectorField:
    return VectorField(X.frame, tuple(
        normalize(a + b) for a, b in zip(X.components, Y.components)))


def scale(X: VectorField, c) -> VectorField:
    return VectorField(X.frame, tuple(
        normalize(Mul(c, x)) for x in X.components))


def add_forms(a: OneForm, b: OneForm) -> OneForm:
    return OneForm(a.frame, tuple(
        normalize(x + y) for x, y in zip(a.coefficients, b.coefficients)))


def coefficient(w: TwoForm, i: int, j: int):
    if i == j:
        return ZERO
    if i < j:
        return w.coefficients.get((i, j), ZERO)
    c = w.coefficients.get((j, i), ZERO)
    return ZERO if c == ZERO else normalize(Mul(Const(Fraction(-1)), c))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    frame = _same_chart(X, Y)
    comps = []
    for i in range(frame.n):
        acc, terms = ZERO, []
        for j, xj in enumerate(frame.states):
            acc = acc + X.components[j] * diff(Y.components[i], xj) \
                      - Y.components[j] * diff(X.components[i], xj)
            terms += [(1, X.components[j], Y.components[i], xj),
                      (-1, Y.components[j], X.components[i], xj)]
        comps.append(_normalize_terms(acc, terms))
    return VectorField(frame, tuple(comps))


def lie_derivative_fn(X: VectorField, h):
    acc = ZERO
    for j, xj in enumerate(X.frame.states):
        acc = acc + X.components[j] * diff(h, xj)
    return _normalize_terms(acc, [(1, X.components[j], h, xj)
                                  for j, xj in enumerate(X.frame.states)])


def exterior_derivative_fn(h, frame) -> OneForm:
    return OneForm(frame, tuple(
        _normalize_terms(diff(h, x), [(1, None, h, x)]) for x in frame.states))


def exterior_derivative_1form(w: OneForm) -> TwoForm:
    frame = w.frame
    coeffs = {}
    for i in range(frame.n):
        for j in range(i + 1, frame.n):
            c = _normalize_terms(
                Sub(diff(w.coefficients[j], frame.states[i]),
                    diff(w.coefficients[i], frame.states[j])),
                [(1, None, w.coefficients[j], frame.states[i]),
                 (-1, None, w.coefficients[i], frame.states[j])])
            if c != ZERO:
                coeffs[(i, j)] = c
    return TwoForm(frame, coeffs)


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    frame = _same_chart(a, b)
    coeffs = {}
    for i in range(frame.n):
        for j in range(i + 1, frame.n):
            c = normalize(a.coefficients[i] * b.coefficients[j]
                          - a.coefficients[j] * b.coefficients[i])
            if c != ZERO:
                coeffs[(i, j)] = c
    return TwoForm(frame, coeffs)


def interior_product(X: VectorField, w):
    frame = _same_chart(X, w)
    if isinstance(w, OneForm):
        acc = ZERO
        for i in range(frame.n):
            acc = acc + X.components[i] * w.coefficients[i]
        return normalize(acc)
    comps = []
    for j in range(frame.n):
        acc = ZERO
        for i in range(frame.n):
            if i == j:
                continue
            c = coefficient(w, i, j)
            if c == ZERO:
                continue
            acc = acc + X.components[i] * c
        comps.append(normalize(acc))
    return OneForm(frame, tuple(comps))


def total_derivative(e, succ):
    acc, terms = None, []
    for s in sorted(free_symbols(e)):
        if s not in succ:
            continue
        term = diff(e, s) * succ[s]
        acc = term if acc is None else acc + term
        terms.append((1, succ[s], e, s))
    return _normalize_terms(acc, terms) if acc is not None else ZERO


def is_zero(e) -> bool:
    return normalize(e) == ZERO
