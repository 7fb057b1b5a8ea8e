"""Spec-file text for the benchmark's generated systems.

Every system here is written out from its closed form as plain spec
text, with a small polynomial type of its own; nothing goes through
flatcheck's expression engine, so a change to how flatcheck prints or
normalizes expressions cannot change the benchmark's inputs.

Families:

* ``chained(n)``: f = 0, g1 = (x2, ..., x_{n-1}, 0, 1), g2 = e_{n-1}
  (the same system as ``tests/systems.py`` and ``specs/chained4.spec``).
* ``disguised(n)``: the triangular system with phi_1 = z1*z_n and all
  other phi_i = 0, pulled back through z_i = x_i + x_{i+1}^2/2
  (i <= n-2), z_{n-1} = x_{n-1}, z_n = x_n.  With J = dz/dx,
  (J^-1)_ij = (-1)^(j-i) x_{i+1}...x_j for i <= j <= n-1 and the
  identity elsewhere, so f = (x1 + x2^2/2) x_n e1,
  g1 = J^-1 (z2, ..., z_{n-1}, 0, 1) and g2 = column n-1 of J^-1.

Two negative controls are fixed text: ``perturbed_example1`` (example 1
with f4 = x1*x4 + x3; condition 1 holds, condition 2 fails) and
``involutive`` (g1 = e1, g2 = (exp(x1), exp(x1), 0, 0); condition 1
fails).

Run ``python3 bench/systems.py`` for the generators' self-test.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

Poly = dict  # exponent tuple -> Fraction


def _var(n: int, i: int) -> Poly:
    return {tuple(int(j == i) for j in range(n)): Fraction(1)}


def _const(n: int, c) -> Poly:
    return {(0,) * n: Fraction(c)} if c else {}


def _add(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _scale(p: Poly, c) -> Poly:
    return {m: c * v for m, v in p.items() if c * v}


def _fmt(p: Poly) -> str:
    """Spec text for p: terms in descending graded order, ``c*x1^2*x3/d``."""
    if not p:
        return "0"
    out = []
    for m in sorted(p, key=lambda m: (-sum(m), [-e for e in m])):
        c = p[m]
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(m) if e]
        num = abs(c.numerator)
        if num != 1 or not factors:
            factors.insert(0, str(num))
        term = "*".join(factors)
        if c.denominator != 1:
            term += f"/{c.denominator}"
        sign = "-" if c < 0 else "+"
        out.append((sign, term))
    first_sign, first = out[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, term in out[1:]:
        text += f" {sign} {term}"
    return text


def _spec(n: int, f, g1, g2, comment: str) -> str:
    lines = [f"# {comment}",
             f"n = {n}",
             "states = " + " ".join(f"x{i}" for i in range(1, n + 1)),
             "f = " + ", ".join(f),
             "g1 = " + ", ".join(g1),
             "g2 = " + ", ".join(g2),
             "box = " + ", ".join(["-1 1"] * n)]
    return "\n".join(lines) + "\n"


def chained_fields(n: int) -> tuple[list[Poly], list[Poly], list[Poly]]:
    zero = [{} for _ in range(n)]
    g1 = [_var(n, i + 1) for i in range(n - 2)] + [{}, _const(n, 1)]
    g2 = [_const(n, int(i == n - 2)) for i in range(n)]
    return zero, g1, g2


def _jinv(n: int) -> list[list[Poly]]:
    """(J^-1)_ij = (-1)^(j-i) x_{i+1} ... x_j for i <= j <= n-1 (1-based)."""
    rows = [[_const(n, int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        entry = _const(n, 1)
        for j in range(i + 1, n - 1):
            entry = _scale(_mul(entry, _var(n, j)), -1)
            rows[i][j] = entry
    return rows


def disguised_fields(n: int) -> tuple[list[Poly], list[Poly], list[Poly]]:
    x = [_var(n, i) for i in range(n)]
    half = Fraction(1, 2)
    z = [_add(x[i], _scale(_mul(x[i + 1], x[i + 1]), half))
         for i in range(n - 2)] + [x[n - 2], x[n - 1]]
    jinv = _jinv(n)
    f = [_mul(z[0], x[n - 1])] + [{} for _ in range(n - 1)]
    w = z[1:n - 1] + [{}, _const(n, 1)]
    g1 = [_add(*(_mul(jinv[i][j], w[j]) for j in range(n)))
          for i in range(n)]
    g2 = [jinv[i][n - 2] for i in range(n)]
    return f, g1, g2


def chained(n: int) -> str:
    fields = chained_fields(n)
    return _spec(n, *([_fmt(p) for p in fld] for fld in fields),
                 comment=f"chained({n}): driftless chained system")


def disguised(n: int) -> str:
    fields = disguised_fields(n)
    return _spec(n, *([_fmt(p) for p in fld] for fld in fields),
                 comment=f"disguised({n}): phi_1 = z1*z{n} pulled back "
                         f"through z_i = x_i + x_(i+1)^2/2")


EXAMPLE1_G1 = ("x4^2 + 1", "(x3 - 2*x1)*(x4^2 + 1)", "0",
               "(x1^2 + x2)*(x4^2 + 1)")


def perturbed_example1() -> str:
    return _spec(4, ("0", "x1^2 + x2", "1", "x1*x4 + x3"), EXAMPLE1_G1,
                 ("0", "0", "1", "0"),
                 comment="example 1 with f4 = x1*x4 + x3: condition 2 "
                         "fails")


def involutive() -> str:
    return _spec(4, ("0",) * 4, ("1", "0", "0", "0"),
                 ("exp(x1)", "exp(x1)", "0", "0"),
                 comment="[g1, g2] = g2: condition 1 fails")


# --- self-test ----------------------------------------------------------------

# disguised(4), written out by hand from the closed form.
DISGUISED4 = {
    "f": ("x1*x4 + x2^2*x4/2", "0", "0", "0"),
    "g1": ("x2 - x2*x3 + x3^2/2", "x3", "0", "1"),
    "g2": ("x2*x3", "-x3", "1", "0"),
}


def _fields_of(text: str) -> dict[str, list[str]]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() in ("f", "g1", "g2"):
            out[key.strip()] = [s.strip() for s in value.split(",")]
    return out


def _eval_poly_text(text: str, env: dict[str, Fraction]) -> Fraction:
    # Only polynomial text reaches here: names, integers, + - * / ^.
    return Fraction(eval(text.replace("^", "**"), {"__builtins__": {}}, env))


def self_test_fraction() -> None:
    rng = random.Random(0)
    got = _fields_of(disguised(4))
    for _ in range(40):
        env = {f"x{i}": Fraction(rng.randint(-60, 60), rng.randint(1, 9))
               for i in range(1, 5)}
        for key, comps in DISGUISED4.items():
            for i, (a, b) in enumerate(zip(got[key], comps)):
                if _eval_poly_text(a, env) != _eval_poly_text(b, env):
                    raise AssertionError(
                        f"disguised(4) {key}[{i + 1}]: {a!r} != {b!r}")


def _self_test_sympy() -> bool:
    try:
        import sympy as sp
    except ImportError:
        return False
    for n in range(4, 9):
        x = sp.symbols(f"x1:{n + 1}")
        z = [x[i] + x[i + 1] ** 2 / 2 for i in range(n - 2)] + \
            [x[n - 2], x[n - 1]]
        jinv = sp.Matrix(n, n, lambda i, j: sp.diff(z[i], x[j])).inv()
        want = {
            "f": list(jinv * sp.Matrix([z[0] * z[n - 1]] + [0] * (n - 1))),
            "g1": list(jinv * sp.Matrix(z[1:n - 1] + [0, 1])),
            "g2": list(jinv[:, n - 2]),
        }
        got = _fields_of(disguised(n))
        names = {str(s): s for s in x}
        for key in want:
            for i, (a, b) in enumerate(zip(got[key], want[key])):
                diff = sp.expand(sp.sympify(a.replace("^", "**"),
                                            locals=names) - b)
                if diff != 0:
                    raise AssertionError(
                        f"disguised({n}) {key}[{i + 1}] differs from "
                        f"J^-1 field by {diff}")
    return True


def self_test() -> str:
    """Check the generators; returns a one-line summary or raises."""
    self_test_fraction()
    if _self_test_sympy():
        return "generators ok (Fraction check n=4; sympy J^-1 check n=4..8)"
    return "generators ok (Fraction check n=4; sympy not importable)"


if __name__ == "__main__":
    try:
        print(self_test())
    except AssertionError as e:
        print(f"self-test failed: {e}", file=sys.stderr)
        sys.exit(1)
