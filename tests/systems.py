"""Benchmark system builders and hand-frozen reference artifacts.

Every reference string below was derived by hand from the model
definitions and double-checked numerically before being frozen here;
tests must compare against these rather than recompute them with the
library under test.
"""

from dataclasses import replace

from flatcheck.symx import Frame, ZERO, parse
from flatcheck.diffgeo import VectorField, basis_vector
from flatcheck.flags import SystemSpec

MOTOR_PARAMS = {"J": 0.1, "L": 0.5, "M": 0.2, "R": 1.0,
                "T_L": 0.05, "n_p": 2.0}

# Example-1 reference artifacts (system on R^4 with polynomial drift).
E1_F = ("0", "x1^2 + x2", "1", "x1*x4")
E1_G1 = ("x4^2 + 1", "(x3 - 2*x1)*(x4^2 + 1)", "0",
         "(x1^2 + x2)*(x4^2 + 1)")
E1_G2 = ("0", "0", "1", "0")
E1_CHART = ("x4", "x1^2 + x2", "x3", "x1")
E1_G3 = ("0", "-(x4^2 + 1)", "0", "0")
E1_G4 = ("0", "-2*x4*(x1^2 + x2)*(x4^2 + 1)", "0", "(x4^2 + 1)^2")
E1_BETA = (("1/(x4^2 + 1)", "0"), ("0", "1"))
E1_ALPHA_BAR = ("0", "-1")
E1_DRIFT_Z = ("z1*z4", "z2", "0", "0")
E1_Y = ("x4", "x1")

# Motor reference artifacts (three-state model, six constant parameters).
MOTOR_F = ("-T_L/J", "-(R/L)*x2 - n_p*x1*x3", "-(R/L)*x3 + n_p*x1*x2")
MOTOR_G1 = ("-n_p*M*x3/(J*L)", "M*R/L", "0")
MOTOR_G2 = ("n_p*M*x2/(J*L)", "0", "M*R/L")
MOTOR_H1 = "L*x2/(M*R)"
MOTOR_H2 = "M*R*x1/L - n_p*M*x2*x3/(J*L)"
MOTOR_Z2 = "-2*n_p*M^2*R*x3/(J*L^2)"
MOTOR_BETA22 = "-J*L^3/(2*n_p*M^3*R^2)"
MOTOR_ALPHA = ("(R*x2 + n_p*L*x1*x3)/(M*R)", "(R*x3 - n_p*L*x1*x2)/(M*R)")
MOTOR_PHI1 = ("(-2*J^2*L^6*z1*z2^2 - 8*n_p^2*M^6*R^4*z1*z3^2"
              " + 4*n_p^2*M^6*R^4*z2*z3^3 + J^2*L^6*z2^3*z3"
              " - 8*L*M^5*R^4*T_L)/(8*J*L^2*M^4*R^3)")
MOTOR_REG_Z = ("v1 - J*L^4*z2*(4*z1 - 3*z2*z3)/(8*M^4*R^3)"
               " + n_p^2*M^2*R*z3^3/(2*J*L^2)")
MOTOR_REG_X = ("u1 + n_p*L*(n_p*x2^3 + 2*J*R*x1*x3 + n_p*x2*x3^2)"
               "/(2*J*M*R^2)")


def example1() -> SystemSpec:
    fr = Frame("x", ("x1", "x2", "x3", "x4"), ())
    return SystemSpec(
        frame=fr,
        f=VectorField(fr, tuple(parse(s, fr) for s in E1_F)),
        g1=VectorField(fr, tuple(parse(s, fr) for s in E1_G1)),
        g2=VectorField(fr, tuple(parse(s, fr) for s in E1_G2)),
    )


def example1_chart(spec: SystemSpec):
    return tuple(parse(s, spec.frame) for s in E1_CHART)


def perturbed_example1() -> SystemSpec:
    # drift picks up x3 in the last component; breaks the containment
    # condition but not the rank condition
    fr = Frame("x", ("x1", "x2", "x3", "x4"), ())
    f = ("0", "x1^2 + x2", "1", "x1*x4 + x3")
    return SystemSpec(
        frame=fr,
        f=VectorField(fr, tuple(parse(s, fr) for s in f)),
        g1=VectorField(fr, tuple(parse(s, fr) for s in E1_G1)),
        g2=VectorField(fr, tuple(parse(s, fr) for s in E1_G2)),
    )


def motor(params: dict | None = None) -> SystemSpec:
    fr = Frame("m", ("x1", "x2", "x3"),
               ("J", "L", "M", "R", "T_L", "n_p"))
    return SystemSpec(
        frame=fr,
        f=VectorField(fr, tuple(parse(s, fr) for s in MOTOR_F)),
        g1=VectorField(fr, tuple(parse(s, fr) for s in MOTOR_G1)),
        g2=VectorField(fr, tuple(parse(s, fr) for s in MOTOR_G2)),
        param_values=MOTOR_PARAMS if params is None else params,
        box=((-0.5, 0.5),) * 3,
    )


def chained(n: int) -> SystemSpec:
    """Driftless chained benchmark: g1 = (x2,...,x_{n-1},0,1), g2 = e_{n-1}."""
    fr = Frame("c", tuple(f"x{i}" for i in range(1, n + 1)), ())
    comps = [parse(f"x{i + 2}", fr) for i in range(n - 2)] + \
            [ZERO, parse("1", fr)]
    return SystemSpec(
        frame=fr,
        f=VectorField(fr, (ZERO,) * n),
        g1=VectorField(fr, tuple(comps)),
        g2=basis_vector(fr, n - 2),
    )


# chained4 with drift sqrt(x1 + 1/2) in the last row. sqrt fails where
# x1 < -1/2, so of the 100 points drawn in [-1, 1]^4 at seed 0 the
# sample screen rejects these rows of the draw (read off the seed-0
# draw by that inequality alone) and keeps the other 79 in draw order,
# the first and last of them given here.
SQRT4_F = ("0", "0", "0", "sqrt(x1 + 1/2)")
SQRT4_REJECTED_ROWS = (5, 8, 12, 22, 23, 24, 27, 32, 38, 49, 53, 59, 60,
                       62, 68, 74, 85, 91, 93, 94, 95)
SQRT4_KEPT_FIRST = (0.2739233746429086, -0.4604265724722594,
                    -0.9180529521276106, -0.9669447289429418)
SQRT4_KEPT_LAST = (0.4964485501624898, -0.8266373537709144,
                   -0.14828751941195684, -0.20649622569314952)


def sqrt4() -> SystemSpec:
    """chained(4) with the drift SQRT4_F, undefined where x1 < -1/2."""
    spec = chained(4)
    fr = spec.frame
    return replace(spec, f=VectorField(fr, tuple(parse(s, fr)
                                                 for s in SQRT4_F)))


def involutive() -> SystemSpec:
    """Negative control: [g1, g2] = g2, so the flag never grows past 2."""
    fr = Frame("x", ("x1", "x2", "x3", "x4"), ())
    return SystemSpec(
        frame=fr,
        f=VectorField(fr, (ZERO,) * 4),
        g1=basis_vector(fr, 0),
        g2=VectorField(fr, (parse("exp(x1)", fr), parse("exp(x1)", fr),
                            ZERO, ZERO)),
    )


def disguised4() -> SystemSpec:
    """The chained pair with drift phi_1 = z1*z4, pulled back through
    z_i = x_i + x_{i+1}^2/2 (i = 1, 2), z3 = x3, z4 = x4."""
    fr = Frame("d", ("x1", "x2", "x3", "x4"), ())
    P = lambda comps: VectorField(fr, tuple(parse(s, fr) for s in comps))
    return SystemSpec(
        frame=fr,
        f=P(("x2^2*x4/2 + x1*x4", "0", "0", "0")),
        g1=P(("-x2*x3 + x3^2/2 + x2", "x3", "0", "1")),
        g2=P(("x2*x3", "-x3", "1", "0")),
    )


CUBIC4_F1 = "(x1 + x1^3)*x4/(1 + 3*x1^2)"
CUBIC4_F1_PERTURBED = "((x1 + x1^3)*x4 + x3)/(1 + 3*x1^2)"
CUBIC4_CHART = ("x1 + x1^3", "x2", "x3", "x4")


def cubic4(f1: str = CUBIC4_F1) -> SystemSpec:
    """chained4 with drift phi_1 = z1*z4, pulled back through
    z1 = x1 + x1^3 (z2..z4 = x2..x4): a chart with no sequential
    inverse, since z1 is not affine in x1."""
    fr = Frame("x", ("x1", "x2", "x3", "x4"), ())
    P = lambda comps: VectorField(fr, tuple(parse(s, fr) for s in comps))
    return SystemSpec(
        frame=fr,
        f=P((f1, "0", "0", "0")),
        g1=P(("x2/(1 + 3*x1^2)", "x3", "0", "1")),
        g2=basis_vector(fr, 2),
    )


def cubic4_chart(spec: SystemSpec):
    return tuple(parse(s, spec.frame) for s in CUBIC4_CHART)
