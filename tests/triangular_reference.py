"""Test-side companion of flatcheck.triangular.

The dependence check as it was done in z-coordinates: each drift row
phi_i is rewritten through the symbolic inverse chart and
differentiated in z_j. Kept to show that the library's check, which
applies the x-gradient of phi_i to the coordinate field d/dz_j and
needs no inverse, flags the same entries with the same derivatives.
"""

from flatcheck.symx import diff, is_zero, normalize, subst, to_str
from flatcheck.triangular import (TriangularError, _forbidden_pairs,
                                  _witness)


def forbidden_derivatives_z(phis, chart) -> dict:
    """dphi_i/dz_j in z for every forbidden pair (i, j), 1-based; phis
    are the drift rows in z, so the chart must have an inverse."""
    zs = chart.z_frame.states
    return {(i, j): normalize(diff(phis[i - 1], zs[j - 1]))
            for i, j in _forbidden_pairs(len(chart.forward))}


def check_dependence_z(phis, chart, points) -> None:
    """Raise TriangularError at the first forbidden pair whose
    z-derivative is not zero, with a witness among points."""
    zs = chart.z_frame.states
    for (i, j), d in forbidden_derivatives_z(phis, chart).items():
        if is_zero(d):
            continue
        q, val = _witness(subst(d, dict(zip(zs, chart.forward))), points)
        raise TriangularError(
            f"triangular structure violated: dphi_{i}/dz_{j} = "
            f"{to_str(d)} != 0 (|value| = {val:.3e} at x = "
            f"{tuple(round(c, 4) for c in q)})")
