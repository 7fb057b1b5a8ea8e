"""Test-side companion of flatcheck.chained.

The chained-form check as it was done in z-coordinates: each pairing
<dz_i, ghat_k> is rewritten through the symbolic inverse chart and
compared with the chained pattern (z2, ..., z_{n-1}, 0, 1) for ghat1
and e_{n-1} for ghat2. Kept to show that the library's check, which
pushes the pattern through the chart instead and needs no inverse,
reaches the same verdict and flags the same components.
"""

from flatcheck.chained import control_pair
from flatcheck.diffgeo import lie_derivative_fn
from flatcheck.symx import ONE_E, ZERO, Sub, Sym, normalize


def verify_chained_z(chart, fb, spec) -> dict:
    """pass and mismatches (field, component, got, want) in z; the
    chart must have a symbolic inverse."""
    n = spec.n
    g1h, g2h = control_pair(spec, fb)
    z_syms = [Sym(s) for s in chart.z_frame.states]
    target1 = list(z_syms[1:n - 1]) + [ZERO, ONE_E]
    target2 = [ZERO] * (n - 2) + [ONE_E, ZERO]
    mismatches = []
    for i, zi in enumerate(chart.forward):
        for name, g, want in (("g1hat", g1h, target1[i]),
                              ("g2hat", g2h, target2[i])):
            got = chart.to_z(lie_derivative_fn(g, zi))
            if normalize(Sub(got, want)) != ZERO:
                mismatches.append({"field": name, "component": i,
                                   "got": str(got), "want": str(want)})
    return {"pass": not mismatches, "mismatches": mismatches}
