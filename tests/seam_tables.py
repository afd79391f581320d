"""Fraction seam tables into and out of the integer certification kernel.

``tests/oracles.py`` keeps the seam table (``oracles.GluedSurface``) as its
own representation of a surface and may name no kernel, so the two bridges
between a table and an integer ``_Layout`` live here:
:func:`certify_table` scales a table onto the integers and certifies it with
``surface._certify``, and :func:`lift` turns a layout back into a table.
"""

import math
from fractions import Fraction
from typing import Mapping

from oracles import GluedSurface, Seam

from flattree.surface import CertifyResult, _certify, _Layout, _on


def certify_table(gs: GluedSurface) -> CertifyResult:
    """Certify a seam table with the integer kernel.

    The table is scaled once by ``D``, the lcm of the denominators of all
    circumferences, drifts, seam starts, lengths and mark offsets.
    """
    cyls = gs.cylinders
    D = math.lcm(
        *(x.denominator for circ, _, drift in cyls.values() for x in (circ, drift)),
        *(x.denominator for sm in gs.seams.values() for x in (sm.above[1], sm.below[1], sm.length)),
        *(x.denominator for _, x in gs.marks),
    )
    lay = _Layout(
        scale=D,
        circumference={c: _on(circ, D) for c, (circ, _, _) in cyls.items()},
        twist={c: _on(drift, D) for c, (_, _, drift) in cyls.items()},
        length={sid: _on(sm.length, D) for sid, sm in gs.seams.items()},
        seams={
            sid: ((sm.above[0], _on(sm.above[1], D)), (sm.below[0], _on(sm.below[1], D)))
            for sid, sm in gs.seams.items()
        },
        marks=tuple((sid, _on(u, D)) for sid, u in gs.marks),
    )
    return _certify(lay, {c: h for c, (_, h, _) in cyls.items()})


def lift(lay: _Layout, heights: Mapping[int, Fraction]) -> GluedSurface:
    """The seam table of an integer layout: every position over ``lay.scale``."""
    D = lay.scale
    return GluedSurface(
        cylinders={
            v: (Fraction(L, D), heights[v], Fraction(lay.twist[v], D))
            for v, L in lay.circumference.items()
        },
        seams={
            p: Seam(p, (v, Fraction(a, D)), (w, Fraction(b, D)), Fraction(lay.length[p], D))
            for p, ((v, a), (w, b)) in lay.seams.items()
        },
        marks=tuple((p, Fraction(u, D)) for p, u in lay.marks),
    )
