"""Helpers that only the tests need: symbolic restriction and line points.

The package decides line membership by point evaluation; these expand the
restricted form symbolically and parametrize a line, as independent oracles.
"""

from dp5links.cyclo import FieldElement
from dp5links.projgeo import HomogeneousForm, ProjLine, ProjPoint, pullback


def restrict_to_line(form: HomogeneousForm, line: ProjLine) -> HomogeneousForm:
    """Binary form in the line parameters (s, t)."""
    matrix = [[a, b] for a, b in zip(line.basis[0], line.basis[1])]
    return pullback(form, matrix)


def point_at(line: ProjLine, s: FieldElement, t: FieldElement) -> ProjPoint:
    """The point s * row0 + t * row1 of the line's basis."""
    return ProjPoint.of([s * a + t * b for a, b in zip(line.basis[0], line.basis[1])])
