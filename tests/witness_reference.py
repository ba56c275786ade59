"""Per-profile references for the witness path, shared by the test modules:
every signed combination of a witness family as its own profile, and the
centered quantity and supremum by a running sum over one profile's
segments."""

from morreykit import PiecewiseRadialPower, combination_coefficients, sign_matrix
from morreykit.closedform import morrey_quantity, shell_integral


def _combination_profiles(family):
    """(pattern, profile) for every signed combination of the family's
    functions, in the sign matrix's column order."""
    matrix = sign_matrix(family.n)
    coeffs = combination_coefficients(matrix)
    # Segments are stored inward-first and column 0 is the innermost annulus,
    # so segment index and column index coincide.
    annuli = [ann for ann, _ in family.functions[0].segments]
    profiles = []
    for j in range(matrix.num_patterns):
        segments = tuple(
            (ann, float(coeffs[j, idx]) / family.shared_norm)
            for idx, ann in enumerate(annuli)
        )
        pattern = tuple(int(s) for s in matrix.entries[1:, j])
        profiles.append((pattern, PiecewiseRadialPower(family.params, segments)))
    return profiles


def _centered_quantities(profile):
    """(radius, value) of a bounded profile's centered quantity at every
    positive boundary, ascending, its mass a running sum of whole-annulus
    masses in annulus order."""
    params = profile.params
    out = []
    mass = 0.0
    segments = iter(profile.segments)
    pending = next(segments, None)
    bounds = profile.boundaries
    for r in bounds[bounds > 0.0]:
        r = float(r)
        while pending is not None and pending[0].r_lo < r:
            ann, coeff = pending
            if coeff != 0.0:
                mass += abs(coeff) ** params.p * shell_integral(params, ann.r_lo, ann.r_hi)
            pending = next(segments, None)
        out.append((r, morrey_quantity(params, r, mass) if mass > 0.0 else 0.0))
    return out


def _running_centered_sup(profile):
    """(value, radius) of a bounded profile's centered supremum: the first
    strict maximum of _centered_quantities."""
    value, radius = -1.0, None
    for r, here in _centered_quantities(profile):
        if here > value:
            value, radius = here, r
    return value, radius
