"""Curved Sitnikov toolkit.

A massless particle confined to a unit circle moves under the gravity of
two equal masses on Keplerian ellipses in a perpendicular plane.  This
package integrates the motion, classifies the linear stability of the two
equilibria through Floquet monodromy, locates the stability interchanges
that accumulate as the binary grows toward the circle diameter, and
evaluates the quantitative winding-angle machinery behind that phenomenon
for general curve pairs.
"""

from .kepler import (KeplerConvergenceError, ModelParams, PrimaryEphemeris,
                     ephemeris, radial_factor, solve_kepler)
from .model import (CollisionError, HillCoefficient, cubic_coefficient,
                    hill_coefficient, limit_force_circle, symmetry_defect,
                    tangential_force)
from .integrate import (FundamentalMatrix, StiffnessError, Trajectory,
                        integrate_orbit, integrate_variational)
from .floquet import (Monodromy, MonodromyError, classify, monodromy,
                      ortega_hypotheses, winding_angle, winding_bound)
from .general_model import (BoundReport, CurvePair, bound_report, d2U_ds2,
                            line_pair, load_curve_pair, min_distance,
                            pair_potential, sitnikov_pair)
from .scan import (CensusResult, StabilityIntervals, TraceCurve,
                   eps_scan_origin, find_transitions, interchange_census,
                   trace_curve)
from .poincare import SectionCloud, section

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CensusResult", "CollisionError", "CurvePair",
    "FundamentalMatrix", "HillCoefficient",
    "KeplerConvergenceError", "ModelParams", "Monodromy", "MonodromyError",
    "PrimaryEphemeris", "SectionCloud", "StabilityIntervals",
    "StiffnessError", "TraceCurve", "Trajectory", "bound_report",
    "classify", "cubic_coefficient", "d2U_ds2", "ephemeris",
    "eps_scan_origin", "find_transitions", "hill_coefficient",
    "integrate_orbit", "integrate_variational", "interchange_census",
    "limit_force_circle", "line_pair", "load_curve_pair", "min_distance",
    "monodromy", "ortega_hypotheses", "pair_potential", "radial_factor",
    "section", "sitnikov_pair", "solve_kepler", "symmetry_defect",
    "tangential_force", "trace_curve", "winding_angle", "winding_bound",
]
