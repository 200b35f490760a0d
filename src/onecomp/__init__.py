"""Inner functions on the unit disc: evaluation, one-component
classification, and companion Blaschke product construction."""

from .errors import (BlaschkeConditionError, CurveExhausted, DomainError,
                     HypothesisViolated, OnecompError, PrecisionExhausted,
                     RadiusSearchExhausted, TailBoundInsufficient)
from .geometry import (BoundaryArc, PointSupport,
                       SawtoothRegion, StolzAngle, carleson_square, level_points,
                       mobius_shift, pseudo_distance, whitney_arcs)
from .inner import (BlaschkeProduct, InnerFunction, Interval, MuMeasure,
                    SingularInner, ZeroSequence, blaschke_factor, dump_zeros_csv,
                    load_zeros_csv, separation_constants)
from .measures import (AtomicMeasure, CantorMeasure, CdfMeasure,
                       SingularMeasure, poisson_kernel)
from .classify import (ClassificationReport, LimitTestResult,
                       classify, criterion_scan, radial_limit_test, sawtooth_test,
                       ONE_COMPONENT, NOT_ONE_COMPONENT, INCONCLUSIVE)
from .levelset import LevelSetAnalysis, level_set_components
from .companion import (CompanionResult, GammaCurve, WhitneyChain,
                        build_gamma, choose_radii, construct_companion,
                        place_zeros)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
