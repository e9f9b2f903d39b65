"""Numerical laboratory for strong and Orlicz maximal operators over rectangle bases."""

from .bp import Verdict, classify
from .covering import (RectFamily, ScatterSelection, cf_overlap_check,
                       choose_cf_subfamily, largest_passing_delta,
                       select_scattered, verify_scattered, weight_growth_check,
                       weight_growth_sweep)
from .errors import (BudgetExceeded, DegenerateSet, DimensionError, EmptyRect,
                     GeometryMismatch, InvalidYoungFunction, NoBracket, NonFinite,
                     OrliczMaxError, VerdictConflict)
from .grid import (GridFunction, Rect, SummedAreaTable, luxemburg_batch,
                   luxemburg_norm, norm_lp, read_grid, rect_average, write_grid)
from .maximal import (CUBES, DEFAULT_BUDGET, DYADIC, RECTANGLES, Basis,
                      MaximalField, indicator_far_field, multilinear_maximal,
                      multilinear_orlicz_maximal, orlicz_maximal, strong_maximal)
from .verify import (ProbeSuite, RatioReport, counterexample_divergence,
                     fefferman_stein_probe, holder_orlicz_suite, lp_bound_probe,
                     necessity_construction, run_suite, two_weight_probe,
                     weighted_transfer_probe)
from .weights import (ConditionReport, RectFamilySpec, SetSamplerSpec,
                      WeightSystem, ap_constant, ap_value, bump_constant,
                      bump_value, condition_A_estimate, condition_A_value,
                      power_bump_constant, power_bump_value, sawyer_constant,
                      sawyer_value)
from .young import (NumericComplement, Power, PowerLog, PowerLogLog, Tabulated,
                    YoungFunction, complementary, inverse, probe_doubling,
                    probe_submultiplicative, tabulate, young_from_json,
                    young_to_json)

__version__ = "0.1.0"
