"""orbitforge: exact heights, effective bound shapes and multiplicative
dependence search in polynomial orbits over Q and quadratic fields."""

__version__ = "0.1.0"

from .fields import FieldSpec, NFElement, make_field
from .ideals import (
    IdealFactorization,
    Place,
    PrimeIdealRec,
    SSet,
    build_SX,
    factor_element_ideal,
    factor_rational_prime,
    ord_ideal,
)
from .heights import (
    CanonicalHeightResult,
    HeightBreakdown,
    SupportStats,
    approximate_by_unit,
    canonical_height,
    height,
    height_T,
    height_value,
    local_abs,
    one_step_bound,
    support_lambda,
)
from .polynomials import Polynomial, splitting_degree
from .constants import (
    A1,
    A2,
    A3,
    CParams,
    EffectiveBoundReport,
    SplittingData,
    eta1,
    eta2,
    eta1_inverse,
    eta2_inverse,
    gyory_yu_height_bound,
    lambda_bound_shape,
    northcott_bound,
    resolve_splitting,
    sset_params,
    voutier_delta,
    zsigmondy_window,
)
from .orbits import (
    DependenceWitness,
    OrbitRecord,
    SPartWitness,
    ZsigmondyResult,
    build_Sk,
    check_power_dependence,
    check_s_integer_ratio,
    divisibility_transfer_holds,
    find_primitive_divisor,
    is_preperiodic,
    is_s_integer,
    is_s_unit,
    is_zero_periodic,
    iterate_orbit,
    principal_generator,
    spart_witness,
    spart_witness_from_value,
)
from .search import (
    CampaignReport,
    SearchConfig,
    lambda_growth_report,
    ring_elements_capped,
    search_dependence,
    search_sunit_orbit_values,
    verify_spart_empirical,
)
from .intfactor import IncompleteFactorization, factorize, is_prime
from .cache import FactorCache
from .config import RunConfig, load_config
