"""Harder-Narasimhan games on finite bounded lattices.

The library computes the payoff mu-series, the semistability/convexity/
slope-like/Nash predicates, canonical Harder-Narasimhan filtrations with
brute-force uniqueness oracles, Jordan-Hölder filtrations, Dedekind-MacNeille
completions, and the coprimary filtration of finite abelian groups.
"""

from .abelian import (
    FiniteAbelianGroup,
    SubgroupLattice,
    coprimary_filtration,
    coprimary_game,
    enumerate_coprimary_filtrations,
    iter_invariant_factor_groups,
    subgroup_lattice,
)
from .completion import (
    CutLattice,
    check_universal_property,
    dedekind_macneille,
    dm_closure,
    lower_bounds,
    upper_bounds,
)
from .errors import HNGameError
from .filtration import (
    Filtration,
    HNReport,
    canonical_hn_filtration,
    enumerate_hn_filtrations,
    greatest_st,
    mu_admissible,
    st_set,
    validate_hn,
)
from .game import (
    Game,
    MuSeries,
    dual,
    has_nash_equilibrium,
    interval_semistable,
    interval_stable,
    is_affine,
    is_convex,
    is_semistable,
    is_slope_like,
    is_stable,
    mu_a,
    mu_a_star,
    mu_b,
    mu_b_star,
    mu_max,
    mu_min,
    mu_series,
    nash_tfae_report,
    restrict,
    seesaw_classify,
)
from .io import emit_game, emit_report, export_dot, parse_game, parse_poset
from .jordan_holder import (
    JHFiltration,
    enumerate_jh_filtrations,
    find_jh,
    jh_lengths_equal,
    piecewise_stability,
    validate_jh,
)
from .order import (
    BoundedLattice,
    FinitePoset,
    Interval,
    as_bounded_lattice,
    build_poset,
    is_modular,
    linear_extension,
)
from .slopes import PotentialData, quotient_payoff
from .values import (
    ExtendedRationals,
    FiniteChain,
    FiniteLatticeValues,
    PrimeFinsets,
    ValueLattice,
)

__version__ = "0.1.0"
