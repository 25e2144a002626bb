"""Exact degrees of belief from inconsistent, incomplete, uncertain evidence.

The pipeline has three layers: evidence sets generate a topology whose opens
are the combinable arguments (qualitative), certainties merge into an exact
mass over evidence subsets (quantitative), and allocation functions plus a
justification frame bridge the two into a belief function. Classical
Dempster combination and a purely qualitative belief operator are included
as independently-implemented cross-checks.
"""

from .core import (
    StateSet,
    StateUniverse,
    canonical_key,
    format_rational,
    make_universe,
    parse_rational,
    render_decimal,
)
from .dst import (
    BasicProbabilityAssignment,
    belief_from_bpa,
    combine_evidence,
    dempster_combine,
    simple_support,
    topological_belief,
)
from .evidence import (
    EvidenceItem,
    EvidenceSubset,
    QuantitativeEvidenceFrame,
    load_frame,
    parse_frame,
    serialize_frame,
    validate_frame,
)
from .fusion import (
    Allocator,
    AllocatorKind,
    BeliefReport,
    INTERSECTION,
    JustificationFrame,
    JustificationKind,
    MAX_ENUM_ITEMS,
    MIN_DENSE,
    UNION,
    YAGER,
    allocate,
    allocated_mass_table,
    belief,
    belief_report,
    custom_allocator,
    justification_frame,
    justified_mass,
    mass_table,
    normalization_factor,
    validate_allocators,
)
from .topology import (
    Topology,
    generate_topology,
    min_dense,
    minimal_open_neighborhoods,
)
from .verify import (
    CheckOutcome,
    check_allocation_definition,
    check_belief_axioms,
    check_bpa_axioms,
    check_drc_equivalence,
    check_mass_axioms,
    check_minimum_dense_open,
    check_topological_equivalence,
    random_frame,
    run_all_checks,
)

__version__ = "0.1.0"
