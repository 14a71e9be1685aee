"""Exact cohomology of presheaves on finite posets.

Finite posets carry the topology whose opens are the downward closed sets.
This package computes, in exact integer arithmetic, the Cech cohomology of a
presheaf with respect to the covering by minimal basic opens, the derived
functor cohomology of the sheaf it generates, the canonical comparison map
between the two, and the cut-acyclicity criterion that decides when the
comparison is an isomorphism for every presheaf.
"""

from .cech import (
    ComparisonReport,
    Presheaf,
    cech_cohomology,
    cech_ordered_complex,
    cohomology_top,
    compare_report,
    comparison_map,
    random_presheaf,
    sheaf_presheaf,
    topos_cohomology,
)
from .complexes import (
    AcyclicityVerdict,
    ChainMap,
    Complex,
    ComplexError,
    ProductGroup,
    acyclicity_check,
    homology_at,
    induced_on_homology,
    simplicial_homology,
)
from .cuts import Cut, CriterionReport, criterion, enumerate_cuts, principal_meets
from .diagrams import (
    Diagram,
    DiagramError,
    cohomology_support,
    colimit_complex,
    constant_diagram,
    derived_colimit,
    derived_limit,
    full_complex_truncated,
    random_diagram,
    reduced_complex,
    sheafify_value,
)
from .documents import (
    DocumentError,
    load_presheaf,
    parse_group,
    render_group,
    render_presheaf,
    skeleton,
)
from .groups import (
    CanonicalGroup,
    GroupHom,
    PresentedAbGroup,
    canonical_form,
    hom_well_defined,
    homs_equal,
    is_isomorphism,
)
from .linalg import IntMatrix, SmithDecomposition, snf
from .poset import (
    IntersectionPoset,
    Poset,
    PosetError,
    bounds,
    chains,
    induced_subposet,
    parse_poset,
    random_poset,
    serialize_poset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
