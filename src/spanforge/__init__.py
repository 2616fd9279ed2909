"""Exact workbench for finite monoidal categories and their spans.

Everything is a finite table of integer ids: categories, functors,
transformations, monoidal and braided structures, centers, fiber products,
and the spans generated by module actions.  Every law is checked by
exhaustive scan, and every checker reports witnesses instead of booleans.
"""

from .centers import (
    CenterCategory,
    HalfBraidedObject,
    HptSetup,
    IntertwinerResult,
    braided_centralizer,
    braided_intertwiner,
    check_hpt_conditions,
    check_intertwiner_actions,
    drinfeld_center,
    monoidal_centralizer,
    monoidal_intertwiner,
    mueger_center,
)
from .central import (
    CentralCheckResult,
    CentralFunctorSetup,
    CentralModule,
    central_module,
    central_module_check,
)
from .docs import Document, SchemaError, parse, serialize
from .fincat import (
    Budget,
    BudgetError,
    FinCategory,
    Functor,
    FunctorCategory,
    MediationError,
    NatTrans,
    ProductCategory,
    SpanforgeError,
    StructureError,
    chain_category,
    check_category,
    check_functor,
    check_nat_trans,
    compose_functors,
    discrete_category,
    enumerate_functors,
    enumerate_nat_transes,
    full_subcategory,
    functor_category,
    group_as_category,
    identity_functor,
    identity_nat_trans,
    product_category,
    pullback,
    pushforward,
    terminal_category,
    vertical_composite,
    walking_arrow,
    whisker_post,
    whisker_pre,
)
from .groups import (
    GroupTable,
    cyclic,
    dihedral_4,
    direct_product,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from .laxators import (
    LaxatorCoherenceResult,
    LaxatorResult,
    MonoidalSquare,
    NormalizationResult,
    laxator,
    laxator_coherence,
    monoidal_fiber_product,
    normalization_check,
    quadruple_pasting_check,
)
from .limits import (
    CommaResult,
    FiberProductResult,
    comma,
    fiber_product,
    mediate,
    mediate_2cell,
)
from .monoidal import (
    Braiding,
    MonFunctor,
    MonNatTrans,
    MonoidalStructure,
    check_braided_functor,
    check_braiding,
    check_mon_functor,
    check_mon_nattrans,
    check_monoidal,
    compose_mon_functors,
    identity_mon_functor,
    is_symmetric,
    make_bicharacter_braiding,
    make_discrete_group_category,
    make_skeletal_group_category,
    restrict_braiding,
    restrict_monoidal,
    terminal_monoidal,
    trivial_cochain,
)
from .reporting import Report, Violation
from .spans import (
    EndCategory,
    ModuleData,
    ModuleFunctorData,
    ModuleNatTransData,
    SpanCell,
    build_span,
    build_two_span,
    check_module_functor,
    check_module_nattrans,
    compose_module_functors,
    end_monoidal,
    identity_module_functor,
    make_module,
    module_functor,
    module_structures_on,
    trivial_module,
)

__all__ = [name for name in dir() if not name.startswith("_")]
