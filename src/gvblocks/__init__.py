"""Verifiable modular-functor data for pointed ribbon Grothendieck-Verdier
categories: axiom checks, modularity verdicts, conformal-block dimensions,
projective SL(2,Z) torus representations, and the underlying graph-operad
combinatorics."""

__version__ = "0.1.0"

from .blocks import block_dim_direct, block_dim_glued, verlinde_dim
from .errors import (
    CapacityError,
    CompositionError,
    ConfigError,
    DegenerateDataError,
    GVBlocksError,
    InternalError,
    InvalidQForm,
    MoveNotApplicable,
    UnsupportedError,
    ValidationError,
)
from .forms import (
    BilinearForm,
    FinAbGroup,
    QForm,
    Subgroup,
    bilinear,
    enumerate_qforms,
    gauss_sum,
    make_group,
    make_qform,
    radical,
    smith_normal_form,
)
from .graphs import (
    Corolla,
    Graph,
    GraphMorphism,
    canonical_form,
    compose,
    contract_edges,
    corolla_graph,
    cut_edges,
    genus,
    graph_from_text,
    graph_to_text,
    identity_morphism,
    make_graph,
    make_morphism,
    morphism_from_graph,
    morphisms_equivalent,
    new_corolla,
    total_genus,
)
from .lattice import (
    LatticeData,
    discriminant_data,
    discriminant_form,
    make_lattice,
    to_pointed_gv,
)
from .pointed import (
    PointedGVCategory,
    Verdicts,
    check_axioms,
    make_category,
    mueger_center,
    verdicts,
)
from .surfaces import (
    PantsDecomposition,
    SurfaceSpec,
    enumerate_decompositions,
    make_pants_decomposition,
    make_surface,
    s_move,
    whitehead_move,
)
from .torus import (
    ModularData,
    anomaly,
    builtin_modular_data,
    check_relations,
    fusion_from_s,
    st_matrices,
)
