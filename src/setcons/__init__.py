"""Consensus on interval sets.

Exact algebra of finite interval unions, set-valued update maps, their
binary cell encodings, and the convergence analyzers and simulator built on
top of them.
"""

from .analysis import (
    CellEquilibriaReport,
    ConsensusVerdict,
    ContractivityVerdict,
    consensus_region,
    equilibria_sbm,
    global_fixed_point,
    incidence_apply,
    is_contractive_sbm,
    is_locally_attractive_sbm,
    set_distance,
)
from .bindyn import (
    BinaryContraction,
    BinaryMap,
    OrbitSummary,
    binary_contractivity,
    binary_distance,
    discrete_derivative,
    equilibria,
    is_vnn_attractive,
    orbit,
    semantic_incidence,
)
from .boolmat import (
    BoolMatrix,
    BoolVector,
    Permutation,
    column_at_most_one,
    dependency_order,
    has_empty_eigenvalue,
    has_universe_eigenvalue,
    is_nilpotent,
    is_strictly_lower,
)
from .caps import Caps
from .dsl import Diagnostic, DslError, SystemSpec, parse, pretty_print, to_json
from .encoding import EncodedSystem, Partition, build_partition, translate_map
from .errors import CapExceeded, CellEncodingError, OrbitLimitError, SetconsError
from .expr import (
    Complement,
    ConstRef,
    Difference,
    EmptyLit,
    Intersect,
    LinearSetMap,
    NormalForm,
    SetExpr,
    SetMap,
    SymDiff,
    Union,
    UniverseLit,
    Var,
    as_linear,
    augment_constants,
    compose,
    desugar,
    normal_form,
)
from .intervals import Endpoint, Interval, IntervalSet, Universe, parse_interval_set
from .sim import Trajectory, render_timeline, simulate

__version__ = "0.1.0"
