"""twkern: a kernelization workbench built on tree decompositions.

Small immutable graphs, exact and heuristic tree decompositions, balanced
separations, treewidth modulators, protrusion decompositions, and a
protrusion-replacement kernelizer whose gadget tables are certified against
exact oracles.
"""

from .graphs import (
    BoundariedGraph,
    BudgetError,
    Graph,
    Separation,
    disjoint_union,
    glue,
    make_gamma,
    make_grid,
    path_graph,
)
from .treedec import (
    TreeDecomposition,
    exact_treewidth,
    heuristic_decomposition,
    validate_decomposition,
)
from .dp import solve_via_dp
from .modulators import Modulator, balanced_separation, exact_modulator, recursive_modulator
from .problems import (
    CATALOG,
    ProblemDefinition,
    check_bidimensionality,
    check_parameter_treewidth,
    check_separability,
    get_problem,
    opt_brute,
    opt_fast,
)
from .protrusions import (
    ProtrusionDecomposition,
    build_pd,
    iter_protrusions,
    validate_pd,
    validate_protrusion,
)
from .replacement import (
    KernelInstance,
    ReplacementTable,
    Signature,
    build_replacement_table,
    compute_signature,
    equivalence_constant,
    kernelize,
    replace_protrusion,
)
from .harness import gen_corpus, run_experiment, verify_kernel_soundness

__version__ = "0.1.0"
