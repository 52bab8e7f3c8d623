"""Quantum cohomology of the Grassmannian, computed combinatorially.

Exact integer arithmetic throughout: products of basis classes, structure
constants by three independent methods, cylindric/toric shape expansions,
quantum Kostka numbers, the box-adding operator algebra, and the symmetry
and duality structure of the ring, all cross-verifiable at small sizes.
"""

from .cylindric import (
    EMPTY,
    CylindricLoop,
    CylindricShape,
    EmptyShape,
    TableauChain,
    complement_shape,
    down_transform,
    enumerate_tableaux,
    is_strip,
    is_toric,
    loop_leq,
    make_shape,
    render_ascii,
    strip_successors,
    torus_cells,
    torus_equivalent,
    up_transform,
)
from .errors import (
    ContextMismatch,
    DoesNotFitBox,
    FormMismatch,
    IndexOutOfRange,
    NegativePart,
    NonIntegerPart,
    NotContained,
    NotToric,
    NotWeaklyDecreasing,
    QGrassError,
    TooManyRows,
    VarMismatch,
)
from .niltl import (
    LaurentPoly,
    NilTLOperator,
    eh_op,
    generator_op,
    schubert_op,
    verify_relations,
    word_operator,
    z_op,
)
from .partitions import (
    GrassContext,
    Partition,
    Word01,
    box_partitions_by_size,
    complement,
    conjugate,
    cyclic_shift,
    diag,
    enumerate_pkn,
    format_partition,
    from_word01,
    parse_partition,
    phi,
    to_word01,
)
from .quantum import (
    QuantumClass,
    RimHookReduction,
    giambelli_class,
    gw_invariant,
    quantum_pieri,
    quantum_product,
    rimhook_reduce,
    schubert_class,
    unit_class,
)
from .schur import (
    SchurExpansion,
    lr_coefficient,
    schur_product,
    skew_expand,
    toric_schur_expand,
)
from .symmetry import (
    EssentialInterval,
    PowerInterval,
    check_strange_duality_pair,
    dmin_dmax,
    duality_map,
    essential_interval,
    gw_triple,
    hidden_symmetry_check,
    q_power_set,
    strange_duality,
)
from .tableaux import quantum_kostka

__version__ = "0.1.0"
