"""Exact-arithmetic toolkit for exterior powers of skew-Hermitian
lattices over cyclotomic CM fields: wedge Grams, similitude maps,
trace/signature bookkeeping, perfect pairings, deformation block
matrices, and bounded-domain embedding matrices."""

__version__ = "0.1.0"

from .cyclofield import (
    CMType,
    CycloElement,
    CycloField,
    FrobeniusOrbitPartition,
    RamifiedPrimeError,
    SpadesuitReport,
    all_cm_types,
    check_spadesuit,
    cm_type,
    cyclo_field,
    frobenius_orbits,
    trace_LQ,
)
from .domains import satake_matrix
from .exterior import (
    NotASimilitude,
    SubsetIndex,
    compound,
    g_k,
    multiplier,
    wedge_gram,
)
from .hodge import (
    CMTraceVector,
    EmbeddingCase,
    HermitianModule,
    SingularAtEmbedding,
    case_of,
    compatible,
    derived_cm_trace,
    signature_at,
    twist_weights,
    verify_type11,
    wedge_weights,
)
from .pairings import (
    DegenerateForm,
    TraceGram,
    perfectness_valuation,
    trace_gram,
    verify_prinz,
)
from .serretate import (
    assemble_block,
    contract,
    verify_vdrei,
    verify_vzehn,
)
