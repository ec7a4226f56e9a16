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
from .domains import BallPoint, satake_matrix
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
    dim_minus10,
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

# serretate computes over sympy, which adds about 30 MB to a process; its
# names are imported on first use, so `import pelwedge` does not load it
_SERRETATE = frozenset({
    "DeformationBlock",
    "DeformationParams",
    "ModInt",
    "assemble_block",
    "contract",
    "verify_vdrei",
    "verify_vzehn",
    "wedge_block",
})


def __getattr__(name):
    if name in _SERRETATE:
        from . import serretate

        return getattr(serretate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
