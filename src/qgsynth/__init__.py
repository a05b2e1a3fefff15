"""Connectivity-aware synthesis of diagonal unitaries, states, uniformly
controlled gates, and general unitaries over {1-qubit, CNOT} gate sets,
with exact verification and depth lower-bound analysis."""

from .circuit import (
    Circuit,
    LayeredCircuit,
    ParseError,
    circuit_from_json,
    circuit_to_json,
    gate_matrix,
    to_layered_form,
    validate_connectivity,
)
from .graphs import (
    ConstraintGraph,
    InvalidParameters,
    brickwall_graph,
    build_graph,
    complete_graph,
    explicit_graph,
    graph_to_json,
    grid_graph,
    path_graph,
    shortest_path,
    star_graph,
    tree_graph,
)
from .gray import GrayCode, gray_code, solve_phase_coefficients
from .diag import DiagonalSpec, synth_diag_noancilla
from .diag_ancilla import (
    InsufficientAncilla,
    synth_diag_ancilla,
    synth_diag_auto,
    synth_diag_expander_ancilla,
)
from .linear import route_cnot_gates, synth_permutation
from .sim import (
    TooLarge,
    assemble_report,
    simulate,
    ucg_matrix,
    verify_target,
)
from .states import (
    DecompositionFailure,
    StateSpec,
    UcgSpec,
    UnitarySpec,
    gus_synthesize,
    qsp_synthesize,
    state_to_ucgs,
    synth_ucg,
    ucg_to_diagonals,
    unitary_to_ucgs,
)
from .bounds import (
    BridgeInvalid,
    EdgeBridge,
    LightconeProfile,
    brickwall_embedding,
    depth_lower_bound,
    lightcone_budget_check,
    lightcone_profile,
    transform_circuit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
