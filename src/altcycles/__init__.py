"""2-edge-colored multigraphs: closure predicates, alternating cycle
factors, and constructive alternating Hamiltonian cycles."""

from .cycles import AltCycle, validate_cycle, validate_factor
from .factor import find_alternating_cycle_factor, find_factor_without_two_cycles
from .generate import closure_2m, gen_complete, gen_counterexample, gen_random
from .graph import (
    BLUE,
    RED,
    Color,
    ColoredMultigraph,
    empty,
    parse_text,
    serialize_text,
)
from .merge import (
    Dominates,
    HamiltonianCycle,
    Merged,
    NoFactor,
    NotAdjacent,
    NotColorConnected,
    NotTwoMClosed,
    merge_pair,
    solve_from_factor,
    solve_hamiltonian,
)
from .oracles import oracle_alt_path, oracle_factor, oracle_hamiltonian, oracle_merge
from .predicates import (
    exists_alternating_path,
    is_2m_closed,
    is_2nm_closed,
    is_closed_alternating,
    is_color_connected,
    two_m_violations,
    two_nm_violations,
)

__all__ = [
    "AltCycle",
    "BLUE",
    "Color",
    "ColoredMultigraph",
    "Dominates",
    "HamiltonianCycle",
    "Merged",
    "NoFactor",
    "NotAdjacent",
    "NotColorConnected",
    "NotTwoMClosed",
    "RED",
    "closure_2m",
    "empty",
    "exists_alternating_path",
    "find_alternating_cycle_factor",
    "find_factor_without_two_cycles",
    "gen_complete",
    "gen_counterexample",
    "gen_random",
    "is_2m_closed",
    "is_2nm_closed",
    "is_closed_alternating",
    "is_color_connected",
    "merge_pair",
    "oracle_alt_path",
    "oracle_factor",
    "oracle_hamiltonian",
    "oracle_merge",
    "parse_text",
    "serialize_text",
    "solve_from_factor",
    "solve_hamiltonian",
    "two_m_violations",
    "two_nm_violations",
    "validate_cycle",
    "validate_factor",
]
