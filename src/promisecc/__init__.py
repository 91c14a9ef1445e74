"""Simulation and verification toolkit for promise-problem protocols.

Quantum and randomized communication protocols for promise equality and
promise disjointness, finite automata built from them, and exact
classical lower-bound searches, all at desk scale.
"""

from .cli import ExperimentConfig, run_experiment
from .bits import (
    BitString,
    Margin,
    PromiseLabel,
    all_bitstrings,
    Promise,
    band,
    classify_disj_promise,
    hamming_weight,
    intersection_size,
)
from .qsim import (
    SignedPermutation,
    collect_op,
    complete_unitary_from_column,
    is_unitary,
    pair_index,
    spread_op,
)
from .quantum_protocol import (
    QuantumProtocolReport,
    closed_form_accept_probability,
    qubit_cost,
    repetition_count,
    round_accept_probability,
    round_accept_probability_fast,
    round_columns,
    run_protocol,
    sample_decisions,
)
from .randomized_protocol import (
    ClassicalProtocolReport,
    OneWayColumns,
    bit_cost,
    coin_mismatch,
    detection_frequency,
    exact_detection_probability,
    miss_probability,
    one_way_columns,
    positions_count,
    report_floats,
    run_one_way,
    sample_positions,
)
from .automata import (
    Dfa,
    DfaProtocol,
    Qcfa,
    WordProblem,
    accept_probabilities,
    accept_probability,
    bruteforce_disjointness_dfa,
    disjointness_automaton,
    disjointness_word,
    disjointness_word_problem,
    equality_automaton,
    equality_word,
    equality_word_problem,
    extended_transition,
    protocol_from_dfa,
    run_dfa,
    verify_promise_dfa,
)
from .bounds import (
    CommMatrix,
    PartitionResult,
    Rectangle,
    RectangleBoundReport,
    SearchTooWideError,
    UNDEFINED,
    check_rectangle_bound,
    exact_deterministic_cc,
    min_monochromatic_partition,
    problem_matrix,
    verify_partition,
)
