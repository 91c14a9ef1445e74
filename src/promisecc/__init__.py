"""Simulation and verification toolkit for promise-problem protocols.

Quantum and randomized communication protocols for promise equality and
promise disjointness, finite automata built from them, and exact
classical lower-bound searches, all at desk scale.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a command loads
only the modules it runs.
"""

import importlib

#: Each exported name, by the module that defines it.
_EXPORTS = {
    "cli": ("ExperimentConfig", "run_experiment"),
    "bits": (
        "BitString", "Margin", "PromiseLabel", "all_bitstrings", "Promise", "band",
        "classify_disj_promise", "hamming_weight", "intersection_size",
    ),
    "qsim": (
        "SignedPermutation", "collect_op", "complete_unitary_from_column",
        "is_unitary", "pair_index", "spread_op",
    ),
    "quantum_protocol": (
        "QuantumProtocolReport", "closed_form_accept_probability", "qubit_cost",
        "repetition_count", "round_accept_probability",
        "round_accept_probability_fast", "round_columns", "run_protocol",
        "sample_decisions",
    ),
    "randomized_protocol": (
        "ClassicalProtocolReport", "OneWayColumns", "bit_cost", "coin_mismatch",
        "detection_frequency", "exact_detection_probability", "miss_probability",
        "one_way_columns", "positions_count", "report_floats", "run_one_way",
        "sample_positions",
    ),
    "automata": (
        "Dfa", "DfaProtocol", "Qcfa", "WordProblem", "accept_probabilities",
        "accept_probability", "bruteforce_disjointness_dfa",
        "disjointness_automaton", "disjointness_word", "disjointness_word_problem",
        "equality_automaton", "equality_word", "equality_word_problem",
        "extended_transition", "protocol_from_dfa", "run_dfa", "verify_promise_dfa",
    ),
    "bounds": (
        "CommMatrix", "PartitionResult", "Rectangle", "RectangleBoundReport",
        "SearchTooWideError", "UNDEFINED", "check_rectangle_bound",
        "exact_deterministic_cc", "min_monochromatic_partition", "problem_matrix",
        "verify_partition",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
#: ``from promisecc import *`` still gives every export, loading its module.
__all__ = tuple(_MODULE_OF)


def __getattr__(name):
    # an unknown name must raise AttributeError, so that ``from promisecc
    # import automata`` goes on to import the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
