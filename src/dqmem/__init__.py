"""Dissipative quantum memory toolkit.

A memory stores a code as the squeeze parameters of independent two-mode
squeezed vacua; linear damping drags each effective parameter through zero
and back out, so the memory forgets and then refills with the mirror-image
state. `states` holds the closed-form engine, `fock` the brute-force matrix
oracle it is validated against, `thermo` the entropy/first-law layer,
`capacity` the registry and packing experiments, and `cli` the command-line
front end.

Every layer, the oracle included, needs numpy alone. The oracle loads
lazily: `dqmem.fock` and the names re-exported from it are imported on
first attribute access, so the closed-form layers never pay for it.
"""

from time import perf_counter as _perf_counter

_IMPORT_STARTED = _perf_counter()  # start of the import time dqmem.cli reports

import importlib as _importlib

from .states import (
    Code,
    MemoryState,
    ModeParams,
    QuantumNumbers,
    Variances,
    effective_theta,
    effective_thetas,
    evolve,
    forgetting_time,
    log_overlap,
    occupation,
    overlap,
    quantum_numbers,
    refresh,
    theta_from_beta,
    total_occupation,
    vacuum_overlap,
    variances,
)
from .thermo import (
    FirstLawLedger,
    ThermoSnapshot,
    bose_occupation,
    effective_beta,
    entropy,
    entropy_trace,
    first_law_ledger,
    free_energy,
    stationarity_residual,
    thermo_snapshot,
)
from .capacity import (
    AssociationGraph,
    CapacityReport,
    CodeSpec,
    ExperimentConfig,
    FidelityMatrix,
    ForgettingCurve,
    Registry,
    RegistryCodeLengthError,
    RegistryEntry,
    RegistryError,
    RegistryFormatError,
    RegistryVersionError,
    association_graph,
    capacity_estimate,
    fidelity_matrix,
    forgetting_curve,
    greedy_pack,
    load_registry,
    new_registry,
    parse_experiment_config,
    print_memory,
    save_registry,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset({
    "FockWorkspace",
    "algebra_residuals",
    "build_workspace",
    "check_entropy_flow",
    "check_hole_relations",
    "check_squeeze_factorization",
    "entropy_expectation",
    "evolve_vector",
    "expm_action",
    "memory_vector",
    "memory_vector_via_generator",
    "occupation_expectation",
    "oracle_overlap",
    "quadrature_variances",
})


def __getattr__(name):
    # Resolved on every access, never bound here: a copy in this namespace
    # would go stale when a caller rebinds the name in dqmem.fock.
    if name == "fock" or name in _ORACLE_NAMES:
        fock = _importlib.import_module(".fock", __name__)
        return fock if name == "fock" else getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
