"""Dissipative quantum memory toolkit.

A memory stores a code as the squeeze parameters of independent two-mode
squeezed vacua; linear damping drags each effective parameter through zero
and back out, so the memory forgets and then refills with the mirror-image
state. `states` holds the closed-form engine, `fock` the brute-force matrix
oracle it is validated against, `thermo` the entropy/first-law layer,
`capacity` the registry and packing experiments, and `cli` the command-line
front end.

Every layer, the oracle included, needs numpy alone. Every name the
package re-exports loads lazily: `import dqmem` runs this file only, and a
submodule such as `dqmem.thermo`, or a name re-exported from one, is
imported on first attribute access, so a caller pays only for the layers
it uses. numpy itself loads at its first array use, not at import:
`import dqmem.cli` imports no numpy, and `dqmem print` never loads it.
"""

from time import perf_counter as _perf_counter

_IMPORT_STARTED = _perf_counter()  # start of the import time dqmem.cli reports

import importlib as _importlib

__version__ = "0.1.0"

# submodule -> the public names re-exported from it
_EXPORTS = {
    "states": """Code MemoryState ModeParams QuantumNumbers Variances effective_theta
        effective_thetas evolve forgetting_time log_overlap occupation overlap
        quantum_numbers refresh theta_from_beta total_occupation vacuum_overlap
        variances""",
    "thermo": """FirstLawLedger ThermoSnapshot bose_occupation effective_beta entropy
        entropy_trace first_law_ledger free_energy stationarity_residual
        thermo_snapshot""",
    "capacity": """AssociationGraph CapacityReport CodeSpec ExperimentConfig
        FidelityMatrix ForgettingCurve Registry RegistryCodeLengthError RegistryEntry
        RegistryError RegistryFormatError RegistryVersionError association_graph
        capacity_estimate fidelity_matrix forgetting_curve greedy_pack load_registry
        new_registry parse_experiment_config print_memory save_registry""",
    "fock": """FockWorkspace algebra_residuals build_workspace check_entropy_flow
        check_hole_relations check_squeeze_factorization entropy_expectation
        evolve_vector expm_action memory_vector memory_vector_via_generator
        occupation_expectation oracle_overlap quadrature_variances""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# `from dqmem import *` gives what it gave when only the oracle loaded lazily
__all__ = [name for name, module in _HOME.items() if module != "fock"]


def __getattr__(name):
    # Resolved on every access, never bound here: a copy in this namespace
    # would go stale when a caller rebinds the name in its submodule.
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _importlib.import_module("." + module, __name__)
    return loaded if module == name else getattr(loaded, name)
