"""diversim: dynamic network diversity as a moving-target defense, simulated.

Networks of computers run diversified software stacks; an attacker spreads
through phase-structured agents while the defender redeploys implementations
under one of five strategies. Ensembles are deterministic given a master
seed, and security metrics reduce the ensemble-mean traces.
"""
from .defense import DefenderSpec, InitialAlgo, SpecError, Strategy
from .diversity import (
    ColoringReport,
    color_flipping,
    count_defective_edges,
    degree_priority_assignment,
    random_coloring,
)
from .engine import (
    MeanTrace,
    NetworkFiles,
    PrebuiltNetwork,
    Scenario,
    SyntheticNetwork,
    Trace,
    final_snapshot,
    mean_of,
    monte_carlo,
    run,
)
from .netmodel import (
    CommGraph,
    ImplementationPool,
    Layer,
    NetworkError,
    assign_vulnerabilities,
    build_graph,
    generate_synthetic_network,
    load_network_files,
    read_id_file,
    write_id_file,
)
from .config import ConfigError, LoadedConfig, load_scenario
from .metrics import AsdResult, aoc, asd, awd, first_crossing, tts
from .threat import (
    AttackerSpec,
    CatalogError,
    build_exploit_catalog,
    initial_compromise,
)

__version__ = "0.1.0"

__all__ = [
    "AsdResult",
    "AttackerSpec",
    "CatalogError",
    "ColoringReport",
    "CommGraph",
    "ConfigError",
    "DefenderSpec",
    "ImplementationPool",
    "InitialAlgo",
    "Layer",
    "LoadedConfig",
    "MeanTrace",
    "NetworkError",
    "NetworkFiles",
    "PrebuiltNetwork",
    "Scenario",
    "SpecError",
    "Strategy",
    "SyntheticNetwork",
    "Trace",
    "aoc",
    "asd",
    "assign_vulnerabilities",
    "awd",
    "build_exploit_catalog",
    "build_graph",
    "color_flipping",
    "count_defective_edges",
    "degree_priority_assignment",
    "final_snapshot",
    "first_crossing",
    "generate_synthetic_network",
    "initial_compromise",
    "load_network_files",
    "load_scenario",
    "mean_of",
    "monte_carlo",
    "random_coloring",
    "read_id_file",
    "run",
    "tts",
    "write_id_file",
    "__version__",
]
