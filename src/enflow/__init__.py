"""Temporal multilayer networks of embodied energy flows.

Builds directed weighted multilayer networks (sectors as nodes, economies as
layers, one network per period) from multi-region input-output accounts,
scores nodes/layers/periods with hub-authority style centralities, and rates
arcs by the drop in total max flow their removal causes.
"""

from .errors import (
    ConvergenceError,
    DataFormatError,
    EnflowError,
    FlowCertificateError,
    NonProductiveEconomyError,
    NumericalError,
    ReducibleNetworkError,
    ValidationError,
    ZeroBaselineError,
)
from .multinet import (
    EntityCodes,
    NetworkShape,
    SupraAdjacency,
    TemporalMultilayerNetwork,
    aggregate_to_layers,
)
from .leontief import (
    ENERGY_CARRIERS,
    MrioPeriod,
    SourceClass,
    build_temporal_network,
    embodied_flow_matrix,
    embodied_intensity,
    input_coefficients,
    leontief_apply,
    spectral_radius_estimate,
)
from .centrality import (
    EigScores,
    HitsScores,
    MdHitsScores,
    eigenvector_centrality,
    hits,
    md_hits,
    md_hits_single_period,
    rank,
)
from .flowcrit import (
    ArcCriticalityReport,
    FlowNetwork,
    arc_criticality,
    country_level_criticality,
    max_flow,
)
from .dataio import (
    DatasetManifest,
    MrioDataset,
    SyntheticSpec,
    bundled_codebook,
    consumption_summary,
    export_results,
    generate_synthetic,
    import_results,
    load_dataset,
    load_energy,
    load_network,
    save_dataset,
    save_network,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "EnflowError",
    "ValidationError",
    "DataFormatError",
    "NumericalError",
    "NonProductiveEconomyError",
    "ConvergenceError",
    "ReducibleNetworkError",
    "ZeroBaselineError",
    "FlowCertificateError",
    # multinet
    "NetworkShape",
    "SupraAdjacency",
    "TemporalMultilayerNetwork",
    "EntityCodes",
    "aggregate_to_layers",
    # leontief
    "ENERGY_CARRIERS",
    "SourceClass",
    "MrioPeriod",
    "input_coefficients",
    "leontief_apply",
    "spectral_radius_estimate",
    "embodied_intensity",
    "embodied_flow_matrix",
    "build_temporal_network",
    # centrality
    "EigScores",
    "HitsScores",
    "MdHitsScores",
    "eigenvector_centrality",
    "hits",
    "md_hits",
    "md_hits_single_period",
    "rank",
    # flowcrit
    "FlowNetwork",
    "ArcCriticalityReport",
    "max_flow",
    "arc_criticality",
    "country_level_criticality",
    # dataio
    "DatasetManifest",
    "MrioDataset",
    "SyntheticSpec",
    "bundled_codebook",
    "load_dataset",
    "load_energy",
    "save_dataset",
    "generate_synthetic",
    "consumption_summary",
    "export_results",
    "import_results",
    "save_network",
    "load_network",
]
