"""Self-organizing map with restricted receptive fields (MRF-SOM) on
synthetic proprioceptive self-touch data.

Modules: ``lattice`` (grid geometry), ``som`` (baseline Kohonen map),
``mrf`` (masked winner search and confined updates), ``datagen`` (kinematic
sampler and dataset I/O), ``analysis`` (heatmaps, distance map, encoding
report), ``cli`` (reproducible pipeline commands).
"""

from .lattice import LatticeSpec, neighborhood_weight, neuron_distance
from .som import (
    Codebook,
    TrainLog,
    TrainSchedule,
    find_bmu,
    init_codebook,
    quantization_error,
    topographic_error,
    train,
)
from .mrf import (
    MrfConfig,
    ReceptiveFieldMask,
    default_quadrant_mask,
    load_mask,
    masked_quantization_error,
    masked_topographic_error,
    mrf_find_bmu,
    mrf_train,
    save_mask,
)
from .datagen import (
    ChainSpec,
    JOINT_NAMES,
    NormalizationParams,
    SamplingError,
    apply_normalization,
    fit_normalization,
    forward_kinematics,
    invert_normalization,
    load_csv,
    save_csv,
    synthesize_self_touch,
)
from .analysis import (
    EncodingReport,
    NeuronDistanceMap,
    build_distance_map,
    build_encoding_report,
    build_heatmaps,
    cluster_separation_ratio,
)
from .fileio import ParseError

__version__ = "0.1.0"

__all__ = [
    "LatticeSpec",
    "neighborhood_weight",
    "neuron_distance",
    "Codebook",
    "TrainLog",
    "TrainSchedule",
    "find_bmu",
    "init_codebook",
    "quantization_error",
    "topographic_error",
    "train",
    "MrfConfig",
    "ReceptiveFieldMask",
    "default_quadrant_mask",
    "load_mask",
    "masked_quantization_error",
    "masked_topographic_error",
    "mrf_find_bmu",
    "mrf_train",
    "save_mask",
    "ChainSpec",
    "JOINT_NAMES",
    "NormalizationParams",
    "SamplingError",
    "apply_normalization",
    "fit_normalization",
    "forward_kinematics",
    "invert_normalization",
    "load_csv",
    "save_csv",
    "synthesize_self_touch",
    "EncodingReport",
    "NeuronDistanceMap",
    "build_distance_map",
    "build_encoding_report",
    "build_heatmaps",
    "cluster_separation_ratio",
    "ParseError",
    "__version__",
]
