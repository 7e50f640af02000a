"""graphforge: random graph generation preserving community structure via
low-rank spectral approximation of the modularity matrix, plus the baselines,
synthetic benchmarks, metrics, and de-anonymization attack to evaluate it."""

from .attack import AttackConfig, dv_attack
from .baselines import (
    DcsbmConfig,
    TrajanovskiConfig,
    dcsbm_config_from,
    dcsbm_generate,
    trajanovski_generate,
)
from .community import (
    Partition,
    louvain_maximize,
    modularity,
)
from .evaluate import (
    Dataset,
    ExperimentRow,
    MetricsReport,
    Strategy,
    SweepRow,
    alpha_sweep,
    compare,
    dcsbm_strategy,
    normalization_study,
    run_experiment,
    score_input,
    sgf_strategy,
    trajanovski_strategy,
)
from .forge import (
    EntropyReport,
    ForgeConfig,
    ForgedDistribution,
    SpectralModel,
    back_transform,
    edge_probabilities,
    fit,
    forge,
    normalize,
    normalized_entropy,
    sample_bernoulli,
)
from .generators import (
    LancichinettiConfig,
    PlantedPartitionConfig,
    barabasi_albert,
    erdos_renyi,
    lancichinetti,
    planted_partition,
)
from .graph import (
    Graph,
    average_clustering,
    degree_vector,
    load_attributes,
    load_edge_list,
    write_edge_list,
)
from .spectral import (
    EigenDecomposition,
    approx_error_bound,
    eigendecompose,
    low_rank_approx,
    modularity_matrix,
    spectral_norm,
)

__version__ = "0.1.0"
