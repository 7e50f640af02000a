"""The package's imports: its exported names, and no subcommand loads scipy.

A fresh interpreter in which every scipy import fails runs `generate`,
`eval`, `attack` and `bench` in process, then a `sweep` whose cells, and so
their attacks, run in forked workers.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import graphforge

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import os, sys
from pathlib import Path

sys.modules["scipy"] = None  # importing scipy or any submodule now raises ImportError

from graphforge import cells, evaluate
from graphforge.cli import dispatch
from graphforge.generators import PlantedPartitionConfig, planted_partition
from graphforge.graph import write_edge_list

work = Path(sys.argv[1])
graph, _ = planted_partition(PlantedPartitionConfig(
    n=60, communities=3, p_in=0.4, p_out=0.05, seed=4))
source = work / "input.el"
source.write_text(write_edge_list(graph))
cells._free_cores = lambda: 1
for argv in (["generate", "--input", str(source), "--alpha", "0.5", "--seed", "1"],
             ["eval", "--input", str(source), "--generated", str(source), "--seed", "1"],
             ["attack", "--input", str(source), "--generated", str(source), "--seed", "1"],
             ["bench", "--preset", "girvan", "--graphs", "1", "--runs", "2",
              "--strategies", "sgf:0.9,dcsbm,trajanovski", "--seed", "1"]):
    assert dispatch(argv + ["--output-dir", str(work)]) == 0, argv

log = work / "attacks.log"
attack = evaluate.dv_attack


def spy(*args, **kwargs):
    rate = attack(*args, **kwargs)
    with log.open("a") as f:
        f.write(f"{os.getpid()}\\n")
    return rate


evaluate.dv_attack = spy
cells._free_cores = lambda: 2
assert dispatch(["sweep", "--input", str(source), "--alphas", "0.1:0.9:0.4", "--runs", "1",
                 "--seed", "1", "--output-dir", str(work)]) == 0
print(os.getpid())
"""


def test_no_subcommand_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120,
                          stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    parent = proc.stdout.split()[-1]
    attackers = (tmp_path / "attacks.log").read_text().split()
    # three alphas, one run each, all attacked to the end in forked workers
    assert len(attackers) == 3
    assert parent not in attackers


# a name leaves or joins the public surface only by an edit of this list
EXPORTED = [
    "AttackConfig", "Dataset", "DcsbmConfig", "EigenDecomposition", "EntropyReport",
    "ExperimentRow", "ForgeConfig", "ForgedDistribution", "Graph", "LancichinettiConfig",
    "MetricsReport", "Partition", "PlantedPartitionConfig", "SpectralModel", "Strategy",
    "SweepRow", "TrajanovskiConfig", "alpha_sweep", "approx_error_bound",
    "average_clustering", "back_transform", "barabasi_albert",
    "brute_force_max_modularity", "compare", "dcsbm_config_from", "dcsbm_generate",
    "dcsbm_strategy", "degree_vector", "dv_attack", "edge_probabilities", "eigendecompose",
    "erdos_renyi", "fit", "forge", "lancichinetti", "load_attributes", "load_edge_list",
    "louvain_maximize", "low_rank_approx", "modularity", "modularity_matrix",
    "normalization_study", "normalize", "normalized_entropy", "planted_partition",
    "run_experiment", "sample_bernoulli", "score_input", "sgf_strategy", "spectral_norm",
    "trajanovski_generate", "trajanovski_strategy", "write_edge_list",
]


def test_exported_names_are_pinned():
    public = sorted(name for name, value in vars(graphforge).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == EXPORTED
