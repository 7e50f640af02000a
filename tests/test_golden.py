"""Byte goldens: the sha256 of each CLI output for fixed inputs and seeds.

c11 checks that two runs on one commit agree; these hashes check that the
outputs stay the same from one commit to the next. A refactor that must not
change behaviour keeps every hash; a change that means to alter an output
updates its hash and says why.

The two hashes with `trajanovski` in their strategies, `BENCH_GOLDEN` and
the `lancichinetti` preset, were re-recorded when the rewiring baseline
dropped its relocation move. That move (an intra edge moved inside its
community) leaves the fixed-partition modularity unchanged, so it was never
accepted, but its draws fed the random stream of every later move. Only the
`trajanovski` rows of the two CSVs changed; every other row kept its bytes.

The `lancichinetti` preset hash was re-recorded a second time when `bench`
began to maximize each input graph once per call, with one Louvain seed per
input shared by Q*_in, both baselines' fits and the maximization of every
output. On its 200-node input the eight former Louvain runs (a fit and a
Q*_in per cell) found 7 or 8 communities with Q* from 0.1987 to 0.2062; the
one new run finds 9 with Q* 0.2081, so every row changed. On the inputs of
`SWEEP_GOLDEN` (96 nodes), `BENCH_GOLDEN` (128) and the `planted` preset
(64), Louvain finds the same partition under the former and the new seeds,
and those hashes kept their bytes.

Recorded with numpy 2.4.6, scipy 1.17.1 and OpenBLAS 0.3.31 (scipy-openblas,
DYNAMIC_ARCH, Haswell kernels) on Python 3.11 / x86-64. The eigensolver's
last bits depend on the LAPACK build, so another BLAS may move the hashes
of the outputs that go through `eigh` without any change to the program.
"""

import hashlib

import pytest

from graphforge.cli import dispatch
from graphforge.generators import PlantedPartitionConfig, planted_partition
from graphforge.graph import write_edge_list

GENERATE_GOLDENS = {
    "alpha0.5-truncate": (["--alpha", "0.5", "--rule", "truncate"],
        "f0a7d576bdabd56a0fb5e6d5d8c1c7f4275b1396e3010e50a3634c8b00cd322f"),
    "alpha0.5-logistic": (["--alpha", "0.5", "--rule", "logistic"],
        "8f3fb52ca06ea586f00a61e5a769e6819893414adf5a019df1223aaa1e5c48e1"),
    "alpha0.5-scale": (["--alpha", "0.5", "--rule", "scale"],
        "8f6b88f6820315795ccb7af1ebef2a27e9883f6988ed29b6e2a257f8d45824a8"),
    "alpha0.3-adjacency": (["--alpha", "0.3", "--transformation", "adjacency"],
        "fea17f3d847906caa78d11c7d9969ce19caad51c1dc997ac5b2194a8c39cc6e8"),
    "alpha1.0": (["--alpha", "1.0"],
        "3b9135813146663ed8499ffb1a0464f70bec6e02221ad72663a660ead91d8dfc"),
}
SWEEP_GOLDEN = "2de08bc4725a0f7137c8e27c14ad19cf1ec594eb846e5202a64d0875e3acd9f7"
BENCH_GOLDEN = "69cc41d17ca3cd34ee464f9946f3fb97147b9e92043989f9bef05b1785e8f79f"
# one case per non-girvan preset: the flags each one reads, its defaults and its generator
PRESET_BENCH_GOLDENS = {
    "planted": (["--nodes", "64", "--communities", "4", "--p-in", "0.5", "--p-out", "0.05",
                 "--graphs", "2", "--runs", "2", "--strategies", "sgf:0.9,dcsbm", "--seed", "3"],
        "c273708be3dda6cc56db3cd138b82557ab124254ebefbfd561b869e8cf27315e"),
    "lancichinetti": (["--nodes", "200", "--graphs", "1", "--runs", "2",
                       "--strategies", "dcsbm,trajanovski", "--seed", "4"],
        "080d6e5b2bcb93515c91d6106f8cf2912a1ae85f918a19635dcbd2d519d6c641"),
}
EVAL_GOLDEN = "c0c902ee7802dd3509dc8ddc17e763dcbbde1c2b98e16dce45007334c654bbd0"
ATTACK_GOLDEN = "9175d935a3afe54a47b171ad8ce25f50643387b3d0aa557fc1b1c6c035d137c8"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 96-node, 3-block planted partition, its block labels as an attribute
    CSV, and one forged output to score against it."""
    root = tmp_path_factory.mktemp("golden")
    graph, blocks = planted_partition(PlantedPartitionConfig(
        n=96, communities=3, p_in=0.3, p_out=0.03, seed=5))
    graph_path = root / "input.el"
    graph_path.write_text(write_edge_list(graph))
    attrs_path = root / "attrs.csv"
    attrs_path.write_text("node,block\n" + "".join(
        f"{v},b{lab}\n" for v, lab in enumerate(blocks.assignment)))
    assert dispatch(["generate", "--input", str(graph_path), "--alpha", "0.7",
                     "--seed", "13", "--output-dir", str(root / "forged")]) == 0
    return graph_path, attrs_path, root / "forged" / "generated.el"


@pytest.mark.parametrize("case", sorted(GENERATE_GOLDENS))
def test_golden_generate(case, inputs, tmp_path):
    flags, expected = GENERATE_GOLDENS[case]
    graph_path, _, _ = inputs
    rc = dispatch(["generate", "--input", str(graph_path), "--seed", "3",
                   "--output-dir", str(tmp_path)] + flags)
    assert rc == 0
    assert _sha256((tmp_path / "generated.el").read_bytes()) == expected


def test_golden_sweep(inputs, tmp_path):
    graph_path, _, _ = inputs
    rc = dispatch(["sweep", "--input", str(graph_path), "--alphas", "0.1:0.9:0.4",
                   "--runs", "2", "--seed", "9", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert _sha256((tmp_path / "sweep.csv").read_bytes()) == SWEEP_GOLDEN


def test_golden_bench(tmp_path):
    rc = dispatch(["bench", "--preset", "girvan", "--graphs", "1", "--runs", "2",
                   "--strategies", "sgf:0.9,dcsbm,trajanovski", "--seed", "17",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    assert _sha256((tmp_path / "bench_girvan.csv").read_bytes()) == BENCH_GOLDEN


@pytest.mark.parametrize("preset", sorted(PRESET_BENCH_GOLDENS))
def test_golden_bench_preset(preset, tmp_path):
    flags, expected = PRESET_BENCH_GOLDENS[preset]
    rc = dispatch(["bench", "--preset", preset, "--output-dir", str(tmp_path)] + flags)
    assert rc == 0
    assert _sha256((tmp_path / f"bench_{preset}.csv").read_bytes()) == expected


def test_golden_eval_with_attributes(inputs, tmp_path):
    graph_path, attrs_path, forged_path = inputs
    rc = dispatch(["eval", "--input", str(graph_path), "--generated", str(forged_path),
                   "--attrs", str(attrs_path), "--seed", "5",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    assert _sha256((tmp_path / "metrics.csv").read_bytes()) == EVAL_GOLDEN


def test_golden_attack_stdout(inputs, capsys):
    graph_path, _, forged_path = inputs
    capsys.readouterr()
    rc = dispatch(["attack", "--input", str(graph_path), "--generated", str(forged_path),
                   "--seed-fraction", "0.1", "--seed", "7"])
    assert rc == 0
    assert _sha256(capsys.readouterr().out.encode()) == ATTACK_GOLDEN
