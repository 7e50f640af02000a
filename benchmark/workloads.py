"""The three benchmark workloads: inputs, call schedule and output checks.

Every workload drives `graphforge.cli.dispatch` with plain argv lists. Inputs
are derived from the workload seed alone; the program only sees the edge-list
files written here and its command-line flags.

A workload has POSITIONS call positions, each with its own sampling seed
(and, for the sweep, its own input graph), so that one run averages over
several inputs. Each benchmark process starts at its own position, makes one
untimed warm-up call there, and then cycles through the positions. The
first timed call therefore repeats the warm-up call, and every later repeat
of a position must give byte-identical output.

This module imports only the standard library at import time, so that the
benchmark's set-up time includes the program's imports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

POSITIONS = 4


def sub_seed(seed: int, *tags) -> int:
    """Deterministic 32-bit seed from the workload seed and a tag path."""
    text = "/".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def write_planted_input(path: Path, seed: int, n: int, communities: int,
                        p_in: float, p_out: float) -> None:
    from graphforge.generators import PlantedPartitionConfig, planted_partition
    from graphforge.graph import write_edge_list

    graph, _ = planted_partition(PlantedPartitionConfig(
        n=n, communities=communities, p_in=p_in, p_out=p_out, seed=seed))
    path.write_text(write_edge_list(graph))


def read_simple_graph(path: Path) -> tuple[int, set[tuple[int, int]]]:
    """Parse an edge list strictly, failing unless it is a simple graph.

    The benchmark's own parser, so that the program's reader cannot hide a
    duplicate edge, a self-loop or an out-of-range node id.
    """
    lines = path.read_text().splitlines()
    header = lines[0].split()
    if len(header) != 2 or header[0] != "#nodes" or not header[1].isdigit():
        raise ValueError(f"{path.name}: first line is not '#nodes N'")
    n = int(header[1])
    edges = []
    for line in lines[1:]:
        if not line.strip():
            continue
        i, j = (int(token) for token in line.split())
        if not 0 <= i < j < n:
            raise ValueError(f"{path.name}: edge ({i}, {j}) is not i < j inside [0, {n})")
        edges.append((i, j))
    edge_set = set(edges)
    if len(edge_set) != len(edges):
        raise ValueError(f"{path.name}: duplicate edges")
    return n, edge_set


def _finite(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{what} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} is not finite: {token!r}")
    return value


@dataclass(frozen=True)
class Prediction:
    """A layer share predicted before measuring.

    `kind` is "self" (summed self time of the span names starting with
    `prefix`) or "total" (summed duration of the span named `prefix`),
    taken as a share of the time inside `cli.dispatch`. `bound` is "about"
    (contradicted outside half to one and a half times `share`), "at_most"
    or "none" (the layer must not run).
    """

    label: str
    kind: str
    prefix: str
    bound: str
    share: float

    def verdict(self, measured: float) -> str:
        if self.bound == "about":
            ok = 0.5 * self.share <= measured <= 1.5 * self.share
        elif self.bound == "at_most":
            ok = measured <= self.share
        else:
            ok = measured == 0.0
        return "consistent" if ok else "contradicted"

    def describe(self) -> str:
        return {"about": f"about {self.share:.0%}", "at_most": f"at most {self.share:.0%}",
                "none": "none"}[self.bound]


class Workload:
    """Base: subclasses set the class attributes and implement the hooks."""

    name = ""
    output_name = ""
    graphs_per_call = 1
    cells_per_call = 0  # experiment cells run inside one call (bench only)
    # BLAS threads for the workers; None means every usable core
    blas_threads: int | None = None
    predictions: tuple[Prediction, ...] = ()

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.input_dir = work / "in"
        self.output_dir = work / "out"

    def prepare(self) -> None:
        """Build and write the inputs (part of set-up)."""

    def argv(self) -> list[list[str]]:
        """The command line of each call position."""
        raise NotImplementedError

    def check(self, position: int) -> int:
        """Check the output of a call; return the failed experiment cells.

        Raises ValueError when the output is wrong.
        """
        raise NotImplementedError

    @property
    def output_path(self) -> Path:
        return self.output_dir / self.output_name


class Generate2k(Workload):
    """`generate` on a 2000-node planted partition, cycling alpha."""

    name = "generate-2k"
    output_name = "generated.el"
    # alpha 1.0 first: the first process warms up on it, so the exact
    # reproduction check runs in every benchmark run
    alphas = (1.0, 0.1, 0.5, 0.9)
    predictions = (
        Prediction("eigensolver (spectral.eigensolver self)", "self", "spectral.eigensolver", "about", 0.60),
        Prediction("sampling (forge.sample_bernoulli self)", "self", "forge.sample_bernoulli", "about", 0.12),
        Prediction("community", "self", "community.", "none", 0.0),
        Prediction("evaluate", "self", "evaluate.", "none", 0.0),
        Prediction("baselines", "self", "baselines.", "none", 0.0),
    )

    def prepare(self) -> None:
        self.input_dir.mkdir(parents=True, exist_ok=True)
        params = (200, 4, 0.2, 0.02) if self.tiny else (2000, 4, 0.05, 0.005)
        self.input_path = self.input_dir / "planted.el"
        write_planted_input(self.input_path, sub_seed(self.seed, "input"), *params)
        self.n, self.input_edges = read_simple_graph(self.input_path)

    def argv(self) -> list[list[str]]:
        return [["generate", "--input", str(self.input_path), "--alpha", repr(alpha),
                 "--seed", str(sub_seed(self.seed, "call", pos)),
                 "--output-dir", str(self.output_dir)]
                for pos, alpha in enumerate(self.alphas)]

    def check(self, position: int) -> int:
        n, edges = read_simple_graph(self.output_path)
        if n != self.n:
            raise ValueError(f"output has {n} nodes, input has {self.n}")
        if self.alphas[position] == 1.0 and edges != self.input_edges:
            raise ValueError("alpha=1.0 output does not reproduce the input edge set")
        return 0


class Sweep500(Workload):
    """`sweep` over three alphas on a 500-node planted partition (c10 shape)."""

    name = "sweep-500"
    output_name = "sweep.csv"
    # Python-bound: between BLAS calls idle OpenBLAS threads spin on the
    # other core, which on a 2-core VM made runs far less repeatable
    blas_threads = 1
    runs = 1
    graphs_per_call = 3 * runs
    predictions = (
        Prediction("community", "self", "community.", "about", 0.50),
        Prediction("evaluate (BFS and matching)", "self", "evaluate.", "about", 0.28),
        Prediction("spectral", "self", "spectral.", "at_most", 0.05),
    )

    def prepare(self) -> None:
        self.input_dir.mkdir(parents=True, exist_ok=True)
        params = (150, 5, 0.4, 0.02) if self.tiny else (500, 5, 0.25, 0.01)
        for pos in range(POSITIONS):
            write_planted_input(self.input_dir / f"planted{pos}.el",
                                sub_seed(self.seed, "input", pos), *params)

    def argv(self) -> list[list[str]]:
        return [["sweep", "--input", str(self.input_dir / f"planted{pos}.el"),
                 "--alphas", "0.1:0.9:0.4", "--runs", str(self.runs),
                 "--seed", str(sub_seed(self.seed, "call", pos)),
                 "--output-dir", str(self.output_dir)]
                for pos in range(POSITIONS)]

    def check(self, position: int) -> int:
        lines = self.output_path.read_text().splitlines()
        if lines[0] != "alpha,modularity_ratio,entropy,attack_rate":
            raise ValueError(f"unexpected sweep header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if [row[0] for row in rows] != ["0.1", "0.5", "0.9"]:
            raise ValueError(f"expected one row per alpha 0.1, 0.5, 0.9, got {lines[1:]}")
        for row in rows:
            for name, token in zip(("modularity_ratio", "entropy", "attack_rate"), row[1:]):
                _finite(token, f"alpha {row[0]} {name}")
        ratio, rate = float(rows[0][1]), float(rows[0][3])
        if rate > 0.2:
            raise ValueError(f"attack rate at alpha 0.1 is {rate}, above 0.2")
        if ratio < 0.6:
            raise ValueError(f"modularity ratio at alpha 0.1 is {ratio}, below 0.6")
        return 0


class BenchGirvan(Workload):
    """`bench` of sgf:0.9, dcsbm and trajanovski on the girvan preset (c05 shape)."""

    name = "bench-girvan"
    output_name = "bench_girvan.csv"
    blas_threads = 1  # Python-bound, as for sweep-500
    predictions = (
        Prediction("Louvain (community.louvain_maximize total)", "total", "community.louvain_maximize", "about", 0.60),
        Prediction("baselines", "self", "baselines.", "about", 0.20),
        Prediction("spectral", "self", "spectral.", "at_most", 0.05),
    )

    def __init__(self, seed: int, work: Path, tiny: bool):
        super().__init__(seed, work, tiny)
        self.graphs, self.runs = (1, 2) if tiny else (2, 2)
        self.graphs_per_call = 3 * self.graphs * self.runs
        self.cells_per_call = self.graphs_per_call

    def argv(self) -> list[list[str]]:
        return [["bench", "--preset", "girvan", "--strategies", "sgf:0.9,dcsbm,trajanovski",
                 "--graphs", str(self.graphs), "--runs", str(self.runs),
                 "--seed", str(sub_seed(self.seed, "call", pos)),
                 "--output-dir", str(self.output_dir)]
                for pos in range(POSITIONS)]

    def check(self, position: int) -> int:
        lines = self.output_path.read_text().splitlines()
        if lines[0] != "strategy,dataset,metric,mean,std,ci99,runs":
            raise ValueError(f"unexpected bench header {lines[0]!r}")
        failed_cells = 0
        ratio = None
        for line in lines[1:]:
            strategy, _, metric, mean = line.split(",")[:4]
            if metric == "failures":
                failed_cells += int(_finite(mean, f"{strategy} failures"))
            elif strategy == "sgf:0.9" and metric == "modularity_ratio":
                ratio = _finite(mean, "sgf:0.9 modularity_ratio")
        if ratio is None:
            raise ValueError("no sgf:0.9 modularity_ratio row")
        if not 0.95 <= ratio <= 1.10:
            raise ValueError(f"sgf:0.9 modularity ratio {ratio} outside [0.95, 1.10]")
        return failed_cells


WORKLOADS = {cls.name: cls for cls in (Generate2k, Sweep500, BenchGirvan)}
