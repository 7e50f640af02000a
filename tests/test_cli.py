import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphforge import cli
from graphforge.cli import _parse_alphas, dispatch
from graphforge.graph import load_edge_list, write_edge_list

from conftest import disjoint_cliques


@pytest.fixture
def no_draw(monkeypatch):
    """Make every preset's generator fail the test if it draws a graph."""
    def draw(config):
        raise AssertionError("a graph was drawn")

    for name, (_, *rest) in list(cli._PRESETS.items()):
        monkeypatch.setitem(cli._PRESETS, name, (draw, *rest))


@pytest.fixture
def clique_file(tmp_path):
    g = disjoint_cliques(6, 6)
    path = tmp_path / "input.el"
    path.write_text(write_edge_list(g))
    return path, g


def test_parse_alphas():
    assert _parse_alphas("0.5") == [0.5]
    grid = _parse_alphas("0.1:1.0:0.1")
    assert len(grid) == 10
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        _parse_alphas("0.1:1.0")


def test_parse_alphas_grid_points():
    # the golden and README grids keep the points they always had
    assert _parse_alphas("0.1:0.9:0.4") == [0.1, 0.5, 0.9]
    assert _parse_alphas("0.1:1.0:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    # a step at the alpha resolution ends at the stop, not one step past it
    grid = _parse_alphas("0:1e-8:1e-9")
    assert len(grid) == 11 and grid[-1] == 1e-08


def test_generate_identity_at_alpha_one(tmp_path, clique_file):
    path, g = clique_file
    rc = dispatch(["generate", "--input", str(path), "--alpha", "1.0",
                   "--rule", "truncate", "--seed", "7",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    out = load_edge_list((tmp_path / "generated.el").read_text())
    assert out == g


def test_generate_deterministic_bytes(tmp_path, clique_file):
    path, _ = clique_file
    outs = []
    for d in ("a", "b"):
        rc = dispatch(["generate", "--input", str(path), "--alpha", "0.5",
                       "--seed", "3", "--output-dir", str(tmp_path / d)])
        assert rc == 0
        outs.append((tmp_path / d / "generated.el").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("nodes", [0, 1])
def test_generate_adjacency_on_a_graph_without_dyads(tmp_path, nodes):
    # the eigensolve is skipped at n = 0 (LAPACK rejects a leading dimension
    # of 0) and runs on a 1 x 1 matrix at n = 1
    path = tmp_path / "tiny.el"
    path.write_text(f"#nodes {nodes}\n")
    rc = dispatch(["generate", "--input", str(path), "--alpha", "0.5",
                   "--transformation", "adjacency", "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "generated.el").read_text() == f"#nodes {nodes}"


def test_eval_subcommand(tmp_path, clique_file):
    path, _ = clique_file
    rc = dispatch(["eval", "--input", str(path), "--generated", str(path),
                   "--seed", "5", "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "metric,value"
    values = dict(line.split(",") for line in lines[1:])
    assert float(values["modularity_ratio"]) == 1.0
    assert values["degree_correlation"] == "NA"  # regular graph: zero variance


def test_eval_with_attribute_csv(tmp_path, clique_file):
    path, g = clique_file
    attrs = tmp_path / "attrs.csv"
    attrs.write_text("node,side\n" + "\n".join(
        f"{v},{'a' if v < 6 else 'b'}" for v in range(g.n)))
    rc = dispatch(["eval", "--input", str(path), "--generated", str(path),
                   "--attrs", str(attrs), "--seed", "5",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    values = dict(line.split(",") for line in lines[1:])
    assert float(values["attribute:side"]) == 1.0


@pytest.mark.parametrize("header, message", [
    ("node,side,side", "column 3 repeats the name 'side'"),
    ("node,side,", "column 3 has an empty name"),
])
def test_eval_refuses_an_attribute_csv_with_unusable_names(tmp_path, clique_file, capsys,
                                                           header, message):
    path, g = clique_file
    attrs = tmp_path / "attrs.csv"
    attrs.write_text(header + "\n" + "\n".join(f"{v},a,b" for v in range(g.n)))
    rc = dispatch(["eval", "--input", str(path), "--generated", str(path),
                   "--attrs", str(attrs), "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "metrics.csv").exists()


def test_attack_subcommand(tmp_path, clique_file, capsys):
    path, _ = clique_file
    rc = dispatch(["attack", "--input", str(path), "--generated", str(path),
                   "--seed-fraction", "0.25", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identification_rate" in out and "random_guess_rate" in out


def test_sweep_csv_and_entropy_trend(tmp_path):
    from graphforge.generators import PlantedPartitionConfig, planted_partition

    g, _ = planted_partition(PlantedPartitionConfig(n=64, communities=2, p_in=0.4,
                                                    p_out=0.05, seed=2))
    path = tmp_path / "g.el"
    path.write_text(write_edge_list(g))
    rc = dispatch(["sweep", "--input", str(path), "--alphas", "0.1:1.0:0.1",
                   "--runs", "2", "--seed", "9", "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha,modularity_ratio,entropy,attack_rate"
    assert len(lines) == 11
    entropies = [float(line.split(",")[2]) for line in lines[1:]]
    ranks = np.argsort(np.argsort(entropies))
    rho = np.corrcoef(np.arange(10), ranks)[0, 1]
    assert rho < -0.9  # entropy falls as alpha rises


@pytest.mark.parametrize("flags", [["--alphas", "0.5", "--runs", "0"],
                                   ["--alphas", "0.5", "--runs", "-1"],
                                   ["--alphas", "0.5:0.1:0.1"],
                                   # a grid part that is not finite never ends the grid
                                   ["--alphas", "0:1:nan"],
                                   ["--alphas", "0:inf:0.1"],
                                   ["--alphas", "nan:1:0.1"],
                                   # a grid past alpha = 1 would repeat alpha = 1
                                   ["--alphas", "0.5:1.5:0.5"],
                                   ["--alphas", "0:1000:0.1"],
                                   # a step below the 1e-9 snap repeats alphas,
                                   # or never ends the grid
                                   ["--alphas", "0:1e-8:1e-10"],
                                   ["--alphas", "0:1:1e-12"],
                                   # 10^9 + 1 points: refused before any is built
                                   ["--alphas", "0:1:1e-9"]])
def test_sweep_rejects_no_runs_and_empty_grid(tmp_path, clique_file, capsys, flags):
    path, _ = clique_file
    rc = dispatch(["sweep", "--input", str(path), "--output-dir", str(tmp_path)] + flags)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_checks_seed_fraction_before_dense_work(tmp_path, capsys):
    # the input is too large to fit: the bad seed fraction must be reported
    # before any fit, and so instead of the dense-memory error
    path = tmp_path / "huge.el"
    path.write_text("#nodes 200000\n0 1\n")
    rc = dispatch(["sweep", "--input", str(path), "--alphas", "0.5", "--runs", "1",
                   "--seed-fraction", "0", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed_fraction" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_bench_subcommand_and_determinism(tmp_path):
    args = ["bench", "--preset", "planted", "--nodes", "32", "--communities", "2",
            "--p-in", "0.5", "--p-out", "0.05", "--graphs", "2", "--runs", "2",
            "--strategies", "sgf:0.9,dcsbm", "--seed", "21"]
    outs = []
    for d in ("x", "y"):
        rc = dispatch(args + ["--output-dir", str(tmp_path / d)])
        assert rc == 0
        outs.append((tmp_path / d / "bench_planted.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().strip().split("\n")
    assert lines[0] == "strategy,dataset,metric,mean,std,ci99,runs"
    strategies = {line.split(",")[0] for line in lines[1:]}
    assert strategies == {"sgf:0.9", "dcsbm"}


def test_bench_keeps_an_unscorable_input_as_a_failures_row(tmp_path):
    # the one-node input has no edges, so Louvain refuses to score it
    rc = dispatch(["bench", "--preset", "planted", "--nodes", "1", "--communities", "1",
                   "--p-in", "0.5", "--p-out", "0.1", "--graphs", "1", "--runs", "2",
                   "--strategies", "trajanovski", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "bench_planted.csv").read_text().splitlines()[1:] == [
        "trajanovski,planted,failures,2.0,NA,NA,2"]


@pytest.mark.parametrize("flags, message", [
    (["--strategies", "sgf:1.5"], "alpha must lie in [0, 1]"),
    (["--strategies", "sgf:nan"], "alpha must lie in [0, 1]"),
    (["--rule", "logistic", "--logistic-k", "50"], "logistic k must lie in [2, 10]"),
    (["--graphs", "0"], "--graphs must be >= 1"),
    (["--preset", "planted", "--p-in", "2", "--p-out", "0.1"], "p_in <= 1"),
    (["--preset", "lancichinetti", "--mixing", "1.5"], "mixing must lie in [0, 1)"),
    (["--preset", "lancichinetti", "--runs", "1"], "--runs must be >= 2"),
    (["--preset", "lancichinetti", "--nodes", "0"], "n >= 1"),
    (["--preset", "lancichinetti", "--nodes", "-5"], "n >= 1"),
    (["--preset", "lancichinetti", "--nodes", "50", "--mean-degree", "nan"],
     "must be finite and >= 1"),
    (["--graphs", "1", "--runs", "200000000", "--strategies", "dcsbm"],
     "design has 200000000 cells"),
    (["--graphs", "1000000000", "--runs", "2"], "more than the 100000 a bench takes"),
    (["--strategies", ","], "no strategies given"),
    (["--preset", "planted"], "preset 'planted' requires --p-in and --p-out"),
])
def test_bench_checks_design_before_drawing(tmp_path, capsys, no_draw, flags, message):
    # a bad knob is an error of the whole design, not a failed run: it must
    # be refused before the first graph is drawn
    rc = dispatch(["bench", "--output-dir", str(tmp_path)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, design", [
    (["--preset", "girvan", "--nodes", "64"], None),
    (["--preset", "girvan", "--communities", "2"], None),
    (["--preset", "lancichinetti", "--communities", "2"], None),
    (["--preset", "lancichinetti", "--p-in", "0.5"], None),
    (["--preset", "planted", "--p-in", "0.5", "--p-out", "0.1", "--mixing", "0.2"], None),
    ([], {"preset": "girvan", "nodes": 64}),
    ([], {"preset": "lancichinetti", "communities": 2}),
    ([], {"preset": "lancichinetti", "p_in": 0.5, "p_out": 0.1}),
])
def test_bench_refuses_flags_the_preset_does_not_read(tmp_path, capsys, no_draw,
                                                      flags, design):
    # a design that names a parameter its preset ignores would record a
    # parameter that was not run
    out_dir = tmp_path / "out"
    if design is not None:
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(design))
        flags = flags + ["--config", str(design_path)]
    rc = dispatch(["bench", "--output-dir", str(out_dir)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not take" in err
    assert not out_dir.exists()


def test_bench_config_file(tmp_path, capsys):
    cfg = {"preset": "planted", "nodes": 32, "communities": 2, "p_in": 0.5,
           "p_out": 0.05, "graphs": 2, "runs": 2, "strategies": "sgf:1",
           "seed": 4, "output_dir": str(tmp_path)}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = dispatch(["bench", "--config", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "bench_planted.csv").exists()

    # a choice outside the flag's choices is refused as argparse refuses it,
    # also when the flags alone would run
    for bad in (dict(cfg, bogus=1), dict(cfg, runs="3"), dict(cfg, strategies=5),
                dict(cfg, p_in=True), dict(cfg, nodes=32.0), [cfg], "planted",
                dict(cfg, rule="bogus"), dict(cfg, preset="bogus"),
                {"rule": "bogus"}, {"preset": "bogus"}):
        cfg_path.write_text(json.dumps(bad))
        for flags in ([], ["--strategies", "dcsbm"]):
            assert dispatch(["bench", "--config", str(cfg_path)] + flags) == 2
            assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json", "bench_planted.csv"]


def test_bench_config_file_sets_forge_options(tmp_path):
    # rule, logistic_k and transformation are bench flags, so they are design keys
    forge_options = {"rule": "logistic", "logistic_k": 3, "transformation": "adjacency"}
    base = ["bench", "--preset", "planted", "--nodes", "32", "--communities", "2",
            "--p-in", "0.5", "--p-out", "0.05", "--graphs", "2", "--runs", "2",
            "--strategies", "sgf:0.5", "--seed", "4"]
    cfg_path = tmp_path / "design.json"
    cfg_path.write_text(json.dumps(forge_options))
    assert dispatch(base + ["--config", str(cfg_path), "--output-dir", str(tmp_path / "c")]) == 0
    assert dispatch(base + ["--rule", "logistic", "--logistic-k", "3", "--transformation",
                            "adjacency", "--output-dir", str(tmp_path / "f")]) == 0
    assert dispatch(base + ["--output-dir", str(tmp_path / "d")]) == 0
    by_config, by_flags, by_default = (
        (tmp_path / d / "bench_planted.csv").read_bytes() for d in "cfd")
    assert by_config == by_flags != by_default


def test_bench_config_file_takes_every_flag_at_its_default(tmp_path, monkeypatch):
    # every bench dest but help and config is a design key: a design holding
    # each one at its flag's default runs the design the bare command runs
    defaults = vars(cli.build_parser().parse_args(["bench"]))
    design = {key: value for key, value in defaults.items()
              if key not in ("command", "handler", "config")}
    assert {"rule", "logistic_k", "transformation", "nodes", "p_in"} <= set(design)
    calls = []

    def record(strategies, datasets, runs, seed):
        calls.append(([s.name for s in strategies],
                      [(d.name, d.graphs) for d in datasets], runs, seed))
        return []

    monkeypatch.setattr(cli, "run_experiment", record)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "design.json"
    cfg_path.write_text(json.dumps(design))
    assert dispatch(["bench", "--config", str(cfg_path)]) == 0
    assert dispatch(["bench"]) == 0
    assert len(calls) == 2 and calls[0] == calls[1]


def test_missing_file_reports_error(tmp_path, capsys):
    rc = dispatch(["generate", "--input", str(tmp_path / "absent.el"),
                   "--alpha", "0.5", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_strategy_reports_error(tmp_path, capsys):
    rc = dispatch(["bench", "--strategies", "mystery", "--graphs", "2",
                   "--runs", "2", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown strategy" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["flags", "config"])
def test_bench_refuses_strategies_whose_names_repeat(tmp_path, capsys, no_draw, spelling):
    # sgf:0.9 and sgf:0.90 both write rows named sgf:0.9, which the CSV
    # could not tell apart
    flags = ["--graphs", "1", "--runs", "2", "--seed", "1"]
    strategies = "sgf:0.9,sgf:0.90,dcsbm,dcsbm"
    if spelling == "flags":
        flags += ["--strategies", strategies]
    else:
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"strategies": strategies}))
        flags += ["--config", str(design)]
    rc = dispatch(["bench", "--output-dir", str(tmp_path / "out")] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repeats the name 'sgf:0.9'" in err
    assert not (tmp_path / "out").exists()


def test_a_usage_error_returns_2(capsys):
    assert dispatch(["generate"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("graphforge generate: error:")


@pytest.mark.parametrize("command", [
    (200000, ["generate", "--input", "{input}", "--alpha", "0.5"]),
    (200000, ["attack", "--input", "{input}", "--generated", "{input}"]),
    # at 10^12 nodes even the attack's seed draw would exhaust memory
    (10**12, ["attack", "--input", "{input}", "--generated", "{input}"]),
    # the planted preset samples every dyad of each graph it draws
    (200000, ["bench", "--preset", "planted", "--nodes", "200000", "--communities", "4",
              "--p-in", "0.1", "--p-out", "0.01"]),
    # Louvain's per-node lists at 10^12 nodes
    (10**12, ["eval", "--input", "{input}", "--generated", "{input}"]),
])
def test_oversized_dense_work_fails_fast(tmp_path, capsys, command):
    # n^2 arrays at n = 200000 and per-node arrays at n = 10^12 are hundreds
    # of GB: the program must refuse before allocating any of them, and write
    # no output
    nodes, template = command
    path = tmp_path / "huge.el"
    path.write_text(f"#nodes {nodes}\n0 1\n")
    argv = [arg.format(input=path) for arg in template]
    rc = dispatch([*argv, "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"n = {nodes}" in err and "bytes" in err
    assert [f.name for f in tmp_path.iterdir()] == ["huge.el"]


_SRC = str(Path(cli.__file__).resolve().parents[1])


def _run_module(module: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["graphforge", "graphforge.cli"])
def test_module_entry_point_runs_the_command(module, tmp_path):
    argv = ["bench", "--graphs", "1", "--runs", "2", "--strategies", "dcsbm,trajanovski",
            "--seed", "3"]
    result = _run_module(module, argv + ["--output-dir", str(tmp_path / "module")])
    assert result.returncode == 0, result.stderr
    assert dispatch(argv + ["--output-dir", str(tmp_path / "dispatch")]) == 0
    written = (tmp_path / "module" / "bench_girvan.csv").read_bytes()
    assert written == (tmp_path / "dispatch" / "bench_girvan.csv").read_bytes()

    result = _run_module(module, ["bench", "--no-such-flag"])
    assert result.returncode == 2
    assert "error:" in result.stderr


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_cli_uses_only_public_names_of_other_modules():
    tree = ast.parse(Path(cli.__file__).read_text())
    modules: set[str] = set()
    private: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module is None:  # from . import <module>
                    modules.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    private.append(f"line {node.lineno}: from {'.' * node.level}"
                                   f"{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            private.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert private == []
