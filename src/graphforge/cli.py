"""Command-line front-end: generate, eval, sweep, attack, bench.

All randomness flows from one --seed per invocation; repeating a command
with the same seed reproduces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .evaluate import (
    AttackConfig,
    Dataset,
    Strategy,
    alpha_sweep,
    compare,
    dcsbm_strategy,
    dv_attack,
    experiment_csv,
    format_value,
    random_guess_rate,
    run_experiment,
    seed_from,
    sgf_strategy,
    trajanovski_strategy,
)
from .forge import (
    DEFAULT_LOGISTIC_K,
    NORMALIZATION_RULES,
    TRANSFORMATIONS,
    ForgeConfig,
    forge,
)
from .generators import (
    GIRVAN_COMMUNITIES,
    GIRVAN_NODES,
    GIRVAN_P_IN,
    GIRVAN_P_OUT,
    LancichinettiConfig,
    PlantedPartitionConfig,
    lancichinetti,
    planted_partition,
)
from .graph import Graph, load_attributes, load_edge_list, write_edge_list

SWEEP_CSV_HEADER = "alpha,modularity_ratio,entropy,attack_rate"

# the most alphas one sweep grid may hold; each is a fitted distribution and
# --runs samples, so a larger grid is a mistyped step, not a study
_MAX_GRID_POINTS = 100_000

_CONFIG_KEYS = {"strategies", "preset", "runs", "graphs", "seed", "output_dir",
                "nodes", "communities", "p_in", "p_out", "mean_degree",
                "mean_community_size", "mixing"}


def _read_graph(path: str) -> Graph:
    return load_edge_list(Path(path).read_text())


def _write_output(directory: str, name: str, text: str) -> None:
    """Write one output file and print its path."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(text)
    print(target)


def _parse_alphas(spec: str) -> list[float]:
    """Either a single decimal or a start:stop:step grid (stop inclusive)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid {spec!r} needs a finite start, stop and step")
        if step < 1e-9:
            # every point is snapped to 9 decimals, so a finer step repeats alphas
            raise ValueError(f"grid {spec!r} needs a step of at least 1e-9, the alpha resolution")
        if stop > 1.0 + 1e-9:
            raise ValueError(f"grid {spec!r} runs past alpha = 1")
        # stop is kept within 1e-9 or half a step, whichever is less, so a
        # float error cannot drop it and a step near 1e-9 cannot pass it
        count = math.floor((stop - start + min(1e-9, step / 2)) / step) + 1
        if count < 1:
            raise ValueError(f"grid {spec!r} holds no alpha (start is above stop)")
        if count > _MAX_GRID_POINTS:
            raise ValueError(f"grid {spec!r} has {count} points, more than the "
                             f"{_MAX_GRID_POINTS} a sweep takes")
        return [min(round(start + k * step, 9), 1.0) for k in range(count)]
    return [float(spec)]


def _parse_strategies(spec: str, rule: str, logistic_k: float, transformation: str) -> list[Strategy]:
    out: list[Strategy] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("sgf:"):
            alpha = float(token.split(":", 1)[1])
            out.append(sgf_strategy(alpha, rule=rule, logistic_k=logistic_k,
                                    transformation=transformation))
        elif token == "dcsbm":
            out.append(dcsbm_strategy())
        elif token == "trajanovski":
            out.append(trajanovski_strategy())
        else:
            raise ValueError(f"unknown strategy {token!r} (use sgf:<alpha>, dcsbm, trajanovski)")
    if not out:
        raise ValueError("no strategies given")
    return out


# the generator flags each preset reads; a preset refuses any other
_PRESET_FLAGS = {
    "girvan": ("p_in", "p_out"),
    "planted": ("nodes", "communities", "p_in", "p_out"),
    "lancichinetti": ("nodes", "mean_degree", "mean_community_size", "mixing"),
}


def _preset_dataset(args) -> Dataset:
    """Draw the preset's graphs from one config, checked before any draw.

    A generator flag the preset does not read is an error, so that no design
    records a parameter that was not run; unset flags take the preset's
    defaults here.
    """
    if args.preset not in _PRESET_FLAGS:
        raise ValueError(f"unknown preset {args.preset!r}")
    reads = _PRESET_FLAGS[args.preset]
    for key in sorted({key for keys in _PRESET_FLAGS.values() for key in keys} - set(reads)):
        if getattr(args, key) is not None:
            raise ValueError(
                f"preset {args.preset!r} does not take --{key.replace('_', '-')} "
                f"(it reads {', '.join('--' + k.replace('_', '-') for k in reads)})")

    def flag(key, default):
        value = getattr(args, key)
        return default if value is None else value

    if args.preset == "girvan":
        generate = planted_partition
        cfg = PlantedPartitionConfig(
            n=GIRVAN_NODES, communities=GIRVAN_COMMUNITIES,
            p_in=flag("p_in", GIRVAN_P_IN), p_out=flag("p_out", GIRVAN_P_OUT))
    elif args.preset == "planted":
        if args.p_in is None or args.p_out is None:
            raise ValueError("preset 'planted' requires --p-in and --p-out")
        generate = planted_partition
        cfg = PlantedPartitionConfig(
            n=flag("nodes", 128), communities=flag("communities", 4),
            p_in=args.p_in, p_out=args.p_out)
    else:
        generate = lancichinetti
        cfg = LancichinettiConfig(
            n=flag("nodes", 1000), mean_degree=flag("mean_degree", 16.0),
            mean_community_size=flag("mean_community_size", 64.0),
            mixing=flag("mixing", 0.1))
    graphs = tuple(generate(replace(cfg, seed=seed_from(args.seed, 100, i)))[0]
                   for i in range(args.graphs))
    return Dataset(name=args.preset, graphs=graphs)


def _cmd_generate(args) -> int:
    graph = _read_graph(args.input)
    cfg = ForgeConfig(alpha=args.alpha, rule=args.rule, logistic_k=args.logistic_k,
                      transformation=args.transformation, seed=args.seed)
    out = forge(graph, cfg)
    _write_output(args.output_dir, "generated.el", write_edge_list(out))
    return 0


def _cmd_eval(args) -> int:
    graph = _read_graph(args.input)
    generated = _read_graph(args.generated)
    if args.attrs:
        graph = load_attributes(Path(args.attrs).read_text(), graph)
    report = compare(graph, generated, args.seed)
    lines = ["metric,value"] + [f"{metric},{format_value(value)}"
                                for metric, value in report.as_items()]
    _write_output(args.output_dir, "metrics.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    alphas = _parse_alphas(args.alphas)
    rows = alpha_sweep(_read_graph(args.input), alphas, args.runs, args.seed,
                       rule=args.rule, logistic_k=args.logistic_k,
                       transformation=args.transformation, seed_fraction=args.seed_fraction)
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        ratios, rates = row.modularity_ratios, row.attack_rates
        ratio = sum(ratios) / len(ratios) if ratios else None
        values = ",".join(format_value(v) for v in (ratio, row.entropy, sum(rates) / len(rates)))
        lines.append(f"{row.alpha:g},{values}")
    _write_output(args.output_dir, "sweep.csv", "\n".join(lines) + "\n")
    return 0


def _cmd_attack(args) -> int:
    original = _read_graph(args.input)
    anonymized = _read_graph(args.generated)
    rate = dv_attack(original, anonymized,
                     AttackConfig(seed_fraction=args.seed_fraction, seed=args.seed))
    print(f"identification_rate {rate!r}")
    print(f"random_guess_rate {random_guess_rate(original.n, args.seed_fraction)!r}")
    return 0


def _apply_config_file(args) -> None:
    """Overlay a JSON experiment-design file onto the parsed args.

    Config values take precedence over flags. The file must hold one object;
    unknown keys, and values that are not of their flag's type (a float flag
    also takes a JSON integer), are rejected.
    """
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        kind = args.config_types[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        setattr(args, key, value)


def _cmd_bench(args) -> int:
    if args.config:
        _apply_config_file(args)
    if args.graphs < 1:
        raise ValueError(f"--graphs must be >= 1, got {args.graphs}")
    if args.runs < 2:
        raise ValueError(f"--runs must be >= 2, got {args.runs}")
    strategies = _parse_strategies(args.strategies, args.rule, args.logistic_k,
                                   args.transformation)
    dataset = _preset_dataset(args)
    rows = run_experiment(strategies, [dataset], args.runs, args.seed)
    _write_output(args.output_dir, f"bench_{dataset.name}.csv", experiment_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphforge",
        description="Generate random graphs preserving community structure, "
                    "and evaluate them against baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input edge-list file")
        p.add_argument("--output-dir", default=".", help="directory for output files")
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")

    def forge_options(p):
        p.add_argument("--rule", choices=NORMALIZATION_RULES, default="truncate")
        p.add_argument("--logistic-k", type=float, default=DEFAULT_LOGISTIC_K)
        p.add_argument("--transformation", choices=TRANSFORMATIONS, default="modularity")

    p = sub.add_parser("generate", help="forge one graph from an input edge list")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    forge_options(p)

    p = sub.add_parser("eval", help="compare an input graph against a generated one")
    common(p)
    p.add_argument("--generated", required=True, help="generated edge-list file")
    p.add_argument("--attrs", help="node attribute CSV for the input graph")

    p = sub.add_parser("sweep", help="alpha sweep: modularity ratio, entropy, attack rate")
    common(p)
    p.add_argument("--alphas", required=True, help="decimal or start:stop:step grid")
    p.add_argument("--runs", type=int, default=10)
    forge_options(p)
    p.add_argument("--seed-fraction", type=float, default=0.05)

    p = sub.add_parser("attack", help="distance-vector de-anonymization rate")
    common(p)
    p.add_argument("--generated", required=True)
    p.add_argument("--seed-fraction", type=float, default=0.05)

    p = sub.add_parser("bench", help="run strategies against a preset dataset")
    common(p, needs_input=False)
    p.add_argument("--preset", choices=["girvan", "planted", "lancichinetti"], default="girvan")
    p.add_argument("--strategies", default="sgf:0.9,dcsbm",
                   help="comma list: sgf:<alpha>, dcsbm, trajanovski")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--graphs", type=int, default=10, help="graphs per preset dataset")
    forge_options(p)
    # preset generator flags; each preset refuses those it does not read
    p.add_argument("--nodes", type=int, default=None,
                   help="node count for planted (default 128) / lancichinetti (default 1000)")
    p.add_argument("--communities", type=int, default=None, help="planted only (default 4)")
    p.add_argument("--p-in", type=float, default=None, dest="p_in",
                   help="girvan (default 14/31) / planted (required)")
    p.add_argument("--p-out", type=float, default=None, dest="p_out",
                   help="girvan (default 2/96) / planted (required)")
    p.add_argument("--mean-degree", type=float, default=None,
                   help="lancichinetti only (default 16)")
    p.add_argument("--mean-community-size", type=float, default=None,
                   help="lancichinetti only (default 64)")
    p.add_argument("--mixing", type=float, default=None, help="lancichinetti only (default 0.1)")
    p.add_argument("--config", help="JSON experiment-design file; its values take precedence")
    # _apply_config_file checks each config value against its flag's type
    p.set_defaults(config_types={action.dest: action.type or str for action in p._actions
                                 if action.dest in _CONFIG_KEYS})

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": _cmd_generate,
        "eval": _cmd_eval,
        "sweep": _cmd_sweep,
        "attack": _cmd_attack,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
