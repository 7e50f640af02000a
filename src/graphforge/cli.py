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

from .attack import AttackConfig, dv_attack, random_guess_rate
from .evaluate import (
    Dataset,
    Strategy,
    alpha_sweep,
    compare,
    dcsbm_strategy,
    experiment_csv,
    format_value,
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
# the most cells (strategies x graphs x runs) one bench design may hold; each
# draws and scores a graph, so a larger design is a mistyped count, not a study
_MAX_BENCH_CELLS = 100_000

# the baselines a --strategies list names, besides sgf:<alpha>
_BASELINES = {"dcsbm": dcsbm_strategy, "trajanovski": trajanovski_strategy}
_STRATEGY_SPELLINGS = ", ".join(["sgf:<alpha>", *_BASELINES])

# each bench preset: (generator, config type, the config fields no flag sets,
# {flag: default} for the generator flags it reads); a default of None marks
# a required flag, and --nodes sets the field n
_PRESETS = {
    "girvan": (planted_partition, PlantedPartitionConfig,
               {"n": GIRVAN_NODES, "communities": GIRVAN_COMMUNITIES},
               {"p_in": GIRVAN_P_IN, "p_out": GIRVAN_P_OUT}),
    "planted": (planted_partition, PlantedPartitionConfig, {},
                {"nodes": 128, "communities": 4, "p_in": None, "p_out": None}),
    "lancichinetti": (lancichinetti, LancichinettiConfig, {},
                      {"nodes": 1000, "mean_degree": 16.0, "mean_community_size": 64.0,
                       "mixing": 0.1}),
}


def _read_graph(path: str) -> Graph:
    return load_edge_list(Path(path).read_text())


def _write_output(directory: str, name: str, text: str) -> None:
    """Write one output file and print its path."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(text)
    print(target)


def _seed(text) -> int:
    """The --seed type: a non-negative integer, as numpy's seeding takes.

    Its refusal is an ArgumentTypeError, so argparse's message names the
    flag, before any input is read."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


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
    """The strategies of a comma list; the CSV keys its rows by strategy
    name, so two strategies of one name are refused."""
    out: list[Strategy] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("sgf:"):
            alpha = float(token.split(":", 1)[1])
            strategy = sgf_strategy(alpha, rule=rule, logistic_k=logistic_k,
                                    transformation=transformation)
        elif token in _BASELINES:
            strategy = _BASELINES[token]()
        else:
            raise ValueError(f"unknown strategy {token!r} (use {_STRATEGY_SPELLINGS})")
        if any(s.name == strategy.name for s in out):
            raise ValueError(f"strategy {token!r} repeats the name {strategy.name!r}")
        out.append(strategy)
    if not out:
        raise ValueError("no strategies given")
    return out


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _preset_flag_help(key: str) -> str:
    return " / ".join(f"{name} ({'required' if reads[key] is None else f'default {reads[key]}'})"
                      for name, (*_, reads) in _PRESETS.items() if key in reads)


def _preset_dataset(args) -> Dataset:
    """Draw the preset's graphs from one config, checked before any draw.

    A generator flag the preset does not read is an error, so that no design
    records a parameter that was not run; unset flags take the preset's
    defaults from _PRESETS.
    """
    generate, make_config, fixed, reads = _PRESETS[args.preset]
    for key in sorted({key for *_, flags in _PRESETS.values() for key in flags} - set(reads)):
        if getattr(args, key) is not None:
            raise ValueError(f"preset {args.preset!r} does not take {_flag(key)} "
                             f"(it reads {', '.join(map(_flag, reads))})")
    fields = dict(fixed)
    for key, default in reads.items():
        value = getattr(args, key)
        fields["n" if key == "nodes" else key] = default if value is None else value
    if None in fields.values():
        required = [_flag(key) for key, default in reads.items() if default is None]
        raise ValueError(f"preset {args.preset!r} requires {' and '.join(required)}")
    cfg = make_config(**fields)
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


def _apply_config_file(args, parser: argparse.ArgumentParser) -> None:
    """Overlay a JSON experiment-design file onto the parsed args.

    The keys are the dests of the bench flags, all but --help and --config.
    Each value is checked as argparse checks its flag: it must be of the
    flag's type (a float flag also takes a JSON integer), among the flag's
    choices, and for the seed not negative; a null leaves a flag that
    defaults to unset unset. Config values take precedence over flags. The
    file must hold one object.
    """
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(raw).__name__}")
    actions = {action.dest: action for action in parser._actions
               if action.dest not in ("help", "config")}
    unknown = set(raw) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        action = actions[key]
        kind = int if action.type is _seed else action.type or str
        accepted = (int, float) if kind is float else kind
        if value is None and action.default is None:
            pass
        elif isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        elif action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r} must be one of "
                             f"{', '.join(map(repr, action.choices))}, got {value!r}")
        elif action.type is _seed and value < 0:
            raise ValueError(f"config key {key!r} must be a non-negative integer, got {value}")
        setattr(args, key, value)


def _cmd_bench(args, parser: argparse.ArgumentParser) -> int:
    if args.config:
        _apply_config_file(args, parser)
    if args.graphs < 1:
        raise ValueError(f"--graphs must be >= 1, got {args.graphs}")
    if args.runs < 2:
        raise ValueError(f"--runs must be >= 2, got {args.runs}")
    strategies = _parse_strategies(args.strategies, args.rule, args.logistic_k,
                                   args.transformation)
    cells = len(strategies) * args.graphs * args.runs
    if cells > _MAX_BENCH_CELLS:
        raise ValueError(f"design has {cells} cells (strategies x graphs x runs), "
                         f"more than the {_MAX_BENCH_CELLS} a bench takes")
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
        p.add_argument("--seed", type=_seed, default=0, help="master RNG seed (>= 0)")

    def forge_options(p):
        p.add_argument("--rule", choices=NORMALIZATION_RULES, default="truncate")
        p.add_argument("--logistic-k", type=float, default=DEFAULT_LOGISTIC_K)
        p.add_argument("--transformation", choices=TRANSFORMATIONS, default="modularity")

    p = sub.add_parser("generate", help="forge one graph from an input edge list")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    forge_options(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("eval", help="compare an input graph against a generated one")
    common(p)
    p.add_argument("--generated", required=True, help="generated edge-list file")
    p.add_argument("--attrs", help="node attribute CSV for the input graph")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sweep", help="alpha sweep: modularity ratio, entropy, attack rate")
    common(p)
    p.add_argument("--alphas", required=True, help="decimal or start:stop:step grid")
    p.add_argument("--runs", type=int, default=10)
    forge_options(p)
    p.add_argument("--seed-fraction", type=float, default=0.05)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("attack", help="distance-vector de-anonymization rate")
    common(p)
    p.add_argument("--generated", required=True)
    p.add_argument("--seed-fraction", type=float, default=0.05)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("bench", help="run strategies against a preset dataset")
    common(p, needs_input=False)
    p.add_argument("--preset", choices=list(_PRESETS), default="girvan")
    p.add_argument("--strategies", default="sgf:0.9,dcsbm",
                   help=f"comma list: {_STRATEGY_SPELLINGS}")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--graphs", type=int, default=10, help="graphs per preset dataset")
    forge_options(p)
    # preset generator flags; each preset refuses those it does not read
    for key, kind in (("nodes", int), ("communities", int), ("p_in", float), ("p_out", float),
                      ("mean_degree", float), ("mean_community_size", float), ("mixing", float)):
        p.add_argument(_flag(key), type=kind, help=_preset_flag_help(key))
    p.add_argument("--config", help="JSON experiment-design file; its values take precedence")
    p.set_defaults(handler=lambda args: _cmd_bench(args, p))

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
