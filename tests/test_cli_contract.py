"""The CLI's degenerate-input contract, tested generatively.

Every subcommand runs in this process on tiny edge lists (0 to 4 nodes,
edgeless and complete graphs included) with numeric knobs that are zero,
negative, NaN or infinite. Each flag is spelled --flag=value, so that a
negative or non-finite value reaches the program's own checks. A run must
exit 0, or exit 2 with stderr starting `error:` or with argparse's usage
error; any other exit code, or an exception escaping `dispatch`, fails.
"""

import contextlib
import io
import itertools
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from graphforge import cells
from graphforge.cli import dispatch
from graphforge.forge import NORMALIZATION_RULES, TRANSFORMATIONS

KNOBS = [0.0, 0.5, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]
COUNTS = [-1, 0, 1, 2, 3, 4]

knob = st.sampled_from(KNOBS).map(repr)
count = st.sampled_from(COUNTS).map(str)


@st.composite
def edge_lists(draw, n: int) -> str:
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return "\n".join([f"#nodes {n}"] + [f"{i} {j}" for (i, j), k in zip(pairs, keep) if k])


def _optional(draw, flags: dict) -> list[str]:
    """Each of `flags` (name: values) given or left at its default, by a draw."""
    return [f"--{flag}={draw(values)}" for flag, values in flags.items() if draw(st.booleans())]


def _forge_flags(draw) -> list[str]:
    return _optional(draw, {"rule": st.sampled_from(NORMALIZATION_RULES), "logistic-k": knob,
                            "transformation": st.sampled_from(TRANSFORMATIONS)})


@st.composite
def commands(draw) -> list[str]:
    """argv with {input}, {generated} and {attrs} for the files of the run."""
    command = draw(st.sampled_from(["generate", "eval", "sweep", "attack", "bench"]))
    argv = [command, *_optional(draw, {"seed": count})]
    if command == "generate":
        argv += ["--input={input}", f"--alpha={draw(knob)}", *_forge_flags(draw)]
    elif command == "eval":
        argv += ["--input={input}", "--generated={generated}"]
        if draw(st.booleans()):
            argv.append("--attrs={attrs}")
    elif command == "sweep":
        argv += ["--input={input}", f"--alphas={draw(knob)}", "--runs=1", *_forge_flags(draw),
                 *_optional(draw, {"seed-fraction": knob})]
    elif command == "attack":
        argv += ["--input={input}", "--generated={generated}",
                 *_optional(draw, {"seed-fraction": knob})]
    else:
        preset = draw(st.sampled_from(["girvan", "planted", "lancichinetti"]))
        specs = draw(st.lists(st.sampled_from(["dcsbm", "trajanovski", "sgf:{}"]),
                              min_size=1, max_size=3, unique=True))
        strategies = ",".join(s.format(draw(knob)) for s in specs)
        argv += [f"--preset={preset}", "--graphs=1", "--runs=2",
                 f"--strategies={strategies}", *_forge_flags(draw)]
        # --nodes is always given, so that no draw takes the preset's default size
        if preset == "girvan":
            argv += _optional(draw, {"p-in": knob, "p-out": knob})
        elif preset == "planted":
            argv += [f"--nodes={draw(count)}",
                     *_optional(draw, {"communities": count, "p-in": knob, "p-out": knob})]
        else:
            argv += [f"--nodes={draw(count)}", *_optional(
                draw, {"mean-degree": knob, "mean-community-size": knob, "mixing": knob})]
    return argv


@st.composite
def files(draw) -> dict[str, str]:
    """An input edge list, a generated one (mostly of the input's size) and
    an attribute CSV for the input."""
    n = draw(st.integers(0, 4))
    labels = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    return {"input": draw(edge_lists(n)),
            "generated": draw(edge_lists(draw(st.sampled_from([n, n, n, 0, 4])))),
            "attrs": "node,side\n" + "\n".join(f"{v},{c}" for v, c in enumerate(labels))}


_USAGE_ERROR = re.compile(r"graphforge \w+: error: ")


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(argv=commands(), files=files())
def test_every_command_exits_0_or_refuses_with_an_error(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = Path(tmp, name)
            paths[name].write_text(text)
        argv = [arg.format(**paths) for arg in argv] + [f"--output-dir={tmp}/out"]
        err = io.StringIO()
        # one process: cells run in a loop, and warnings are kept off stderr
        with mock.patch.object(cells, "_free_cores", lambda: 1), \
                warnings.catch_warnings(record=True), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = dispatch(argv)
    lines = err.getvalue().splitlines()
    assert rc == 0 or rc == 2 and lines and (
        lines[0].startswith("error:") or _USAGE_ERROR.match(lines[-1])), (argv, rc, lines)
