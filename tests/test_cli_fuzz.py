"""Fuzzing of the command line: one command with one option at an edge value.

Every run ends in exit 0, 2, 3 or 4 with no traceback (a RuntimeWarning is
an error under pytest), an exit 2 leaves the disk as it found it, and a
corpus that ``gen`` writes is one that ``eval --scorer uniform`` ranks.
Derandomized and bounded, on a tiny corpus with tiny checkpoints, so the
module takes seconds.
"""

import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from context_rerank.cli import run
from context_rerank.dataio import load_dataset
from fuzzing import FUZZ

GEN = ["--identities", "6", "--cameras", "2", "--scenes-per-camera", "3", "--instances-per-scene", "3",
       "--dim", "2", "--seed", "1"]
SGD = ["--epochs", "1", "--batch-size", "8", "--seed", "1"]
GRAPH = ["--scorer", "graph", "--attn", "{attn}", "--gcn", "{gcn}", "--seed", "1"]
SGD_OPTIONS = ["--lr", "--epochs", "--lr-drop-epoch", "--batch-size", "--seed"]

# command -> (its arguments besides the fuzzed option and the outputs, the options fuzzed)
COMMANDS = {
    "gen": (GEN, ["--identities", "--cameras", "--scenes-per-camera", "--instances-per-scene",
                  "--group-size-mean", "--co-travel-prob", "--noise-sigma", "--part-dropout", "--dim",
                  "--lookalike-group", "--lookalike-overlap", "--seed"]),
    "train-attn": (["--data", "{data}", "--hidden", "2", *SGD], ["--margin", "--hidden", "--neg-ratio", *SGD_OPTIONS]),
    "train-gcn": (["--data", "{data}", "--attn", "{attn}", "--context-k", "1", *SGD],
                  ["--context-k", "--max-positives", "--neg-ratio", *SGD_OPTIONS]),
    "eval": (["--data", "{data}", "--gallery-size", "2", "--max-queries", "3", *GRAPH],
             ["--gallery-size", "--max-queries", "--context-k", "--seed"]),
    "rerank": (["--data", "{data}", "--probe", "{probe}", "--gallery-size", "2", *GRAPH],
               ["--probe", "--gallery-size", "--context-k", "--seed"]),
    "sweep": (["--data", "{data}", "--sizes", "1,2", "--max-queries", "3", *GRAPH],
              ["--sizes", "--max-queries", "--context-k", "--seed"]),
    "gradcheck": (["--trials", "1"], ["--trials", "--seed"]),
}
OUTPUTS = {"eval": ["--out", "--per-query"], "gradcheck": []}
# negative, zero, NaN, +-inf, 1e+-300, and one small count above the tiny corpus
EDGE_VALUES = ["-1", "0", "nan", "inf", "-inf", "1e-300", "1e300", "-1e300", "9"]
SIZES_VALUES = ["", ",", "1,,x", "2,"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus, an attention checkpoint and a K=1 graph checkpoint."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    paths = {name: str(root / name) for name in ("data", "attn", "gcn")}
    assert run(["gen", "--out", paths["data"], *GEN]) == 0
    assert run(["train-attn", "--data", paths["data"], "--out", paths["attn"], "--hidden", "2", *SGD]) == 0
    assert run(["train-gcn", "--data", paths["data"], "--attn", paths["attn"], "--out", paths["gcn"],
                "--context-k", "1", *SGD]) == 0
    probe = load_dataset(paths["data"]).scenes[0].instances[0].instance_id
    return root, {**paths, "probe": probe}


def _tree(root):
    return {str(p.relative_to(root)): p.stat().st_size for p in root.rglob("*")}


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as e:  # the parser refuses a value it cannot convert
        return e.code


@FUZZ
@given(data=st.data())
def test_one_option_at_an_edge_value(workspace, data):
    root, paths = workspace
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    base, options = COMMANDS[command]
    option = data.draw(st.sampled_from(options))
    value = data.draw(st.sampled_from(EDGE_VALUES + (SIZES_VALUES if option == "--sizes" else [])))
    outputs = {flag: root / "new" / "sub" / flag.strip("-") for flag in OUTPUTS.get(command, ["--out"])}
    argv = [command, *(a.format(**paths) for a in base), option, value,
            *(a for flag, path in outputs.items() for a in (flag, str(path)))]
    before = _tree(root)
    try:
        code = _exit_code(argv)
        assert code in (0, 2, 3, 4)
        if code == 2:
            assert _tree(root) == before
        if code == 0 and command == "gen":
            assert _exit_code(["eval", "--data", str(outputs["--out"]), "--scorer", "uniform",
                               "--gallery-size", "1", "--max-queries", "3"]) == 0
    finally:
        shutil.rmtree(root / "new", ignore_errors=True)
