"""Fuzzing of the two loaders: whatever the input, only RerankError escapes.

Derandomized and bounded, so the examples are the same on every run and
the module takes seconds.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from context_rerank.attention import init_attention_params
from context_rerank.autodiff import load_checkpoint, save_checkpoint
from context_rerank.dataio import SynthConfig, generate_synthetic, load_dataset, save_dataset
from context_rerank.errors import RerankError
from fuzzing import FUZZ

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def dataset_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ds.jsonl"
    cfg = SynthConfig(num_identities=6, num_cameras=2, scenes_per_camera=3, instances_per_scene=3, dim=2)
    save_dataset(generate_synthetic(cfg), path)
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "attn.ckpt"
    save_checkpoint(path, init_attention_params(np.random.default_rng(0), 2, hidden=1).to_entries())
    return path.read_bytes()


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(data, rec):
    """Replace, delete or edit (strings: one character) one position of ``rec``."""
    path = data.draw(st.sampled_from(list(_paths(rec))))
    if not path:
        return data.draw(JSON_VALUES)
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    action = data.draw(st.sampled_from(["replace", "delete", "edit"]))
    if action == "delete":
        del parent[key]
    elif action == "edit" and isinstance(old, str) and old:
        at = data.draw(st.integers(0, len(old) - 1))
        parent[key] = old[:at] + data.draw(st.characters()) + old[at + 1:]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return rec


def _damage(data, blob: bytes) -> bytes:
    """``blob`` cut short (or not), then with up to three bytes flipped."""
    blob = bytearray(blob[: data.draw(st.none() | st.integers(0, len(blob)))])
    for _ in range(data.draw(st.integers(0, 3)) if blob else 0):
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    return bytes(blob)


@FUZZ
@given(data=st.data())
def test_load_dataset_on_mutated_records(tmp_path, dataset_lines, data):
    lines = list(dataset_lines)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = json.dumps(_mutate(data, json.loads(lines[at])))
    path = tmp_path / "mutated.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with contextlib.suppress(RerankError):
        load_dataset(path)


@FUZZ
@given(data=st.data())
def test_load_dataset_on_cut_and_flipped_bytes(tmp_path, dataset_lines, data):
    path = tmp_path / "damaged.jsonl"
    path.write_bytes(_damage(data, ("\n".join(dataset_lines) + "\n").encode()))
    with contextlib.suppress(RerankError):
        load_dataset(path)


@FUZZ
@given(data=st.data())
def test_load_checkpoint_on_cut_and_flipped_bytes(tmp_path, checkpoint_bytes, data):
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(_damage(data, checkpoint_bytes))
    with contextlib.suppress(RerankError):
        load_checkpoint(path)
