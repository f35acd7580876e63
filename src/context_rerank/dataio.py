"""Dataset file format, validation, and the synthetic scene generator.

The on-disk format is line-delimited JSON: a header record carrying the
format version and embedding dimensions, then one scene per line with part
vectors hex-encoded as little-endian float64. Encoding is canonicalized
(sorted keys, no whitespace) so identical datasets are identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import Instance, PartEmbedding, R_PARTS, Scene, labeled_pairs
from .errors import ConfigError, DataError

FORMAT_VERSION = 1


@dataclass(frozen=True)
class DatasetManifest:
    format_version: int
    d: int
    r: int = R_PARTS

    def __post_init__(self):
        if self.r != R_PARTS:
            raise DataError(f"dataset declares R={self.r}, this pipeline requires R={R_PARTS}")
        if self.d < 2:
            raise DataError(f"embedding dimension must be >= 2, got {self.d}")


@dataclass(frozen=True)
class Dataset:
    d: int
    scenes: tuple


def _encode_parts(parts: np.ndarray) -> str:
    return np.ascontiguousarray(parts, dtype="<f8").tobytes().hex()


def _decode_parts(blob: str, d: int, where: str) -> np.ndarray:
    try:
        raw = bytes.fromhex(blob)
    except ValueError as e:
        raise DataError(f"{where}: part vector blob is not hex: {e}") from e
    expected = R_PARTS * d * 8
    if len(raw) != expected:
        raise DataError(f"{where}: part vector blob has {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype="<f8").reshape(R_PARTS, d).astype(np.float64)


def _field(rec, key: str, types, where: str):
    """``rec[key]``, checked to be one of ``types`` (never a bool); anything
    else is a DataError naming ``where``."""
    if not isinstance(rec, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(rec).__name__}")
    if key not in rec:
        raise DataError(f"{where}: missing key {key!r}")
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise DataError(f"{where}: {key!r} has the wrong type ({type(value).__name__}): {value!r}")
    return value


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_dataset(dataset: Dataset, path):
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump({"format_version": FORMAT_VERSION, "d": dataset.d, "r": R_PARTS}) + "\n")
        for scene in dataset.scenes:
            record = {
                "scene_id": scene.scene_id,
                "camera_id": scene.camera_id,
                "instances": [
                    {
                        "instance_id": i.instance_id,
                        "box": list(i.box),
                        "identity": i.identity,
                        "parts": _encode_parts(i.embedding.parts),
                    }
                    for i in scene.instances
                ],
            }
            f.write(_dump(record) + "\n")


def load_dataset(path) -> Dataset:
    """Read a dataset file. Any malformed line is a DataError naming
    ``file:line``."""
    path = Path(path)
    scenes = []
    seen_instance_ids = set()
    seen_scene_ids = set()
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not utf-8 text: {e.reason}") from e
    if not lines:
        raise DataError(f"{path}: empty file (missing header record)")

    def parse(line_no, text):
        try:
            return json.loads(text)
        except (ValueError, RecursionError) as e:
            raise DataError(f"{path}:{line_no}: parse error: {e}") from e

    header, where = parse(1, lines[0]), f"{path}:1"
    version = _field(header, "format_version", int, where)
    if version != FORMAT_VERSION:
        raise DataError(f"{where}: unsupported format_version {version}")
    try:
        manifest = DatasetManifest(version, d=_field(header, "d", int, where),
                                   r=_field(header, "r", int, where) if "r" in header else R_PARTS)
    except DataError as e:
        raise DataError(f"{where}: {e}") from e

    for line_no, text in enumerate(lines[1:], start=2):
        if not text.strip():
            continue
        rec, where = parse(line_no, text), f"{path}:{line_no}"
        scene_id = _field(rec, "scene_id", str, where)
        if scene_id in seen_scene_ids:
            raise DataError(f"{where}: duplicate scene_id {scene_id!r}")
        seen_scene_ids.add(scene_id)
        camera_id = _field(rec, "camera_id", str, where)
        instances = []
        for irec in _field(rec, "instances", list, where):
            iid = _field(irec, "instance_id", str, where)
            if iid in seen_instance_ids:
                raise DataError(f"{where}: duplicate instance_id {iid!r}")
            seen_instance_ids.add(iid)
            box = _field(irec, "box", list, where)
            if len(box) != 4 or not all(
                isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and math.isfinite(v)
                for v in box
            ):
                raise DataError(f"{where}: instance {iid}: box must be 4 finite numbers, got {box!r}")
            identity = _field(irec, "identity", (int, type(None)), where)
            parts = _decode_parts(_field(irec, "parts", str, where), manifest.d, where)
            emb = PartEmbedding.from_array(parts, context=f" of instance {iid} ({where})")
            try:
                instances.append(Instance(iid, scene_id, tuple(box), identity, emb))
            except DataError as e:
                raise DataError(f"{where}: {e}") from e
        scenes.append(Scene(scene_id=scene_id, camera_id=camera_id, instances=tuple(instances)))
    return Dataset(d=manifest.d, scenes=tuple(scenes))


# -- synthetic generator -------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the desk-scale synthetic person-search benchmark.

    Identities come in lookalike appearance clusters (hard negatives) and
    travel in groups: a group seen by camera c moves on to the next camera
    with ``co_travel_prob``, so cross-camera positives carry co-traveler
    context. Occluded parts are resampled near shared occluder directions.
    """

    num_identities: int = 200
    num_cameras: int = 6
    scenes_per_camera: int = 60
    instances_per_scene: int = 6  # soft cap per scene
    group_size_mean: float = 3.0
    co_travel_prob: float = 0.8
    view_noise_sigma: float = 0.35
    part_dropout_prob: float = 0.25
    seed: int = 42
    dim: int = 64
    lookalike_group: int = 5
    lookalike_overlap: float = 0.97

    def __post_init__(self):
        for name, v in vars(self).items():
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        for name in ("num_identities", "num_cameras", "scenes_per_camera", "instances_per_scene", "lookalike_group"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("co_travel_prob", "part_dropout_prob", "lookalike_overlap"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if not 0 <= self.view_noise_sigma <= 1e150:  # a larger sigma overflows a noisy part's squared norm
            raise ConfigError(f"view_noise_sigma must be in [0, 1e150], got {self.view_noise_sigma}")
        if self.group_size_mean < 1:
            raise ConfigError(f"group_size_mean must be >= 1, got {self.group_size_mean}")
        if self.instances_per_scene > self.num_identities:
            raise ConfigError(
                f"instances_per_scene ({self.instances_per_scene}) cannot exceed "
                f"num_identities ({self.num_identities})"
            )
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _random_unit(rng, d):
    return _unit(rng.normal(size=d))


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset per the travel-group model above."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim

    # identity prototypes, clustered so lookalikes exist
    n_clusters = math.ceil(cfg.num_identities / cfg.lookalike_group)
    centers = np.stack([[_random_unit(rng, d) for _ in range(R_PARTS)] for _ in range(n_clusters)])
    rho = cfg.lookalike_overlap
    protos = np.empty((cfg.num_identities, R_PARTS, d))
    for ident in range(cfg.num_identities):
        c = ident // cfg.lookalike_group
        for r in range(R_PARTS):
            protos[ident, r] = _unit(
                math.sqrt(rho) * centers[c, r] + math.sqrt(1.0 - rho) * _random_unit(rng, d)
            )

    # shared occluder directions per non-whole part
    occluders = np.stack([_random_unit(rng, d) for _ in range(R_PARTS)])

    # travel groups
    order = rng.permutation(cfg.num_identities)
    groups = []
    # a mean of >= 2 promises every traveler a companion (true context exists)
    min_size = 2 if cfg.group_size_mean >= 2 else 1
    i = 0
    while i < len(order):
        size = max(min_size, int(round(rng.normal(cfg.group_size_mean, 1.0))))
        groups.append(list(order[i : i + size]))
        i += size
    if len(groups) > 1 and len(groups[-1]) < min_size:
        groups[-2].extend(groups.pop())

    # group routes over neighboring cameras
    scene_members = [
        [[] for _ in range(cfg.scenes_per_camera)] for _ in range(cfg.num_cameras)
    ]
    for group in groups:
        cam = int(rng.integers(cfg.num_cameras))
        for _visit in range(cfg.num_cameras):
            start = int(rng.integers(cfg.scenes_per_camera))
            slot = start
            for probe in range(cfg.scenes_per_camera):  # prefer scenes with room
                slot = (start + probe) % cfg.scenes_per_camera
                if len(scene_members[cam][slot]) + len(group) <= cfg.instances_per_scene:
                    break
            scene_members[cam][slot].extend(group)
            if rng.random() >= cfg.co_travel_prob:
                break
            cam = (cam + 1) % cfg.num_cameras

    noise_std = cfg.view_noise_sigma / math.sqrt(d)
    scenes = []
    for cam in range(cfg.num_cameras):
        for slot in range(cfg.scenes_per_camera):
            members = scene_members[cam][slot]
            if not members:
                continue
            scene_id = f"s{cam:02d}_{slot:03d}"
            instances = []
            for n, ident in enumerate(members):
                parts = np.empty((R_PARTS, d))
                for r in range(R_PARTS):
                    parts[r] = _unit(protos[ident, r] + rng.normal(0.0, noise_std, size=d))
                if rng.random() < cfg.part_dropout_prob:
                    r_bad = int(rng.integers(1, R_PARTS))
                    parts[r_bad] = _unit(
                        math.sqrt(rho) * occluders[r_bad]
                        + math.sqrt(1.0 - rho) * _random_unit(rng, d)
                    )
                instances.append(
                    Instance(
                        instance_id=f"{scene_id}_i{n:02d}",
                        scene_id=scene_id,
                        box=(10.0 + 70.0 * n, 10.0, 60.0, 120.0),
                        identity=int(ident),
                        embedding=PartEmbedding.from_array(parts),
                    )
                )
            scenes.append(Scene(scene_id=scene_id, camera_id=f"cam{cam:02d}", instances=tuple(instances)))
    return Dataset(d=d, scenes=tuple(scenes))


def validate(dataset: Dataset) -> dict:
    """Report-only structural statistics and warnings; the positive pairs
    are those of ``labeled_pairs``."""
    labeled, pairs = labeled_pairs(dataset.scenes)
    scene_of = {s.scene_id: s for s in dataset.scenes}
    cross_camera_positive_pairs = graph_trainable_pairs = 0
    for a, b in pairs:
        sa, sb = scene_of[a.scene_id], scene_of[b.scene_id]
        cross_camera_positive_pairs += sa.camera_id != sb.camera_id
        graph_trainable_pairs += len(sa.instances) > 1 and len(sb.instances) > 1

    warnings = []
    if not pairs:
        warnings.append("no positive pair: no identity appears in two scenes, so no query can be evaluated")
    elif graph_trainable_pairs == 0:
        warnings.append("zero graph-trainable pairs: every positive pair involves a singleton scene")
    return {
        "num_scenes": len(dataset.scenes),
        "num_instances": sum(len(s.instances) for s in dataset.scenes),
        "num_identities": len({i.identity for i in labeled}),
        "singleton_scenes": sum(len(s.instances) == 1 for s in dataset.scenes),
        "positive_pairs": len(pairs),
        "cross_camera_positive_pairs": cross_camera_positive_pairs,
        "graph_trainable_pairs": graph_trainable_pairs,
        "warnings": warnings,
    }
