"""Command-line pipeline: generate, train, evaluate, export.

A run is described by a flat key=value config (file and/or flags; flags win)
that resolves into one ``RunConfig``. Every artifact a command writes is
deterministic for a fixed seed: no timestamps, no absolute paths, stable key
order, and 17-significant-digit floats.

Exit codes: 0 success, 2 usage, 3 sampling failure, 4 data/config error,
5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from .analysis import (
    build_distance_map,
    build_encoding_report,
    build_heatmaps,
    cluster_separation_ratio,
    heatmap_csv_text,
    heatmap_pgm_bytes,
    report_json_dict,
)
from .datagen import (
    JOINT_NAMES,
    ChainSpec,
    NormalizationParams,
    SamplingError,
    apply_normalization,
    fit_normalization,
    load_csv,
    save_csv,
    synthesize_self_touch,
)
from .fileio import ParseError, atomic_write_bytes, atomic_write_text, dump_json, format_float
from .lattice import LatticeSpec
from .mrf import (
    BODY_GROUPS,
    MrfConfig,
    ReceptiveFieldMask,
    default_quadrant_mask,
    load_mask,
    masked_quantization_error,
    masked_topographic_error,
    mrf_train,
)
from .som import Codebook, TrainSchedule, init_codebook, quantization_error, topographic_error, train

MODES = ("som", "mrf")

DEFAULT_MASK = "default"
SYNTH_PREFIX = "synthesize:"


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on, resolved and validated."""

    mode: str = "mrf"
    seed: int = 0
    out: str = ""
    dataset: str = ""
    mask: str = DEFAULT_MASK
    n: int = 3216
    max_attempts: int | None = None
    combination_threshold: float = 0.25
    lattice: LatticeSpec = LatticeSpec()
    schedule: TrainSchedule = TrainSchedule()
    mrf_config: MrfConfig = MrfConfig()
    chain: ChainSpec = ChainSpec()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_vector(text: str, length: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != length:
        raise ValueError(f"expected {length} comma-separated values, got {len(parts)}")
    return tuple(_parse_float(p) for p in parts)


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; ``#`` comments and blank lines ignored."""
    flat: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError(f"{path}: line {lineno}: empty key")
            if key in flat:
                raise ParseError(f"{path}: line {lineno}: duplicate key {key!r}")
            flat[key] = value
    return flat


def _format_vector(values) -> str:
    return ",".join(format_float(v) for v in values)


# (parser, formatter) pairs shared by the table rows
_INT = (int, str)
_FLOAT = (_parse_float, format_float)
_STR = (str, str)
_VECTOR3 = (lambda text: _parse_vector(text, 3), _format_vector)
_LIMITS = (lambda text: _parse_vector(text, 2), _format_vector)
_AXES = (lambda text: tuple(text.split(",")), ",".join)
_ATTEMPTS = (lambda text: None if text == "auto" else int(text),
             lambda value: "auto" if value is None else str(value))

_ALL = ("generate", "train", "evaluate", "export")
_GEN = ("generate",)
_TRAIN = ("train",)

# flat-key parts that name a RunConfig attribute differently
_ATTRS = {"mrf": "mrf_config", "axes": "joint_axes", "limit": "joint_limits"}


@dataclass(frozen=True)
class Field:
    """One flat config key: its parser and formatter, the subcommands that
    give it a dedicated ``--<flag>`` option, and its help text."""

    key: str
    parse: Callable[[str], object]
    format: Callable[[object], str]
    commands: tuple[str, ...]
    help: str

    @property
    def flag(self) -> str:
        return self.key.rpartition(".")[2]

    @property
    def path(self) -> tuple:
        """Attribute path inside RunConfig; a joint name indexes ``joint_limits``."""
        return tuple(
            JOINT_NAMES.index(part) if part in JOINT_NAMES else _ATTRS.get(part, part)
            for part in self.key.split(".")
        )


# Every config key, in manifest order. Parsing, the run_config manifest, the
# subcommand flags and their help are all derived from this table.
# fmt: off
FIELDS = (
    Field("mode", *_STR, _TRAIN, "map variant to train: som (unrestricted) or mrf (masked)"),
    Field("seed", *_INT, _ALL, "run seed; drives sampling, weight init, and shuffling"),
    Field("out", *_STR, _ALL, "output directory (created if missing)"),
    Field("dataset", *_STR, _TRAIN, "dataset CSV path, or synthesize:<n> to sample in-memory"),
    Field("mask", *_STR, _TRAIN, f"receptive-field mask file, or '{DEFAULT_MASK}' for the "
          "built-in 4x4 quadrant mask over the 7 joints"),
    Field("n", *_INT, _GEN, "number of samples to generate"),
    Field("max_attempts", *_ATTEMPTS, _GEN, "cap on sampling attempts ('auto' = 20000 per row)"),
    Field("combination_threshold", *_FLOAT, _TRAIN,
          "relative |weight| cutoff for combination coding"),
    Field("lattice.rows", *_INT, _TRAIN, "lattice rows"),
    Field("lattice.cols", *_INT, _TRAIN, "lattice cols"),
    Field("lattice.layout", *_STR, _TRAIN, "lattice layout: hex-offset or rectangular"),
    Field("lattice.metric", *_STR, _TRAIN, "lattice distance: manhattan or hex-axial"),
    Field("schedule.epochs", *_INT, _TRAIN, "training epochs"),
    Field("schedule.alpha0", *_FLOAT, _TRAIN, "initial learning rate"),
    Field("schedule.alpha_end", *_FLOAT, _TRAIN, "final learning rate"),
    Field("schedule.sigma0", *_FLOAT, _TRAIN, "initial neighborhood radius"),
    Field("schedule.sigma_end", *_FLOAT, _TRAIN, "final neighborhood radius"),
    Field("schedule.decay", *_STR, _TRAIN, "schedule decay: exponential or linear"),
    Field("mrf.bmu_scope", *_STR, _TRAIN, "winner search: global-masked or per-group"),
    Field("mrf.distance_normalization", *_STR, _TRAIN,
          "masked distance scaling: rms-per-active-dim or unnormalized"),
    Field("chain.shoulder_offset", *_VECTOR3, _GEN,
          "shoulder position in torso frame, 'x,y,z' (m)"),
    Field("chain.upper_arm", *_FLOAT, _GEN, "upper-arm link length (m)"),
    Field("chain.forearm_hand", *_FLOAT, _GEN, "forearm+hand link length (m)"),
    Field("chain.face_target", *_VECTOR3, _GEN, "face target in head frame, 'x,y,z' (m)"),
    Field("chain.touch_radius", *_FLOAT, _GEN, "touch acceptance radius (m)"),
    Field("chain.axes", *_AXES, (), "rotation axis (x, y or z) of each joint, comma-separated"),
    *(Field(f"chain.limit.{name}", *_LIMITS, (), f"{name} angle limits 'lo,hi' (rad)")
      for name in JOINT_NAMES),
)
# fmt: on


def _assemble(default, tree):
    """Rebuild ``default``'s type from parsed values nested by attribute path;
    an index-keyed level becomes a tuple (insertion order is index order)."""
    if not isinstance(tree, dict):
        return tree
    if not is_dataclass(default):
        return tuple(tree.values())
    return type(default)(**{k: _assemble(getattr(default, k), v) for k, v in tree.items()})


def build_run_config(flat: dict[str, str]) -> RunConfig:
    """Typed RunConfig from a merged flat key=value mapping."""
    merged = dict(_DEFAULTS)
    for key, value in flat.items():
        if key not in merged:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = value
    try:
        tree: dict = {}
        for field in FIELDS:
            *parents, leaf = field.path
            node = tree
            for step in parents:
                node = node.setdefault(step, {})
            node[leaf] = field.parse(merged[field.key])
        # the schedule shuffles with the run seed
        tree["schedule"]["seed"] = tree["seed"]
        return _assemble(RunConfig(), tree)
    except ValueError as exc:
        raise ValueError(f"invalid configuration: {exc}") from None


def _lookup(obj, path: tuple):
    for step in path:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def run_config_items(cfg: RunConfig) -> dict[str, str]:
    """Canonical flat view of a RunConfig (the reproducibility manifest)."""
    return {field.key: field.format(_lookup(cfg, field.path)) for field in FIELDS}


_DEFAULTS = run_config_items(RunConfig())


@dataclass
class Model:
    """A trained map plus everything needed to reuse it."""

    mode: str
    codebook: Codebook
    mask: ReceptiveFieldMask | None
    mrf_config: MrfConfig
    normalization: NormalizationParams
    schedule: TrainSchedule
    joints: tuple[str, ...]
    run_config: dict[str, str]


def _mask_to_dict(mask: ReceptiveFieldMask | None):
    if mask is None:
        return None
    return {
        "rows": mask.rows,
        "cols": mask.cols,
        "mask": [[int(v) for v in row] for row in mask.mask],
        "groups": list(mask.groups) if mask.groups is not None else None,
    }


def model_to_dict(model: Model) -> dict:
    return {
        "format": "rfsom-model",
        "version": 1,
        "mode": model.mode,
        "joints": list(model.joints),
        "lattice": asdict(model.codebook.lattice),
        "mrf_config": asdict(model.mrf_config),
        "schedule": asdict(model.schedule),
        "normalization": {
            "mean": [float(v) for v in model.normalization.mean],
            "std": [float(v) for v in model.normalization.std],
        },
        "mask": _mask_to_dict(model.mask),
        "codebook": [[float(v) for v in row] for row in model.codebook.weights],
        "run_config": model.run_config,
    }


def save_model(model: Model, path) -> None:
    atomic_write_text(path, dump_json(model_to_dict(model)))


# JSON types accepted for each scalar type of a model block field
_JSON_KINDS = {int: int, float: (int, float), str: str}


def _expect(doc: dict, key: str, kinds, path) -> object:
    if key not in doc:
        raise ParseError(f"{path}: missing key {key!r}")
    value = doc[key]
    # bool is an int subclass; no model field is boolean
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ParseError(f"{path}: key {key!r} has unexpected type {type(value).__name__}")
    return value


def _read_block(doc: dict, key: str, cls, path):
    """Strict reader for a block that ``model_to_dict`` wrote with ``asdict``."""
    block = _expect(doc, key, dict, path)
    where = f"{path}: {key}"
    unknown = sorted(block.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r}")
    kinds = {f.name: type(f.default) for f in fields(cls)}
    values = {name: _expect(block, name, _JSON_KINDS[kind], where) for name, kind in kinds.items()}
    try:
        return cls(**{name: kinds[name](value) for name, value in values.items()})
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def _read_mask(doc: dict, path) -> ReceptiveFieldMask | None:
    raw = _expect(doc, "mask", (dict, type(None)), path)
    if raw is None:
        return None
    where = f"{path}: mask"
    groups = raw.get("groups")
    return ReceptiveFieldMask(
        rows=_expect(raw, "rows", int, where),
        cols=_expect(raw, "cols", int, where),
        mask=np.array(raw["mask"]),
        groups=tuple(str(g) for g in groups) if groups is not None else None,
    )


def _read_model(path) -> tuple[Model, RunConfig]:
    """Strict reader for the model JSON, plus its run_config resolved through
    the config table; malformed or inconsistent content raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model document must be a JSON object")
    if doc.get("format") != "rfsom-model":
        raise ParseError(f"{path}: not a model file (format={doc.get('format')!r})")
    if doc.get("version") != 1:
        raise ParseError(f"{path}: unsupported model version {doc.get('version')!r}")
    mode = _expect(doc, "mode", str, path)
    if mode not in MODES:
        raise ParseError(f"{path}: unknown mode {mode!r}")
    joints = tuple(str(j) for j in _expect(doc, "joints", list, path))
    lattice = _read_block(doc, "lattice", LatticeSpec, path)
    schedule = _read_block(doc, "schedule", TrainSchedule, path)
    norm = _expect(doc, "normalization", dict, path)
    mrf_config = _read_block(doc, "mrf_config", MrfConfig, path)
    weights = _expect(doc, "codebook", list, path)
    run_config = _expect(doc, "run_config", dict, path)
    for key in run_config:
        _expect(run_config, key, str, f"{path}: run_config")
    try:
        cfg = build_run_config(run_config)
    except ValueError as exc:
        raise ParseError(f"{path}: run_config: {exc}") from None
    stored = {"mode": mode, "lattice": lattice, "schedule": schedule, "mrf_config": mrf_config}
    for name, value in stored.items():
        if getattr(cfg, name) != value:
            raise ParseError(f"{path}: run_config disagrees with the {name!r} field")
    try:
        normalization = NormalizationParams(
            np.array(norm["mean"], dtype=np.float64),
            np.array(norm["std"], dtype=np.float64),
        )
        codebook = Codebook(np.array(weights, dtype=np.float64), lattice)
        mask = _read_mask(doc, path)
        if mask is not None:
            _check_mask_fits(mask, lattice, codebook.dims)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model: {exc}") from None
    if len(joints) != codebook.dims:
        raise ParseError(f"{path}: {len(joints)} joint names for {codebook.dims} dims")
    model = Model(mode, codebook, mask, mrf_config, normalization, schedule, joints, run_config)
    return model, cfg


def load_model(path) -> Model:
    """Strict reader for the model JSON; malformed content raises ParseError."""
    return _read_model(path)[0]


def _check_mask_fits(mask: ReceptiveFieldMask, lattice: LatticeSpec, dims: int) -> None:
    grid = f"{lattice.rows}x{lattice.cols}"
    if mask.mask.shape != (lattice.n_neurons, dims):
        raise ValueError(f"mask shape {mask.mask.shape} does not fit {grid} lattice, {dims} dims")
    if (mask.rows, mask.cols) != (lattice.rows, lattice.cols):
        raise ValueError(f"mask grid {mask.rows}x{mask.cols} does not match lattice {grid}")


def _resolve_mask(cfg: RunConfig, dims: int) -> ReceptiveFieldMask:
    if cfg.mask == DEFAULT_MASK:
        mask = default_quadrant_mask()
    else:
        if not os.path.exists(cfg.mask):
            raise ValueError(f"mask file does not exist: {cfg.mask}")
        mask = load_mask(cfg.mask)
    _check_mask_fits(mask, cfg.lattice, dims)
    return mask


def _load_dataset(cfg: RunConfig) -> np.ndarray:
    source = cfg.dataset
    if not source:
        raise ValueError("no dataset configured (path or synthesize:<n>)")
    if source.startswith(SYNTH_PREFIX):
        n = int(source[len(SYNTH_PREFIX) :])
        return synthesize_self_touch(cfg.chain, n, cfg.seed, cfg.max_attempts).data
    if not os.path.exists(source):
        raise ValueError(f"dataset file does not exist: {source}")
    return load_csv(source)


def _ensure_out(cfg: RunConfig) -> str:
    if not cfg.out:
        raise ValueError("no output directory configured (out=<dir>)")
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def cmd_generate(cfg: RunConfig) -> int:
    """Sample self-touch configurations; write dataset.csv and a manifest."""
    result = synthesize_self_touch(cfg.chain, cfg.n, cfg.seed, cfg.max_attempts)
    out = _ensure_out(cfg)
    save_csv(result.data, os.path.join(out, "dataset.csv"))
    manifest = {
        "format": "rfsom-generate-manifest",
        "version": 1,
        "n": cfg.n,
        "seed": cfg.seed,
        "attempts": result.attempts,
        "acceptance_rate": result.acceptance_rate,
        "dataset": "dataset.csv",
        "chain": asdict(cfg.chain),
    }
    atomic_write_text(os.path.join(out, "generate_manifest.json"), dump_json(manifest))
    print(
        f"generated {cfg.n} samples in {result.attempts} attempts "
        f"(acceptance rate {result.acceptance_rate:.3e}) -> {out}/dataset.csv"
    )
    return 0


def cmd_train(cfg: RunConfig) -> int:
    """Normalize the dataset, train the configured map, write model + log."""
    raw = _load_dataset(cfg)
    if raw.shape[0] < 2:
        raise ValueError(f"training needs at least 2 samples, got {raw.shape[0]}")
    dims = raw.shape[1]
    mask = _resolve_mask(cfg, dims) if cfg.mode == "mrf" else None
    normalization = fit_normalization(raw)
    data = apply_normalization(raw, normalization)
    codebook = init_codebook(cfg.lattice, dims, cfg.seed)
    if cfg.mode == "mrf":
        trained, log = mrf_train(codebook, data, mask, cfg.schedule, cfg.mrf_config)
    else:
        trained, log = train(codebook, data, cfg.schedule)
    out = _ensure_out(cfg)
    joints = JOINT_NAMES if dims == len(JOINT_NAMES) else tuple(f"dim_{j}" for j in range(dims))
    model = Model(
        mode=cfg.mode,
        codebook=trained,
        mask=mask,
        mrf_config=cfg.mrf_config,
        normalization=normalization,
        schedule=cfg.schedule,
        joints=joints,
        run_config=run_config_items(cfg),
    )
    save_model(model, os.path.join(out, "model.json"))
    lines = ["epoch,quantization_error,topographic_error"]
    for epoch, (qe, te) in enumerate(
        zip(log.quantization_errors, log.topographic_errors), start=1
    ):
        lines.append(f"{epoch},{format_float(qe)},{format_float(te)}")
    atomic_write_text(os.path.join(out, "train_log.csv"), "\n".join(lines) + "\n")
    final = log.quantization_errors[-1] if log.quantization_errors else float("nan")
    print(
        f"trained {cfg.mode} map ({cfg.lattice.rows}x{cfg.lattice.cols}, "
        f"{cfg.schedule.epochs} epochs, final QE {final:.6g}) -> {out}/model.json"
    )
    return 0


def _model_metrics(model: Model, data: np.ndarray) -> tuple[float, float]:
    codebook = model.codebook
    if model.mode == "mrf" and model.mask is not None:
        qe = masked_quantization_error(codebook, data, model.mask, model.mrf_config)
        te = masked_topographic_error(codebook, data, model.mask, model.mrf_config)
    else:
        qe = quantization_error(codebook, data)
        te = topographic_error(codebook, data)
    return qe, te


def _separation_ratio(model: Model, threshold: float) -> float | None:
    if model.mask is None or model.mask.groups is None:
        return None
    if any(g not in model.mask.group_order() for g in BODY_GROUPS):
        return None
    report = build_encoding_report(model.codebook, model.mask, threshold)
    return cluster_separation_ratio(report)


def cmd_evaluate(cfg: RunConfig, model_path: str, dataset_path: str) -> int:
    """Score a model on a dataset; write metrics.json."""
    if not os.path.exists(model_path):
        raise ValueError(f"model file does not exist: {model_path}")
    model, trained = _read_model(model_path)
    raw = _load_dataset(replace(cfg, dataset=dataset_path))
    if raw.shape[1] != model.codebook.dims:
        raise ValueError(
            f"dataset has {raw.shape[1]} columns, model expects {model.codebook.dims}"
        )
    data = apply_normalization(raw, model.normalization)
    qe, te = _model_metrics(model, data)
    ratio = _separation_ratio(model, trained.combination_threshold)
    out = _ensure_out(cfg)
    metrics = {
        "format": "rfsom-metrics",
        "version": 1,
        "n_samples": int(raw.shape[0]),
        "quantization_error": qe,
        "topographic_error": te,
        "cluster_separation_ratio": ratio,
        "cluster_separation_reference": 0.5,
    }
    atomic_write_text(os.path.join(out, "metrics.json"), dump_json(metrics))
    print(f"quantization_error {qe:.6g}, topographic_error {te:.6g} -> {out}/metrics.json")
    return 0


def cmd_export(cfg: RunConfig, model_path: str) -> int:
    """Write heatmap CSV/PGM sets and the distance-map + encoding report."""
    if not os.path.exists(model_path):
        raise ValueError(f"model file does not exist: {model_path}")
    model, trained = _read_model(model_path)
    mask = model.mask
    if mask is None:
        # unrestricted map: analysis runs over an all-true field, no groups
        mask = ReceptiveFieldMask(
            model.codebook.lattice.rows,
            model.codebook.lattice.cols,
            np.ones_like(model.codebook.weights, dtype=bool),
        )
    heatmaps = build_heatmaps(model.codebook, mask)
    dmap = build_distance_map(model.codebook, mask)
    report = build_encoding_report(model.codebook, mask, trained.combination_threshold)
    ratio = _separation_ratio(model, trained.combination_threshold)
    out = _ensure_out(cfg)
    for j, joint in enumerate(heatmaps.joints):
        grid = heatmaps.grids[j]
        connected = heatmaps.connected[j]
        atomic_write_text(
            os.path.join(out, f"heatmap_{joint}.csv"), heatmap_csv_text(grid, connected)
        )
        image, sidecar = heatmap_pgm_bytes(grid, connected)
        atomic_write_bytes(os.path.join(out, f"heatmap_{joint}.pgm"), image)
        atomic_write_bytes(os.path.join(out, f"heatmap_{joint}.mask.pgm"), sidecar)
    doc = {"format": "rfsom-report", "version": 1}
    doc.update(report_json_dict(report, dmap))
    doc["cluster_separation_ratio"] = ratio
    doc["cluster_separation_reference"] = 0.5
    atomic_write_text(os.path.join(out, "report.json"), dump_json(doc))
    print(f"exported {len(heatmaps.joints)} heatmap sets and report.json -> {out}")
    return 0


def _merge_config(args: argparse.Namespace) -> RunConfig:
    flat: dict[str, str] = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ValueError(f"config file does not exist: {args.config}")
        flat.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        flat[key.strip()] = value.strip()
    for field in FIELDS:
        value = getattr(args, field.flag, None)
        if args.command in field.commands and value is not None:
            flat[field.key] = value
    return build_run_config(flat)


# subcommand -> (handler, help, required path options passed to the handler after cfg)
_COMMANDS = {
    "generate": (cmd_generate, "sample self-touch configurations to CSV", ()),
    "train": (cmd_train, "train a map on a dataset", ()),
    "evaluate": (cmd_evaluate, "score a trained model on a dataset", ("model", "dataset_path")),
    "export": (cmd_export, "write heatmaps, distance map, and report", ("model",)),
}
_PATH_HELP = {"model": "trained model.json", "dataset_path": "dataset CSV"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfsom",
        description=(
            "Self-organizing map with restricted receptive fields on synthetic "
            "self-touch joint data. Defaults: 4x4 hexagonal lattice, 7 joint "
            "angles, built-in overlapping quadrant mask."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (func, help_text, paths) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file (flags override file values)")
        p.add_argument(
            "--set",
            action="append",
            metavar="K=V",
            help="override any config key, e.g. --set chain.limit.wrist=-1.0,1.0 (repeatable)",
        )
        for option in paths:
            p.add_argument("--" + option.replace("_", "-"), required=True, help=_PATH_HELP[option])
        for field in FIELDS:
            if name in field.commands:
                p.add_argument(
                    "--" + field.flag.replace("_", "-"),
                    metavar="V",
                    help=f"{field.help} (default: {_DEFAULTS[field.key] or 'none'})",
                )
        p.set_defaults(func=func, paths=paths)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        return args.func(cfg, *(getattr(args, option) for option in args.paths))
    except (SamplingError, ValueError, OSError) as exc:
        # ParseError is a ValueError: malformed files share the config-error code
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SamplingError) else 4 if isinstance(exc, ValueError) else 5


def run() -> None:
    sys.exit(main())
