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
from dataclasses import asdict, dataclass, field as dataclass_field, is_dataclass

import numpy as np

from .analysis import (
    CLUSTER_SEPARATION_REFERENCE,
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
    joint_names,
    load_csv,
    save_csv,
    synthesize_self_touch,
)
from .fileio import (
    ParseError, atomic_write_bytes, atomic_write_text, dump_json, format_float, read_lines,
)
from .lattice import LatticeSpec
from .mrf import (
    BODY_GROUPS,
    MrfConfig,
    ReceptiveFieldMask,
    _check_mask,
    default_quadrant_mask,
    load_mask,
    masked_quantization_error,
    masked_topographic_error,
    mrf_train,
)
from .som import Codebook, TrainSchedule, _as_masked, init_codebook, train

MODES = ("som", "mrf")

DEFAULT_MASK = "default"

# Largest map a run may configure. Training and scoring hold an N x N lattice
# table and n x N x dims distance buffers, so a mistyped lattice size would
# otherwise fail as a MemoryError deep inside a command.
MAX_NEURONS = 1024


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
        if not 0.0 < self.combination_threshold <= 1.0:
            raise ValueError(
                f"combination_threshold must be in (0, 1], got {self.combination_threshold}"
            )
        if self.lattice.n_neurons > MAX_NEURONS:
            raise ValueError(
                f"lattice.rows x lattice.cols = {self.lattice.rows}x{self.lattice.cols} is "
                f"{self.lattice.n_neurons} neurons, more than the limit of {MAX_NEURONS}"
            )


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
    for lineno, raw in enumerate(read_lines(path), start=1):
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
    Field("dataset", *_STR, _TRAIN, "dataset CSV path"),
    Field("mask", *_STR, _TRAIN, f"receptive-field mask file, or '{DEFAULT_MASK}' for the "
          "built-in 4x4 quadrant mask over the 7 joints"),
    Field("n", *_INT, _GEN, "number of samples to generate"),
    Field("max_attempts", *_ATTEMPTS, _GEN,
          "cap on sampling attempts ('auto' = max(100000, 20000*n))"),
    Field("combination_threshold", *_FLOAT, _TRAIN,
          "relative |weight| cutoff for combination coding"),
    Field("lattice.rows", *_INT, _TRAIN, "lattice rows"),
    Field("lattice.cols", *_INT, _TRAIN, "lattice cols"),
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
            text = merged[field.key]
            try:
                node[leaf] = field.parse(text)
            except ValueError as exc:
                raise ValueError(f"{field.key}={text!r}: {exc}") from None
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


@dataclass(frozen=True)
class Model:
    """A trained map plus everything needed to reuse it; immutable.

    ``save_model`` writes the codebook, mask, normalization and
    ``run_config``, which ``config`` holds resolved. The mode, masked
    configuration, schedule, lattice and joint names are read back from it
    and the codebook shape, so construction rejects a model that disagrees.
    """

    mode: str
    codebook: Codebook
    mask: ReceptiveFieldMask | None
    mrf_config: MrfConfig
    normalization: NormalizationParams
    schedule: TrainSchedule
    joints: tuple[str, ...]
    run_config: dict[str, str]
    config: RunConfig = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cfg = build_run_config(self.run_config)
        derived = {
            "mode": (self.mode, cfg.mode),
            "mrf_config": (self.mrf_config, cfg.mrf_config),
            "schedule": (self.schedule, cfg.schedule),
            "lattice": (self.codebook.lattice, cfg.lattice),
            "joints": (self.joints, joint_names(self.codebook.dims)),
        }
        for name, (got, want) in derived.items():
            if got != want:
                raise ValueError(f"model {name} {got!r} disagrees with run_config ({want!r})")
        if (self.mode == "mrf") != (self.mask is not None):
            wanted = "a mask" if self.mode == "mrf" else '"mask": null'
            raise ValueError(f"mode {self.mode!r} needs {wanted}")
        if self.mask is not None:
            _check_mask(self.mask, self.codebook)
        if self.normalization.mean.shape[0] != self.codebook.dims:
            raise ValueError(
                f"normalization has {self.normalization.mean.shape[0]} entries "
                f"for {self.codebook.dims} dims"
            )
        object.__setattr__(self, "config", cfg)


# the top-level keys of a model document, in file order
_MODEL_KEYS = ("format", "version", "normalization", "mask", "codebook", "run_config")


def save_model(model: Model, path) -> None:
    mask = model.mask
    doc = {
        "format": "rfsom-model",
        "version": 2,
        "normalization": {
            "mean": model.normalization.mean.tolist(),
            "std": model.normalization.std.tolist(),
        },
        "mask": None if mask is None else {
            "mask": mask.mask.astype(int).tolist(),
            "groups": mask.groups,
        },
        "codebook": model.codebook.weights.tolist(),
        # the resolved config, not the ``run_config`` dict a caller can mutate
        "run_config": run_config_items(model.config),
    }
    atomic_write_text(path, dump_json(doc))


def _expect(doc: dict, key: str, kinds, path) -> object:
    if key not in doc:
        raise ParseError(f"{path}: missing key {key!r}")
    value = doc[key]
    # bool is an int subclass; no model field is boolean
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ParseError(f"{path}: key {key!r} has unexpected type {type(value).__name__}")
    return value


def _check_keys(doc: dict, known, where) -> None:
    unknown = sorted(doc.keys() - set(known))
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r}")


# entries of the model's JSON arrays -> (exact JSON types, so a bool is never
# a number; the dtype they load as)
_ENTRIES = {
    "numbers": ((int, float), np.float64),
    "integers": ((int,), np.int64),
    "strings": ((str,), object),
}


def _array(doc: dict, key: str, entries: str, ndim: int, where) -> np.ndarray:
    """A rectangular ``ndim``-deep JSON array whose every entry is one of ``entries``."""
    value = np.array(_expect(doc, key, list, where), dtype=object)
    types, dtype = _ENTRIES[entries]
    if value.ndim != ndim or any(type(v) not in types for v in value.flat):
        raise ParseError(f"{where}: key {key!r} must be a {ndim}-D array of {entries}")
    return value.astype(dtype)


def _read_mask(raw: dict, lattice: LatticeSpec, where: str) -> ReceptiveFieldMask:
    _check_keys(raw, ("mask", "groups"), where)
    groups = _expect(raw, "groups", (list, type(None)), where)
    if groups is not None:
        groups = tuple(_array(raw, "groups", "strings", 1, where))
    mask = _array(raw, "mask", "integers", 2, where)
    return ReceptiveFieldMask(lattice.rows, lattice.cols, mask, groups)


def load_model(path) -> Model:
    """Strict reader for the model JSON, whose every configuration value
    comes from its run_config resolved through the config table; malformed
    or inconsistent content raises ParseError."""
    try:
        doc = json.loads("\n".join(read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model document must be a JSON object")
    if doc.get("format") != "rfsom-model":
        raise ParseError(f"{path}: not a model file (format={doc.get('format')!r})")
    if doc.get("version") != 2:
        raise ParseError(f"{path}: unsupported model version {doc.get('version')!r}")
    _check_keys(doc, _MODEL_KEYS, path)
    run_config = _expect(doc, "run_config", dict, path)
    for key in run_config:
        _expect(run_config, key, str, f"{path}: run_config")
    try:
        cfg = build_run_config(run_config)
    except ValueError as exc:
        raise ParseError(f"{path}: run_config: {exc}") from None
    norm = _expect(doc, "normalization", dict, path)
    _check_keys(norm, ("mean", "std"), f"{path}: normalization")
    raw_mask = _expect(doc, "mask", (dict, type(None)), path)
    try:
        codebook = Codebook(_array(doc, "codebook", "numbers", 2, path), cfg.lattice)
        normalization = NormalizationParams(
            *(_array(norm, k, "numbers", 1, f"{path}: normalization") for k in ("mean", "std"))
        )
        mask = None if raw_mask is None else _read_mask(raw_mask, cfg.lattice, f"{path}: mask")
    except ParseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model: {exc}") from None
    try:
        return Model(
            cfg.mode, codebook, mask, cfg.mrf_config, normalization, cfg.schedule,
            joint_names(codebook.dims), run_config,
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _resolve_mask(cfg: RunConfig) -> ReceptiveFieldMask:
    if cfg.mask == DEFAULT_MASK:
        return default_quadrant_mask()
    return load_mask(cfg.mask)


def _ensure_out(cfg: RunConfig) -> str:
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
    if cfg.lattice.n_neurons < 2:
        grid = f"{cfg.lattice.rows}x{cfg.lattice.cols}"
        raise ValueError(f"training needs at least 2 neurons, got a {grid} lattice")
    if not cfg.dataset:
        raise ValueError("no dataset configured (dataset=<csv path>)")
    mask = _resolve_mask(cfg) if cfg.mode == "mrf" else None
    raw = load_csv(cfg.dataset)
    if raw.shape[0] < 2:
        raise ValueError(f"training needs at least 2 samples, got {raw.shape[0]}")
    dims = raw.shape[1]
    normalization = fit_normalization(raw)
    data = apply_normalization(raw, normalization)
    codebook = init_codebook(cfg.lattice, dims, cfg.seed)
    if cfg.mode == "mrf":
        trained, log = mrf_train(codebook, data, mask, cfg.schedule, cfg.mrf_config)
    else:
        trained, log = train(codebook, data, cfg.schedule)
    out = _ensure_out(cfg)
    model = Model(
        mode=cfg.mode,
        codebook=trained,
        mask=mask,
        mrf_config=cfg.mrf_config,
        normalization=normalization,
        schedule=cfg.schedule,
        joints=joint_names(dims),
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


def _masked_map(model: Model) -> tuple[ReceptiveFieldMask, MrfConfig]:
    """The model as a masked map; a som model is the all-true field."""
    if model.mask is None:
        return _as_masked(model.codebook)
    return model.mask, model.mrf_config


def _has_body_groups(mask: ReceptiveFieldMask) -> bool:
    """Whether the cluster separation ratio is defined: every body group
    labels some neuron."""
    return mask.groups is not None and all(g in mask.group_order() for g in BODY_GROUPS)


def cmd_evaluate(cfg: RunConfig, model_path: str, dataset_path: str) -> int:
    """Score a model on a dataset; write metrics.json."""
    model = load_model(model_path)
    raw = load_csv(dataset_path)
    if raw.shape[1] != model.codebook.dims:
        raise ValueError(
            f"dataset has {raw.shape[1]} columns, model expects {model.codebook.dims}"
        )
    data = apply_normalization(raw, model.normalization)
    mask, mrf_config = _masked_map(model)
    qe = masked_quantization_error(model.codebook, data, mask, mrf_config)
    te = masked_topographic_error(model.codebook, data, mask, mrf_config)
    ratio = None
    if _has_body_groups(mask):
        report = build_encoding_report(model.codebook, mask, model.config.combination_threshold)
        ratio = cluster_separation_ratio(report)
    out = _ensure_out(cfg)
    metrics = {
        "format": "rfsom-metrics",
        "version": 1,
        "n_samples": int(raw.shape[0]),
        "quantization_error": qe,
        "topographic_error": te,
        "cluster_separation_ratio": ratio,
        "cluster_separation_reference": CLUSTER_SEPARATION_REFERENCE,
    }
    atomic_write_text(os.path.join(out, "metrics.json"), dump_json(metrics))
    print(f"quantization_error {qe:.6g}, topographic_error {te:.6g} -> {out}/metrics.json")
    return 0


def cmd_export(cfg: RunConfig, model_path: str) -> int:
    """Write heatmap CSV/PGM sets and the distance-map + encoding report."""
    model = load_model(model_path)
    mask, _ = _masked_map(model)
    grids = build_heatmaps(model.codebook, mask)
    dmap = build_distance_map(model.codebook, mask)
    report = build_encoding_report(model.codebook, mask, model.config.combination_threshold)
    ratio = cluster_separation_ratio(report) if _has_body_groups(mask) else None
    out = _ensure_out(cfg)
    for joint, grid in zip(model.joints, grids):
        atomic_write_text(os.path.join(out, f"heatmap_{joint}.csv"), heatmap_csv_text(grid))
        image, sidecar = heatmap_pgm_bytes(grid)
        atomic_write_bytes(os.path.join(out, f"heatmap_{joint}.pgm"), image)
        atomic_write_bytes(os.path.join(out, f"heatmap_{joint}.mask.pgm"), sidecar)
    doc = {"format": "rfsom-report", "version": 1}
    doc.update(report_json_dict(report, dmap))
    doc["cluster_separation_ratio"] = ratio
    doc["cluster_separation_reference"] = CLUSTER_SEPARATION_REFERENCE
    atomic_write_text(os.path.join(out, "report.json"), dump_json(doc))
    print(f"exported {len(grids)} heatmap sets and report.json -> {out}")
    return 0


def _merge_config(args: argparse.Namespace) -> RunConfig:
    flat: dict[str, str] = {}
    if args.config:
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
            "self-touch joint data. Defaults: 4x4 lattice with the Manhattan "
            "metric, 7 joint angles, built-in overlapping quadrant mask."
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
        if not cfg.out:
            raise ValueError("no output directory configured (out=<dir>)")
        return args.func(cfg, *(getattr(args, option) for option in args.paths))
    except (SamplingError, ValueError, OSError) as exc:
        # ParseError is a ValueError: malformed and missing inputs exit 4
        print(f"error: {exc}", file=sys.stderr)
        code = 4 if isinstance(exc, (ValueError, FileNotFoundError)) else 5
        return 3 if isinstance(exc, SamplingError) else code


def run() -> None:
    sys.exit(main())
