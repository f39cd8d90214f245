"""Command-line pipeline: generate, train, evaluate, export.

A run is described by the flat config keys of ``FIELDS``, each set by one
flag on the commands that read it and otherwise at its default; together
they resolve into one ``RunConfig``. Every artifact a command writes is
deterministic for a fixed configuration and seed: no timestamps, stable key
order, and 17-significant-digit floats.

Exit codes: 0 success, 2 usage, 3 sampling failure, 4 data/config error,
5 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field as dataclass_field, is_dataclass, replace

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
    ParseError, _array, _check_keys, _expect, atomic_write_bytes, atomic_write_text, dump_json,
    format_float, read_document,
)
from .lattice import LatticeSpec
from .mrf import (
    BODY_GROUPS,
    MrfConfig,
    ReceptiveFieldMask,
    _check_mask,
    _mask_object,
    _read_mask_object,
    default_quadrant_mask,
    load_mask,
    masked_quantization_error,
    masked_topographic_error,
    mrf_train,
)
from .som import Codebook, TrainSchedule, _as_masked, init_codebook, train

MODES = ("som", "mrf")

# Largest map a run may configure. Training and scoring hold an N x N lattice
# table, so a mistyped lattice size would otherwise fail as a MemoryError
# deep inside a command.
MAX_NEURONS = 1024


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on, resolved and validated."""

    mode: str = "mrf"
    seed: int = 0
    n: int = 3216
    max_attempts: int | None = None
    lattice: LatticeSpec = LatticeSpec()
    schedule: TrainSchedule = TrainSchedule()
    mrf_config: MrfConfig = MrfConfig()
    chain: ChainSpec = ChainSpec()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.lattice.n_neurons > MAX_NEURONS:
            raise ValueError(
                f"lattice.rows x lattice.cols = {self.lattice.rows}x{self.lattice.cols} is "
                f"{self.lattice.n_neurons} neurons, more than the limit of {MAX_NEURONS}"
            )


def _parse_vector(text: str, length: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != length:
        raise ValueError(f"expected {length} comma-separated values, got {len(parts)}")
    return tuple(float(p) for p in parts)


def _format_vector(values) -> str:
    return ",".join(format_float(v) for v in values)


# (parser, formatter) pairs shared by the table rows
_INT = (int, str)
_FLOAT = (float, format_float)
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
    take it as their ``--<flag>`` option, its only spelling, and its help
    text. A subcommand takes the keys it reads; evaluate and export read
    none but take ``seed``, so one seed can be passed to every command."""

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


# Every config key, in manifest order. Parsing, the run_config manifest (the
# train keys), the subcommand flags and their help all derive from this table.
# fmt: off
FIELDS = (
    Field("mode", *_STR, _TRAIN, "map variant to train: som (unrestricted) or mrf (masked)"),
    Field("seed", *_INT, _ALL,
          "run seed; drives sampling, weight init, and shuffling (unused by evaluate, export)"),
    Field("n", *_INT, _GEN, "number of samples to generate"),
    Field("max_attempts", *_ATTEMPTS, _GEN,
          "cap on sampling attempts ('auto' = max(100000, 20000*n))"),
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
    Field("chain.axes", *_AXES, _GEN, "rotation axis (x, y or z) of each joint, comma-separated"),
    *(Field(f"chain.limit.{name}", *_LIMITS, _GEN,
            f"{name} angle limits (rad), as --{name.replace('_', '-')}=lo,hi")
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
    """Typed RunConfig from a flat key=value mapping; an absent key keeps its default."""
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


# the keys model.json records: those train reads, since its run made the map
_RUN_CONFIG_FIELDS = tuple(field for field in FIELDS if "train" in field.commands)


def run_config_items(cfg: RunConfig, fields=_RUN_CONFIG_FIELDS) -> dict[str, str]:
    """Canonical flat view of a RunConfig over ``fields``, by default model.json's."""
    return {field.key: field.format(_lookup(cfg, field.path)) for field in fields}


_DEFAULTS = run_config_items(RunConfig(), FIELDS)


@dataclass(frozen=True)
class Model:
    """A trained map plus everything needed to reuse it; immutable.

    ``save_model`` writes the codebook, mask, normalization and
    ``run_config``, which ``config`` holds resolved. The mode, masked
    configuration, schedule, lattice and joint names are read back from it
    and the codebook shape, so construction rejects a model that disagrees.
    Every map is a masked map: a som model's mask is the all-true, unlabelled
    field, searched global-masked and unnormalized (``som._as_masked``).
    """

    mode: str
    codebook: Codebook
    mask: ReceptiveFieldMask
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
        _check_mask(self.mask, self.codebook)
        full = self.mask.groups is None and self.mask.mask.all()
        if self.mode == "som" and not (full and self.mrf_config == _as_masked(self.codebook)[1]):
            raise ValueError("mode 'som' needs the all-true, unlabelled mask, "
                             "searched global-masked and unnormalized")
        if self.normalization.mean.shape[0] != self.codebook.dims:
            raise ValueError(
                f"normalization has {self.normalization.mean.shape[0]} entries "
                f"for {self.codebook.dims} dims"
            )
        object.__setattr__(self, "config", cfg)


def _model(cfg: RunConfig, codebook: Codebook, mask, normalization) -> Model:
    """The Model of ``codebook`` over ``mask`` under ``cfg``, which gives its
    mode, masked configuration, schedule and run_config."""
    return Model(
        cfg.mode, codebook, mask, cfg.mrf_config, normalization, cfg.schedule,
        joint_names(codebook.dims), run_config_items(cfg),
    )


# the top-level keys of a model document, in file order
_MODEL_KEYS = ("format", "version", "normalization", "mask", "codebook", "run_config")


def save_model(model: Model, path) -> None:
    doc = {
        "format": "rfsom-model",
        "version": 5,
        "normalization": {
            "mean": model.normalization.mean.tolist(),
            "std": model.normalization.std.tolist(),
        },
        "mask": _mask_object(model.mask),
        "codebook": model.codebook.weights.tolist(),
        # the resolved config, not the ``run_config`` dict a caller can mutate
        "run_config": run_config_items(model.config),
    }
    atomic_write_text(path, dump_json(doc))


def load_model(path) -> Model:
    """Strict reader for the model JSON, whose every configuration value
    comes from its run_config resolved through the config table; malformed
    or inconsistent content raises ParseError."""
    doc = read_document(path, "rfsom-model", 5)
    _check_keys(doc, _MODEL_KEYS, path)
    run_config = _expect(doc, "run_config", dict, path)
    for key in run_config:
        _expect(run_config, key, str, f"{path}: run_config")
    _check_keys(run_config, (field.key for field in _RUN_CONFIG_FIELDS), f"{path}: run_config")
    try:
        cfg = build_run_config(run_config)
    except ValueError as exc:
        raise ParseError(f"{path}: run_config: {exc}") from None
    norm = _expect(doc, "normalization", dict, path)
    _check_keys(norm, ("mean", "std"), f"{path}: normalization")
    raw_mask = _expect(doc, "mask", dict, path)
    try:
        codebook = Codebook(_array(doc, "codebook", "numbers", 2, path), cfg.lattice)
        normalization = NormalizationParams(
            *(_array(norm, k, "numbers", 1, f"{path}: normalization") for k in ("mean", "std"))
        )
        mask = _read_mask_object(raw_mask, cfg.lattice.rows, cfg.lattice.cols, f"{path}: mask")
    except ParseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model: {exc}") from None
    try:
        return _model(cfg, codebook, mask, normalization)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cmd_generate(cfg: RunConfig, out: str) -> int:
    """Sample self-touch configurations; write dataset.csv and a manifest."""
    result = synthesize_self_touch(cfg.chain, cfg.n, cfg.seed, cfg.max_attempts)
    os.makedirs(out, exist_ok=True)
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


def cmd_train(cfg: RunConfig, dataset: str, mask_path: str | None, out: str) -> int:
    """Normalize the dataset, train the configured map, write model + log;
    an mrf map without ``mask_path`` gets the built-in quadrant mask, and a
    som map ``som._as_masked``'s all-true mask and global unnormalized search."""
    if cfg.mode == "som" and (mask_path is not None or cfg.mrf_config.bmu_scope == "per-group"):
        # refuse, not ignore; either normalization passes: the som search's, or the default
        raise ValueError("--mode som takes no --mask and no --bmu-scope per-group")
    if cfg.mode == "mrf":
        mask = default_quadrant_mask() if mask_path is None else load_mask(mask_path)
    raw = load_csv(dataset)
    normalization = fit_normalization(raw)
    data = apply_normalization(raw, normalization)
    codebook = init_codebook(cfg.lattice, raw.shape[1], cfg.seed)
    if cfg.mode == "mrf":
        trained, log = mrf_train(codebook, data, mask, cfg.schedule, cfg.mrf_config)
    else:
        mask, mrf_config = _as_masked(codebook)
        cfg = replace(cfg, mrf_config=mrf_config)
        trained, log = train(codebook, data, cfg.schedule)
    os.makedirs(out, exist_ok=True)
    save_model(_model(cfg, trained, mask, normalization), os.path.join(out, "model.json"))
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


def cmd_evaluate(cfg: RunConfig, model_path: str, dataset_path: str, out: str) -> int:
    """Score a model on a dataset; write metrics.json."""
    model = load_model(model_path)
    raw = load_csv(dataset_path)
    data = apply_normalization(raw, model.normalization)
    qe = masked_quantization_error(model.codebook, data, model.mask, model.mrf_config)
    te = masked_topographic_error(model.codebook, data, model.mask, model.mrf_config)
    os.makedirs(out, exist_ok=True)
    metrics = {
        "format": "rfsom-metrics",
        "version": 2,
        "n_samples": int(raw.shape[0]),
        "quantization_error": qe,
        "topographic_error": te,
    }
    atomic_write_text(os.path.join(out, "metrics.json"), dump_json(metrics))
    print(f"quantization_error {qe:.6g}, topographic_error {te:.6g} -> {out}/metrics.json")
    return 0


def cmd_export(cfg: RunConfig, model_path: str, out: str) -> int:
    """Write heatmap CSV/PGM sets and the distance-map + encoding report."""
    model = load_model(model_path)
    grids = build_heatmaps(model.codebook, model.mask)
    dmap = build_distance_map(model.codebook, model.mask)
    report = build_encoding_report(model.codebook, model.mask)
    # the ratio needs every body group; a map without them reports null
    grouped = set(BODY_GROUPS) <= set(report.group_order)
    ratio = cluster_separation_ratio(report) if grouped else None
    os.makedirs(out, exist_ok=True)
    for joint, grid in zip(model.joints, grids):
        atomic_write_text(os.path.join(out, f"heatmap_{joint}.csv"), heatmap_csv_text(grid))
        image, sidecar = heatmap_pgm_bytes(grid)
        atomic_write_bytes(os.path.join(out, f"heatmap_{joint}.pgm"), image)
        atomic_write_bytes(os.path.join(out, f"heatmap_{joint}.mask.pgm"), sidecar)
    doc = {"format": "rfsom-report", "version": 2}
    doc.update(report_json_dict(report, dmap))
    doc["cluster_separation_ratio"] = ratio
    doc["cluster_separation_reference"] = CLUSTER_SEPARATION_REFERENCE
    atomic_write_text(os.path.join(out, "report.json"), dump_json(doc))
    print(f"exported {len(grids)} heatmap sets and report.json -> {out}")
    return 0


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of the command's flags; a key without one keeps its default."""
    flags = {field.key: getattr(args, field.flag, None) for field in FIELDS}
    return build_run_config({key: value for key, value in flags.items() if value is not None})


# subcommand -> (handler, help, path options passed to the handler after cfg).
# File paths are options, never config keys, so no artifact records one.
_COMMANDS = {
    "generate": (cmd_generate, "sample self-touch configurations to CSV", ("out",)),
    "train": (cmd_train, "train a map on a dataset", ("dataset", "mask", "out")),
    "evaluate": (cmd_evaluate, "score a model on a dataset", ("model", "dataset_path", "out")),
    "export": (cmd_export, "write heatmaps, distance map, and report", ("model", "out")),
}
# every path option but --mask is required
_PATH_HELP = {
    "out": "output directory (created if missing)", "dataset": "dataset CSV",
    "dataset_path": "dataset CSV", "model": "trained model.json",
    "mask": "receptive-field mask file (default: the built-in 4x4 quadrant mask over 7 joints)",
}


def _path(text: str) -> str:
    """A path option's value; an empty one (an unset shell variable) is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


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
        # no abbreviated flags: each key has one spelling
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for option in paths:
            p.add_argument(
                "--" + option.replace("_", "-"), type=_path, required=option != "mask",
                help=_PATH_HELP[option],
            )
        for field in FIELDS:
            if name in field.commands:
                p.add_argument(
                    "--" + field.flag.replace("_", "-"),
                    metavar="V",
                    help=f"{field.help} (default: {_DEFAULTS[field.key]})",
                )
        p.set_defaults(func=func, paths=paths, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # the subcommand's parser reports them, with its own usage line
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        # refused before any work, not when the first artifact is written:
        # --out's nearest existing ancestor (or itself) must be a directory
        existing = args.out
        while existing and not os.path.lexists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            below = "" if existing == args.out else f" is below {existing!r}, which"
            raise NotADirectoryError(f"--out {args.out!r}{below} exists and is not a directory")
        cfg = _merge_config(args)
        return args.func(cfg, *(getattr(args, option) for option in args.paths))
    except (SamplingError, ValueError, OSError) as exc:
        # ParseError is a ValueError: malformed and missing inputs exit 4
        print(f"error: {exc}", file=sys.stderr)
        code = 4 if isinstance(exc, (ValueError, FileNotFoundError)) else 5
        return 3 if isinstance(exc, SamplingError) else code


def run() -> None:
    sys.exit(main())
