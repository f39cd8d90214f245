"""The rfsom benchmark: named workloads of CLI commands, run in process.

One process runs one ``rfsom.cli.main(argv)`` command at a time (a closed
loop with one client) and starts no threads. A run repeats its workload's
pipeline for ``--seconds`` and reports medians over the passes. Set-up time
is measured between passes, in fresh child interpreters, one at a time. Every
command's artifacts are checked outside the timed region; a command fails
if it exits non-zero or its check fails.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, measured by
``perfbench.tracer`` around the calls into each module.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import rfsom.cli
import rfsom.lattice

from perfbench import checks
from perfbench.tracer import Tracer, self_seconds, total_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

DEFAULT_TOUCH_RADIUS = 0.03
WIDE_TOUCH_RADIUS = 0.1
PAPER_EPOCHS = 100
SWEEP_SEEDS = 3
# set-up probes before every pass, so they sample the whole run's machine load
SETUP_PROBES_PER_PASS = 2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads (``FULL`` is what the benchmark runs)."""

    default_n: int = 1000
    default_epochs: int = 10
    paper_n: int = 3216
    paper_epochs: int = PAPER_EPOCHS
    sweep_n: int = 1072
    sweep_epochs: int = 30


FULL = Sizes()


@dataclass(frozen=True)
class Op:
    """One CLI command plus what its check needs to know."""

    command: str
    argv: tuple[str, ...]
    out: str
    seed: int
    n: int = 0
    touch_radius: float = DEFAULT_TOUCH_RADIUS
    epochs: int = 0
    mode: str = "mrf"
    model: str = ""
    dataset: str = ""


def _generate(seed: int, n: int, radius: float, out: str) -> Op:
    argv = ["generate", "--seed", str(seed), "--n", str(n), "--out", out]
    if radius != DEFAULT_TOUCH_RADIUS:
        argv += ["--touch-radius", repr(radius)]
    return Op("generate", tuple(argv), out, seed, n=n, touch_radius=radius)


def _train(seed: int, dataset: str, epochs: int, out: str, extra=(), mode="mrf") -> Op:
    argv = ["train", "--seed", str(seed), "--dataset", dataset, "--out", out]
    if epochs != PAPER_EPOCHS:
        argv += ["--epochs", str(epochs)]
    return Op("train", tuple(argv) + tuple(extra), out, seed, epochs=epochs, mode=mode)


def _evaluate_export(seed: int, run: str, dataset: str, tag: str) -> list[Op]:
    model = f"{run}/model.json"
    ev = f"eval{tag}"
    ex = f"export{tag}"
    return [
        Op(
            "evaluate",
            ("evaluate", "--seed", str(seed), "--model", model, "--dataset-path", dataset, "--out", ev),
            ev,
            seed,
            model=model,
            dataset=dataset,
        ),
        Op("export", ("export", "--seed", str(seed), "--model", model, "--out", ex), ex, seed),
    ]


def _single(seed: int, n: int, radius: float, epochs: int) -> list[Op]:
    dataset = "gen/dataset.csv"
    return [
        _generate(seed, n, radius, "gen"),
        _train(seed, dataset, epochs, "run"),
        *_evaluate_export(seed, "run", dataset, ""),
    ]


def _sweep(seed: int, sizes: Sizes) -> list[Op]:
    seeds = [seed + k for k in range(SWEEP_SEEDS)]
    ops = [_generate(s, sizes.sweep_n, WIDE_TOUCH_RADIUS, f"s{s}/gen") for s in seeds]
    for s in seeds:
        dataset = f"s{s}/gen/dataset.csv"
        ops.append(_train(s, dataset, sizes.sweep_epochs, f"s{s}/som", ("--mode", "som"), "som"))
        ops.append(_train(s, dataset, sizes.sweep_epochs, f"s{s}/pg", ("--bmu-scope", "per-group")))
    for s in seeds:
        dataset = f"s{s}/gen/dataset.csv"
        ops += _evaluate_export(s, f"s{s}/som", dataset, f"-s{s}-som")
        ops += _evaluate_export(s, f"s{s}/pg", dataset, f"-s{s}-pg")
    return ops


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sample-default": lambda seed, sz: _single(seed, sz.default_n, DEFAULT_TOUCH_RADIUS, sz.default_epochs),
    "train-paper": lambda seed, sz: _single(seed, sz.paper_n, WIDE_TOUCH_RADIUS, sz.paper_epochs),
    "seed-sweep": _sweep,
}


@dataclass
class PassResult:
    """What one pass over a workload's commands measured."""

    attempted: int = 0
    failed: int = 0
    wall: dict[str, float] = field(default_factory=dict)
    cpu_s: float = 0.0
    qe: list[float] = field(default_factory=list)
    te: list[float] = field(default_factory=list)
    distance_matrix_misses: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall.values())


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def run_pass(ops: list[Op], workdir: Path, tracer: Tracer | None = None) -> PassResult:
    """Run every command once inside an empty ``workdir``.

    Commands get relative paths, so the artifact bytes do not depend on where
    the checkout lives. The lattice distance cache is cleared before each
    command, as a separate CLI process would start without it.
    """
    result = PassResult()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for op in ops:
            result.attempted += 1
            rfsom.lattice.distance_matrix.cache_clear()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    cpu0 = process_time()
                    wall0 = perf_counter()
                    if tracer is None:
                        code = rfsom.cli.main(list(op.argv))
                    else:
                        code = tracer.command(op.command, lambda: rfsom.cli.main(list(op.argv)))
                    wall = perf_counter() - wall0
                    result.cpu_s += process_time() - cpu0
                result.wall[op.command] = result.wall.get(op.command, 0.0) + wall
                result.distance_matrix_misses += rfsom.lattice.distance_matrix.cache_info().misses
                if code != 0:
                    raise checks.CheckFailed(f"exit code {code}: {sink.getvalue().strip()}")
                outcome = checks.CHECKS[op.command](op)
                if op.command == "train":
                    result.qe.append(outcome[0])
                    result.te.append(outcome[1])
            except Exception as exc:  # one failed command must not stop the run
                result.failed += 1
                detail = "".join(traceback.format_exception_only(exc)).strip()
                result.errors.append(f"{' '.join(op.argv)}: {detail}")
    finally:
        os.chdir(here)
    result.digest = tree_digest(workdir)
    shutil.rmtree(workdir)
    return result


def measure_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported rfsom
    and created the temp work directory; the child's cleanup and exit are
    not timed."""
    OUT_DIR.mkdir(exist_ok=True)
    code = (
        "import sys, shutil, tempfile\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import rfsom.cli\n"
        f"work = tempfile.mkdtemp(dir={str(OUT_DIR)!r})\n"
        "print('ready', flush=True)\n"
        "shutil.rmtree(work)\n"
    )
    times = []
    for _ in range(repeats):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as child:
            ready = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
            if child.wait(timeout=120) != 0 or ready != b"ready\n":
                raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return times


def environment(seed: int, load_at_start: tuple[float, float, float]) -> dict:
    git_rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else git_rev
        except OSError:
            git_rev = "none (git not found)"
    src = hashlib.sha256()
    for path in sorted((SRC / "rfsom").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _mean(values: list[float]) -> float:
    # a pass whose training failed is already counted as failed
    return statistics.fmean(values) if values else 0.0


def end_to_end(passes: list[PassResult], setup_times: list[float]) -> dict[str, float]:
    return {
        "setup_s": _median(setup_times),
        "pipeline_s": _median(p.pipeline_s for p in passes),
        "cpu_s": _median(p.cpu_s for p in passes),
        "generate_s": _median(p.wall.get("generate", 0.0) for p in passes),
        "train_s": _median(p.wall.get("train", 0.0) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "qe_final": _median(_mean(p.qe) for p in passes),
        "te_final": _median(_mean(p.te) for p in passes),
    }


# per-layer metric -> span names whose durations it sums
_LAYER_SPANS = {
    "datagen.synthesize_s": ("datagen.synthesize_self_touch",),
    "datagen.save_csv_s": ("datagen.save_csv",),
    "datagen.load_csv_s": ("datagen.load_csv",),
    "datagen.normalize_s": ("datagen.fit_normalization", "datagen.apply_normalization"),
    "mrf.train_s": ("mrf.mrf_train",),
    "mrf.metrics_s": ("mrf.masked_quantization_error", "mrf.masked_topographic_error"),
    "som.train_s": ("som.train",),
    "som.metrics_s": ("som.quantization_error", "som.topographic_error"),
    "analysis.build_s": (
        "analysis.build_heatmaps",
        "analysis.build_distance_map",
        "analysis.build_encoding_report",
        "analysis.cluster_separation_ratio",
        "analysis.report_json_dict",
    ),
    "analysis.render_s": ("analysis.heatmap_csv_text", "analysis.heatmap_pgm_bytes"),
    "fileio.write_s": ("fileio.atomic_write_text", "fileio.atomic_write_bytes"),
    "fileio.dump_json_s": ("fileio.dump_json",),
}

# counts that must repeat exactly from pass to pass
EXACT_COUNTS = (
    "datagen.attempts",
    "datagen.csv_bytes",
    "mrf.train_steps",
    "som.train_steps",
    "lattice.neighborhood_weight_calls",
    "lattice.distance_matrix_misses",
    "fileio.write_calls",
    "fileio.write_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run: str, result: PassResult) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    spans = tracer.run_spans(run)
    totals = total_seconds(spans)
    own = self_seconds(spans)
    counters = dict(tracer.counters)
    counters["lattice.distance_matrix_misses"] = result.distance_matrix_misses
    m = {name: sum(totals.get(s, 0.0) for s in names) for name, names in _LAYER_SPANS.items()}
    for command in checks.CHECKS:
        m[f"cli.{command}_self_s"] = own.get(f"cli.{command}", 0.0)
    for key in EXACT_COUNTS + ("lattice.neighborhood_weight_s",):
        m[key] = counters[key]
    rows, attempts, synthesize_s = counters["datagen.rows"], counters["datagen.attempts"], m["datagen.synthesize_s"]
    m["datagen.acceptance_ratio"] = _ratio(rows, attempts)
    m["datagen.draws_per_s"] = _ratio(attempts, synthesize_s)
    m["datagen.rows_per_s"] = _ratio(rows, synthesize_s)
    m["mrf.us_per_step"] = 1e6 * _ratio(m["mrf.train_s"], counters["mrf.train_steps"])
    m["som.us_per_step"] = 1e6 * _ratio(m["som.train_s"], counters["som.train_steps"])
    return m


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _pinned_digest(workload: str, seed: int) -> str | None:
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """Run one workload and return its record (metrics, counts, digest, env)."""
    load_at_start = os.getloadavg()
    started = perf_counter()
    setup_times: list[float] = []
    ops = WORKLOADS[workload](seed, sizes)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR))
    tracer = Tracer() if trace else None
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict[str, float]] = []
    problems: list[str] = []
    loop_start = perf_counter()
    try:
        while True:
            if tracer is not None and len(untraced) > len(traced):
                run = f"{workload}/seed{seed}/pass{len(untraced) + len(traced)}"
                tracer.begin_run(run)
                result = run_pass(ops, scratch / "pass", tracer)
                traced.append(result)
                layers.append(layer_metrics(tracer, run, result))
            else:
                if not trace:
                    setup_times += measure_setup(SETUP_PROBES_PER_PASS)
                untraced.append(run_pass(ops, scratch / "pass"))
            done = len(untraced) + len(traced)
            if perf_counter() - loop_start >= seconds and done >= (2 if trace else 3):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.errors
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"artifact digest changed between passes of one run: {digests}")
    for key in EXACT_COUNTS:
        values = {m[key] for m in layers}
        if len(values) > 1:
            problems.append(f"count {key} changed between traced passes: {sorted(values)}")
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": environment(seed, load_at_start),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "digest": digests[0],
        "pinned_digest": _pinned_digest(workload, seed) if sizes == FULL else None,
        "problems": problems,
        "pipeline_s_per_pass": [p.pipeline_s for p in passes],
    }
    if trace:
        metrics = {name: _median(m[name] for m in layers) for name in layers[0]}
        metrics["trace.overhead_ratio"] = _median(p.pipeline_s for p in traced) / _median(
            p.pipeline_s for p in untraced
        )
        record["per_layer"] = metrics
        record["trace_file"] = str(OUT_DIR / f"trace-{workload}-seed{seed}.json")
        tracer.dump(record["trace_file"], {k: record[k] for k in ("workload", "seed", "env")})
    else:
        record["end_to_end"] = end_to_end(passes, setup_times)
        record["setup_s_samples"] = setup_times
    record["run_s"] = perf_counter() - started
    return record


def _report(record: dict, manifest: dict, out) -> dict:
    """Print the human-readable lines and return the result line's metrics."""
    key = "per_layer" if record["trace"] else "end_to_end"
    declared = manifest[key]
    measured = record[key]
    print(f"# workload {record['workload']}  seed {record['seed']}  passes {record['passes']}", file=out)
    print(f"# env {json.dumps(record['env'])}", file=out)
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = float(measured[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<36} {value:>16.6g} {unit:<8} ({entry['better']} is better)", file=out)
    base = record["attempted"]
    print(f"{'ops_failed_ratio':<36} {record['failed'] / base:>16.6g} ratio    "
          f"({record['failed']} failed of {base} CLI ops attempted)", file=out)
    pinned = record["pinned_digest"]
    if pinned is None:
        status = "no pinned digest for this workload and seed"
    elif pinned == record["digest"]:
        status = "matches the pinned digest"
    else:
        status = f"DIFFERS from the pinned digest {pinned}: numeric drift"
    print(f"# artifact sha256 {record['digest']} ({status})", file=out)
    for problem in record["problems"][:20]:
        print(f"# FAILED {problem}", file=out)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed + SWEEP_SEEDS >= 2**64:
        parser.error("--seed must be a non-negative 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None, sizes: Sizes = FULL, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = parse_args(argv)
    manifest = load_manifest()
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    metrics = _report(record, manifest, out)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    correct = record["failed"] == 0 and not record["problems"]
    line = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line), file=out)
    return 0
