#!/usr/bin/env python3
"""Run the default CLI pipeline (generate, train, evaluate, export) over
several seeds and tabulate the map-quality metrics, per-group joint
preferences, and the cluster-separation ratio from the artifacts it writes.
Useful for eyeballing how stable the qualitative findings are."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile
from collections import Counter

from rfsom.cli import main as rfsom


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = rfsom(list(argv))
    if code != 0:
        raise SystemExit(f"rfsom {argv[0]} failed with exit code {code}")


def _read(*parts: str) -> dict:
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


def run_seed(seed: int, n: int) -> None:
    with tempfile.TemporaryDirectory() as root:
        gen, run, ev, exp = (os.path.join(root, d) for d in ("gen", "run", "eval", "export"))
        dataset, model = os.path.join(gen, "dataset.csv"), os.path.join(run, "model.json")
        _cli("generate", "--seed", str(seed), "--n", str(n), "--out", gen)
        _cli("train", "--seed", str(seed), "--dataset", dataset, "--out", run)
        _cli("evaluate", "--model", model, "--dataset-path", dataset, "--out", ev)
        _cli("export", "--model", model, "--out", exp)
        manifest = _read(gen, "generate_manifest.json")
        metrics = _read(ev, "metrics.json")
        report = _read(exp, "report.json")
    print(
        f"seed {seed}: acceptance {manifest['acceptance_rate']:.2e}, "
        f"QE {metrics['quantization_error']:.4f}, TE {metrics['topographic_error']:.4f}, "
        f"separation ratio {report['cluster_separation_ratio']:.4f}"
    )
    neurons = report["neurons"]
    for group in report["group_order"]:
        prefs = Counter(e["argmax_joint"] for e in neurons if e["group"] == group)
        kinds = Counter(e["classification"] for e in neurons if e["group"] == group)
        pref_str = ", ".join(f"{j} x{c}" for j, c in sorted(prefs.items()))
        kind_str = ", ".join(f"{k} x{c}" for k, c in sorted(kinds.items()))
        print(f"  {group:>8}: prefers [{pref_str}]; codes [{kind_str}]")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--n", type=int, default=3216, help="samples per seed")
    args = parser.parse_args()
    for seed in args.seeds:
        run_seed(seed, args.n)


if __name__ == "__main__":
    main()
