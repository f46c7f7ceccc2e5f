"""Retrieval benchmark for covagg: index, load and query one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload phi2-bigdb --seed 1 --seconds 10 --trace 0

Steps:

1. Inputs are generated from ``--seed`` by ``perfbench/gen.py`` in a
   process of their own and cached under ``.perfbench/cache`` by seed and
   workload parameters (one corpus per workload is kept).
2. ``perfbench/measure.py`` runs the workload in a fresh process, with
   the BLAS thread count fixed so that threads plus ``--jobs`` (1) stay
   within ``nproc``. Program outputs (models, ``.cvv`` files) are rebuilt
   on every run and deleted afterwards.
3. With ``--trace 0`` the end-to-end metrics are printed; with
   ``--trace 1`` a second, traced process runs the same work once more
   and the per-layer metrics and the tracing overhead are printed.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when a result was printed, whether or not its checks
passed, and non-zero when no result could be produced (for example when
``src/covagg`` is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import LAYERS, PER_LAYER, layer_time, role

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
DEADLINE_S = 170.0
JOBS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("encode_images_per_s", "images/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("queries_per_s", "queries/s"),
    ("map", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """No result can be produced."""


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(max(1, (os.cpu_count() or 1) - JOBS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _run_child(argv: list, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to run {argv[1]}")
    try:
        # The child's stdout goes to our stderr: our stdout ends with the result.
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=2,
            timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish in {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited with code {proc.returncode}")


def _spec_file(spec: dict, work: Path) -> Path:
    path = work / "spec.json"
    path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
    return path


def ensure_corpus(spec: dict, seed: int, deadline: float) -> Path:
    """The workload's inputs for ``seed``, generated unless already cached."""
    key = hashlib.sha256(
        json.dumps({"corpus": spec["corpus"], "seed": seed}, sort_keys=True).encode()
        + (HERE / "gen.py").read_bytes()
    ).hexdigest()[:16]
    parent = STATE / "cache" / spec["name"]
    corpus = parent / f"seed{seed}-{key}"
    if (corpus / "DONE").is_file():
        return corpus
    if parent.exists():
        shutil.rmtree(parent)
    tmp = parent / "partial"
    tmp.mkdir(parents=True)
    spec_path = _spec_file(spec, tmp)
    _run_child([str(HERE / "gen.py"), "--spec", str(spec_path), "--seed", str(seed),
                "--out", str(tmp)], deadline)
    spec_path.unlink()
    (tmp / "DONE").write_text("", encoding="utf-8")
    tmp.rename(corpus)
    return corpus


def measure(spec: dict, corpus: Path, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    mode = "trace" if trace else "plain"
    work = STATE / "work" / f"{spec['name']}-{mode}"
    out = STATE / "out"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    argv = [str(HERE / "measure.py"), "--spec", str(_spec_file(spec, work)), "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
            "--corpus", str(corpus), "--work", str(work), "--result", str(result_path)]
    if trace:
        argv += ["--spans", str(out / f"{spec['name']}.spans.jsonl")]
    try:
        _run_child(argv, deadline)
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced_work_s(result: dict) -> float:
    phases = result["phases"]
    return (phases.get("train_s", 0.0) + sum(phases["encode_s_all"]) + sum(phases["setup_s_all"])
            + (phases.get("first_pass_s") or 0.0))


def per_layer_metrics(traced: dict, plain: dict) -> dict:
    stats = traced["trace"]["stats"]
    counters = traced["trace"]["counters"]
    values = {}
    for name, _ in PER_LAYER:
        if name in counters:
            values[name] = counters[name]
            continue
        span, _, stat = name.rpartition(".")
        entry = stats.get(span)
        values[name] = entry[stat] if entry is not None and stat in entry else 0
    values["trace.overhead"] = _traced_work_s(traced) / _traced_work_s(plain) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run_workload(spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, measure and summarize one workload; returns the printed record."""
    deadline = time.monotonic() + DEADLINE_S
    corpus = ensure_corpus(spec, seed, deadline)
    plain = measure(spec, corpus, seed, seconds, False, deadline)
    runs = [plain]
    if trace:
        traced = measure(spec, corpus, seed, seconds, True, deadline)
        runs.append(traced)
        metrics = per_layer_metrics(traced, plain)
    else:
        metrics = {name: {"value": plain["metrics"].get(name), "unit": unit}
                   for name, unit in END_TO_END}
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    detail = {"workload": spec["name"], "seed": seed, "seconds": seconds, "summary": summary,
              "plain": plain, "traced": runs[1] if trace else None}
    suffix = "trace" if trace else "plain"
    (STATE / "out" / f"{spec['name']}.{suffix}.json").write_text(
        json.dumps({"metrics": metrics, "detail": detail}, indent=1), encoding="utf-8"
    )
    return {"summary": summary, "runs": runs}


def report(spec: dict, record: dict, trace: bool) -> None:
    plain = record["runs"][0]
    env, sizes, samples = plain["env"], plain["sizes"], plain["samples"]
    print(f"workload {spec['name']}: {sizes['database_images']} database images, "
          f"{sizes['queries']} queries x {spec['rotations']} rotations")
    print(f"env nproc={env['nproc']} jobs={env['jobs']} threads={env['threads']} "
          f"numpy={env['numpy']} blas={env['blas']} python={env['python']}")
    ram = sizes["db_ram_bytes"] or 0
    print(f"sizes corpus_bytes={sizes['corpus_bytes']} db_file_bytes={sizes['db_file_bytes']} "
          f"db_ram_bytes={ram} ({ram / (env['l2_bytes'] or 1):.1f}x L2, "
          f"{ram / (env['l3_bytes'] or 1):.2f}x L3)")
    print(f"samples query_latencies={samples['latencies']} passes={samples['passes']} "
          f"setup_reps={samples['setup_reps']} encode_reps={samples['encode_reps']}")
    phases = plain["phases"]
    print(f"window_s {phases['window_s']:.4f}")
    for key in ("encode_s_all", "setup_s_all"):
        print(f"{key} {' '.join(f'{t:.4f}' for t in phases[key])}")
    if "train_s" in phases:
        print(f"train_s {phases['train_s']:.4f} s")
    for r in record["runs"]:
        for error in r["errors"]:
            print(f"failed {error}")
    summary = record["summary"]
    print(f"error_rate {summary['failed'] / max(summary['attempted'], 1):.6f} "
          f"({summary['failed']}/{summary['attempted']})")
    for name, m in summary["metrics"].items():
        value = m["value"]
        print(f"{name} {value if value is None else f'{value:.6g}'} {m['unit']}")
    if trace:
        traced = record["runs"][1]
        if traced["trace"]["absent"]:
            print(f"absent wrap targets: {', '.join(traced['trace']['absent'])}")
        for note in traced["trace"]["notes"]:
            print(f"note {note}")
        for layer in LAYERS:
            print(f"layer {layer} {role(layer, spec['name'])} "
                  f"{layer_time(summary['metrics'], layer):.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covagg retrieval benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covagg" / "__init__.py").is_file():
        print(f"perfbench: no covagg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = workloads.get(args.workload)
    try:
        record = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(spec, record, bool(args.trace))
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
