"""The measured process: train, index, load and query one workload.

run.py starts this in a process of its own, after the inputs exist, so
that peak RSS is the program's. The steps go through the paths users
run:

* training and indexing call ``covagg.cli.main`` in-process
  (``train-pca``, ``train-gmm``, ``encode``, ``train-rn``);
* the measured window of ``--seconds`` opens with the first encode of
  the database and its load; the other ``encode_reps - 1`` encodes,
  each followed by its loads, are spread across the window between
  queries (rep k is due k * seconds / encode_reps in), so that slow
  spells of a shared machine reach every metric alike. The first
  encode is a warm-up; the median rate of the later ones is reported;
* loading is ``PipelineConfig.build()`` plus ``read_vector_file``,
  ``setup_reps`` times in all, split evenly over the encode reps (the
  median is reported);
* each query makes the calls of ``covagg evaluate --jobs 1``:
  ``read_descriptor_file``, ``query_multi_rotation``, ``rank_by_score``
  and ``average_precision``, in a closed loop with one client. Passes
  over the query set repeat until the window has lasted ``--seconds``
  (at least one whole pass, which gives the mAP; exactly one when
  traced, so that counts repeat exactly).

Operations are the training commands, the encode commands, the loads,
each query and the mAP floor check. An operation fails if it raises or if a check on its output
fails; failures are counted, never raised.

Usage: ``python3 perfbench/measure.py --spec SPEC.json --seed N
--seconds T --trace 0|1 --corpus DIR --work DIR --result OUT.json``
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 20
ROW_TOL = 1e-6  # float32 storage of unit vectors
NORM_TOL = 1e-4
POLY_TOL = 1e-9


class Ops:
    """Attempted and failed operations, with the first few error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, label: str, detail) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{label}: {detail}")


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def pipeline_kwargs(spec: dict, work: Path, for_heldout: bool = False) -> dict:
    kw = dict(spec["pipeline"])
    if spec["training"] is not None:
        kw.update(pca_path=str(work / "pca.cvm"), gmm_path=str(work / "gmm.cvm"))
        if for_heldout:
            kw.pop("truncate", None)
        else:
            kw["rn_path"] = str(work / "rn.cvm")
    return kw


def cli_flags(kw: dict) -> list:
    """The ``covagg encode`` flags that give ``PipelineConfig(**kw)``."""
    flags = ["--family", kw["family"], "--kappa", repr(kw["kappa"]), "--nfreq", str(kw["n_freq"])]
    if kw.get("input_dim") is not None:
        flags += ["--input-dim", str(kw["input_dim"])]
    flags += ["--adapted-power-law" if kw.get("adapted_power_law") else "--power-law",
              repr(kw["power_law"])]
    for key, flag in (("pca_path", "--pca"), ("gmm_path", "--gmm"),
                      ("rn_path", "--rn"), ("truncate", "--truncate")):
        if kw.get(key) is not None:
            flags += [flag, str(kw[key])]
    return flags


def cli_op(ops: Ops, label: str, argv: list) -> bool:
    from covagg import cli

    ops.attempted += 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the flags
        ops.fail(label, f"argument error (exit {exc.code})")
        return False
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
        ops.fail(label, repr(exc))
        return False
    if code != 0:
        ops.fail(label, f"exit code {code}")
        return False
    return True


def training_commands(spec: dict, corpus: Path, work: Path) -> list:
    t = spec["training"]
    if t is None:
        return []
    heldout = str(corpus / "heldout")
    return [
        ("train-pca", ["train-pca", "--train-descriptors", heldout,
                       "--out-dim", str(t["pca_dim"]), "--out", str(work / "pca.cvm")]),
        ("train-gmm", ["train-gmm", "--train-descriptors", heldout, "--k", str(t["gmm_k"]),
                       "--iters", str(t["gmm_iters"]), "--seed", "0",
                       "--pca", str(work / "pca.cvm"), "--out", str(work / "gmm.cvm")]),
        ("encode heldout", ["encode", heldout, "--out", str(work / "heldout.cvv"),
                            *cli_flags(pipeline_kwargs(spec, work, for_heldout=True))]),
        ("train-rn", ["train-rn", "--vectors", str(work / "heldout.cvv"),
                      "--exponent", repr(t["rn_exponent"]), "--out", str(work / "rn.cvm")]),
    ]


def check_store(store, pipeline, expected_ids, corpus: Path, seed: int, samples: int):
    """Problems with the stored database, as a list of messages."""
    from covagg import fileio

    problems = []
    if sorted(store.image_ids) != sorted(expected_ids):
        problems.append(f"stored {len(store)} ids, expected {len(expected_ids)} database images")
    if store.vectors.shape != (len(expected_ids), pipeline.output_dim):
        problems.append(
            f"stored shape {store.vectors.shape}, expected ({len(expected_ids)}, {pipeline.output_dim})"
        )
    if not np.all(np.isfinite(store.vectors)):
        problems.append("stored vectors are not all finite")
    norms = np.linalg.norm(store.vectors, axis=1)
    if norms.size and np.max(np.abs(norms - 1.0)) > NORM_TOL:
        problems.append(f"stored vectors not unit-norm (worst {np.max(np.abs(norms - 1.0)):.3g})")
    if problems:
        return problems
    rng = np.random.default_rng(seed)
    for row in rng.choice(len(store), size=min(samples, len(store)), replace=False):
        image_id = store.image_ids[row]
        dset = fileio.read_descriptor_file(corpus / "database" / f"{image_id}.cvd")
        diff = float(np.max(np.abs(pipeline.encode(dset) - store.vectors[row])))
        if diff > ROW_TOL:
            problems.append(f"re-encoded {image_id} differs from its stored row by {diff:.3g}")
    return problems


def _rescore(query, pipeline, store, row_of, scores, ranked, top):
    """Re-order the top ``top`` ids by the rotation polynomial's maximum.

    Returns the new ranking and (polynomial max, grid score) per pair.
    """
    from covagg import scoring
    from covagg.aggregate import ModulatedVector

    q = ModulatedVector(pipeline.encode(query), store.base_dim, store.n_freq)
    head = []
    for image_id in ranked[:top]:
        row = row_of[image_id]
        x = ModulatedVector(store.vectors[row], store.base_dim, store.n_freq)
        _, best = scoring.max_score(scoring.score_polynomial(q, x))
        head.append((best, image_id, float(scores[row])))
    head.sort(key=lambda item: (-item[0], item[1]))
    return [image_id for _, image_id, _ in head] + ranked[top:], [(b, g) for b, _, g in head]


def _query(ctx, path):
    """One query, timed, then its checks; returns (seconds, AP, problems)."""
    from covagg import fileio, retrieval, scoring

    spec, pipeline, store = ctx["spec"], ctx["pipeline"], ctx["store"]
    top = spec["rescore_top"]
    with _span(ctx["tracer"], "query"):
        t0 = time.perf_counter()
        query = fileio.read_descriptor_file(path)
        entry = ctx["ground_truth"][query.image_id]
        scores, _ = scoring.query_multi_rotation(query, pipeline, store.vectors, spec["rotations"])
        ranked = retrieval.rank_by_score(store.image_ids, scores)
        if top:
            ranked, pairs = _rescore(query, pipeline, store, ctx["row_of"], scores, ranked, top)
        ap = retrieval.average_precision(ranked, entry)
        elapsed = time.perf_counter() - t0
    problems = []
    if np.shape(scores) != (len(store),) or not np.all(np.isfinite(scores)):
        problems.append("scores are not one finite value per database image")
    if len(ranked) != len(store) or set(ranked) != ctx["id_set"]:
        problems.append("ranking is not a permutation of the database ids")
    if top:
        bad = [(p, g) for p, g in pairs if p < g - POLY_TOL]
        if bad:
            problems.append(f"polynomial max below grid score: {bad[0]}")
    return elapsed, ap, problems


def query_loop(ctx, ops, query_paths, seconds, single_pass, start, between):
    """Closed loop over the query set.

    Returns (latencies per pass, first-pass AP per query, first-pass
    query seconds, loop query seconds). Query seconds leave out the time
    spent in ``between``.

    ``start`` is when the measured window opened. At each query boundary
    ``between(elapsed)`` first runs the encode and load reps that are due.
    The first pass always completes (it gives the mAP); after it the loop
    stops at the first query boundary ``seconds`` past ``start``.
    """
    store = ctx["store"]
    ctx.update(id_set=set(store.image_ids),
               row_of={image_id: i for i, image_id in enumerate(store.image_ids)})
    passes, first_ap = [], {}
    other = 0.0

    def past_deadline():
        nonlocal other
        t0 = time.perf_counter()
        between(t0 - start)
        other += time.perf_counter() - t0
        return time.perf_counter() - start >= seconds

    loop_start = time.perf_counter()
    while not passes or not (single_pass or past_deadline()):
        latencies = []
        for path in query_paths:
            if past_deadline() and passes:
                break
            ops.attempted += 1
            try:
                elapsed, ap, problems = _query(ctx, path)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed query
                elapsed, ap, problems = None, 0.0, [repr(exc)]
            if path.stem in first_ap and first_ap[path.stem] != ap:
                problems.append(f"AP {ap} differs from the first pass {first_ap[path.stem]}")
            first_ap.setdefault(path.stem, 0.0 if problems else ap)
            if problems:
                ops.fail(f"query {path.stem}", "; ".join(problems))
            else:
                latencies.append(elapsed)
        passes.append(latencies)
        if len(passes) == 1:
            first_pass_s = time.perf_counter() - loop_start - other
    return passes, first_ap, first_pass_s, time.perf_counter() - loop_start - other


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir()) if path.is_dir() else 0


def cache_sizes() -> dict:
    """Unified/data cache bytes per level of CPU 0, read from sysfs."""
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        sizes[level] = int(text.rstrip("KMG")) * scale
    return sizes


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cache = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "jobs": 1,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "l2_bytes": cache.get(2),
        "l3_bytes": cache.get(3),
    }


def run(spec: dict, corpus: Path, work: Path, seed: int, seconds: float, tracer=None) -> dict:
    """Run one workload; returns the result record (never raises on program failure)."""
    from covagg import fileio, retrieval
    from covagg.pipeline import PipelineConfig

    corpus, work = Path(corpus), Path(work)
    ops = Ops()
    phases = {}
    metrics = {}
    db_dir = corpus / "database"
    db_path = work / "db.cvv"
    expected_ids = sorted(p.stem for p in db_dir.iterdir())
    query_paths = sorted((corpus / "queries").iterdir())

    commands = training_commands(spec, corpus, work)
    if commands:
        with _span(tracer, "phase.train"):
            t0 = time.perf_counter()
            for label, argv in commands:
                cli_op(ops, label, argv)
            phases["train_s"] = time.perf_counter() - t0

    kw = pipeline_kwargs(spec, work)
    reps = spec["encode_reps"]
    loads_per_rep = -(-spec["setup_reps"] // reps)
    encode_times, setup_times = [], []

    def encode():
        with _span(tracer, "phase.encode"):
            t0 = time.perf_counter()
            cli_op(ops, "encode", ["encode", str(db_dir), "--out", str(db_path), *cli_flags(kw)])
            encode_times.append(time.perf_counter() - t0)

    def load():
        """``loads_per_rep`` timed loads; returns the last (pipeline, store)."""
        with _span(tracer, "phase.setup"):
            config = PipelineConfig(**kw)
            for _ in range(loads_per_rep):
                store = None
                t0 = time.perf_counter()
                pipeline = config.build()
                store = fileio.read_vector_file(db_path)
                setup_times.append(time.perf_counter() - t0)
        return pipeline, store

    def between(elapsed):
        """The encode and load reps due ``elapsed`` seconds into the window.

        Rep k is due at k * seconds / encode_reps, so indexing and loading
        are sampled across the whole window, as the queries are.
        """
        while len(encode_times) < reps and elapsed >= len(encode_times) * seconds / reps:
            encode()
            ops.attempted += 1
            try:
                load()
            except Exception as exc:  # noqa: BLE001 - a crash is a failed load
                ops.fail("load", repr(exc))

    window_start = time.perf_counter()
    encode()
    ops.attempted += 1
    store = None
    try:
        pipeline, store = load()
        problems = check_store(store, pipeline, expected_ids, corpus, seed, spec["reencode_samples"])
        ground_truth = retrieval.read_ground_truth(corpus / "groundtruth.txt")
    except Exception as exc:  # noqa: BLE001 - a crash is a failed load
        problems = [repr(exc)]

    passes, loop_s = [], None
    if problems:
        ops.fail("load", "; ".join(problems))
        ops.attempted += len(query_paths)
        ops.failed += len(query_paths)
    else:
        ctx = {"spec": spec, "tracer": tracer, "pipeline": pipeline, "store": store,
               "ground_truth": ground_truth}
        with _span(tracer, "phase.query"):
            passes, first_ap, phases["first_pass_s"], loop_s = query_loop(
                ctx, ops, query_paths, seconds, tracer is not None, window_start, between
            )
        between(float("inf"))  # a single traced pass can end before every rep is due
        latencies = [t for latencies in passes for t in latencies]
        if latencies:
            p50, p90 = np.percentile(np.asarray(latencies) * 1e3, [50, 90])
            metrics.update(query_ms_p50=float(p50), query_ms_p90=float(p90),
                           queries_per_s=len(latencies) / loop_s)
        metrics["map"] = retrieval.mean_ap(first_ap.values())
        ops.attempted += 1
        if metrics["map"] < spec["map_floor"]:
            ops.fail("map", f"{metrics['map']:.4f} below the floor {spec['map_floor']}")
    phases["window_s"] = time.perf_counter() - window_start
    phases["encode_s_all"] = encode_times
    phases["setup_s_all"] = setup_times
    # The first encode grows the heap and warms the file cache: on a large
    # database it runs up to twice as slow, mostly in page faults, by an
    # amount the host decides. It makes the database; the rate is the
    # median of the later ones.
    timed = encode_times[1:] or encode_times
    metrics["encode_images_per_s"] = len(expected_ids) / statistics.median(timed)
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)

    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sizes = {
        "database_images": len(expected_ids),
        "queries": len(query_paths),
        "corpus_bytes": {sub: _dir_bytes(corpus / sub) for sub in ("database", "queries", "heldout")},
        "db_file_bytes": db_path.stat().st_size if db_path.exists() else None,
        "db_ram_bytes": int(store.vectors.nbytes) if store is not None else None,
    }
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "metrics": metrics,
        "phases": phases,
        "samples": {"latencies": sum(len(p) for p in passes), "passes": len(passes),
                    "pass_p50_ms": [1e3 * statistics.median(p) for p in passes if p],
                    "queries_per_pass": len(query_paths), "setup_reps": len(setup_times),
                    "encode_reps": len(encode_times),
                    "query_loop_s": loop_s},
        "sizes": sizes,
        "env": environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    import covagg.cli  # noqa: F401 - loads every module before wrapping
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        absent, _ = tracing.install(tracer)
    result = run(spec, Path(args.corpus), Path(args.work), args.seed, args.seconds, tracer)
    if tracer is not None:
        result["trace"] = {
            "absent": absent,
            "notes": tracer.notes[:MAX_ERRORS],
            "stats": tracing.span_stats(tracer.spans),
            "counters": dict(tracer.counters),
            "spans": len(tracer.spans),
        }
        if args.spans:
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covagg

    if Path(covagg.__file__).resolve().parent != (src / "covagg").resolve():
        sys.exit(f"covagg imported from {covagg.__file__}, not from {src}")
    sys.exit(main())
