"""Command-line entry points tying the pipeline together.

Every command is deterministic given its input files, flags and seeds.
Passing ``--manifest out.json`` records the resolved configuration of a
command that succeeds; ``covagg run-manifest out.json`` replays it and
reproduces the outputs bit-identically.

Exit codes: 0 success, 2 parse/format error, 3 contract error,
4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import fileio, retrieval
from .angle_map import (
    SIM_HIST_HEADER,
    VON_MISES,
    AngleMapConfig,
    fourier_coeffs,
    similarity_histogram,
    truncated_kernel,
    vm_kernel,
)
from .codebooks import (
    CenteredMoments,
    PcaModel,
    check_iterations,
    check_k,
    gmm_train,
    kmeans_train,
    pca_from_moments,
)
from .descriptors import preprocess_batch, rootsift_batch
from .errors import ContractError, CovaggError, DegenerateDataError, FormatError
from .pipeline import FAMILIES, PipelineConfig, default_power_exponent
from .postprocess import rn_train
from .scoring import MAX_ROTATIONS, query_multi_rotation
from .synth import SynthConfig, generate_corpus

DESCRIPTOR_SUFFIX = ".cvd"

# Bytes of aggregated float64 rows that ``encode`` post-processes as one
# matrix. ``scripts/encode_sweep.py`` shows RN near its best from about 24
# rows of 1344 on: 48 rows saved 0.01 ms an image and the plain power law
# nothing. ``encode``'s peak memory grows by about twice the block, so a
# larger one buys little and costs memory.
ROWS_BYTES = 1 << 18

# Rows that ``train-kmeans --pca`` and ``train-gmm --pca`` project in each
# ``preprocess_batch`` call at least, unless the whole corpus has fewer
# (``_projected``); no other training path stages rows. OpenBLAS runs
# small products through another kernel, which rounds its sums
# differently: in a probe, projecting blocks of 1-32 rows changed the bits
# of every block, while blocks of 63 rows or more matched the whole-matrix
# product. Projecting file by file changed ``train-gmm --pca``'s model on
# a corpus of 3000 files of 1-19 descriptors; calls of this many rows keep
# it byte-identical.
TRAIN_CHUNK = 4096


def _collect_descriptor_paths(inputs) -> list:
    """Expand files and directories into a sorted list of descriptor files."""
    paths = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            # directory entries know their type, so no file is stat'ed; sorting
            # the names of one directory sorts its paths
            with os.scandir(p) as entries:
                names = sorted(entry.name for entry in entries if entry.is_file())
            if not names:
                raise ContractError(f"directory {p} contains no descriptor files")
            paths.extend(p / name for name in names)
        elif p.is_file():
            paths.append(p)
        else:
            raise ContractError(f"no such file or directory: {p}")
    if not paths:
        raise ContractError("no descriptor files given")
    return paths


def _training_blocks(inputs):
    """The descriptors of each file under ``inputs``, in file order, RootSIFT-normalized if raw.

    Files without descriptors yield nothing. A file whose dim differs
    from the files before it ends the blocks, and so does a corpus
    without descriptors, but only once every file has been read, so
    that a fault in a later file is reported first.
    """
    dim = mismatch = None
    for path in _collect_descriptor_paths(inputs):
        dset = fileio.read_descriptor_file(path)
        if len(dset) == 0:
            continue
        X = rootsift_batch(dset.descriptors) if dset.raw else dset.descriptors
        dim = X.shape[1] if dim is None else dim
        if X.shape[1] != dim and mismatch is None:
            mismatch = ContractError(
                f"{path}: descriptor dim {X.shape[1]} differs from the {dim} of earlier files"
            )
        if mismatch is None:
            yield X
    if mismatch is not None:
        raise mismatch
    if dim is None:
        raise ContractError("training files contain no descriptors")


def _projected(blocks, pca_path) -> list:
    """``preprocess_batch`` of the stacked ``blocks`` in row order, as a list of pieces.

    Rows are staged, and whenever ``2 * TRAIN_CHUNK`` of them wait all
    but the last ``TRAIN_CHUNK`` are projected; the rest are projected
    as one last piece. So no call has fewer than ``TRAIN_CHUNK`` rows
    unless all the blocks do, and only the staged rows are ever held
    unprojected. The model at ``pca_path`` is loaded for the first
    piece. An error in loading or projecting is raised once every block
    has been read, so a fault in a later file is still reported first.
    """
    pca = None
    pieces, staged, n_staged = [], [], 0

    def project(rows):
        nonlocal pca
        if pca is None:
            pca = fileio.load_model(pca_path, PcaModel)
        pieces.append(preprocess_batch(rows, pca))

    try:
        for X in blocks:
            staged.append(X)
            n_staged += X.shape[0]
            if n_staged >= 2 * TRAIN_CHUNK:
                rows, staged = np.vstack(staged), None
                project(rows[:-TRAIN_CHUNK])
                # copied once the piece is projected: a view would pin the stack
                staged, n_staged = [rows[-TRAIN_CHUNK:].copy()], TRAIN_CHUNK
                del rows
        project(np.vstack(staged))
    except (CovaggError, OSError):
        for _ in blocks:  # read the remaining files; a fault in one is raised first
            pass
        raise
    return pieces


def _load_training_matrix(args) -> np.ndarray:
    """The training files' descriptors as one matrix, prepared as the command asks.

    Files are read once, in order. Without ``--pca`` each file's rows are
    kept as they are read; with it they are projected in staged pieces
    (``_projected``), so the loader never holds the raw corpus next to
    the projected one. The pieces are stacked once, and ``--sample`` then
    picks rows.
    """
    blocks = _training_blocks(args.train_descriptors)
    pieces = _projected(blocks, args.pca) if getattr(args, "pca", None) else list(blocks)
    data = np.vstack(pieces)
    del pieces
    if args.sample is not None and args.sample < data.shape[0]:
        rng = np.random.default_rng(args.seed)
        keep = rng.choice(data.shape[0], size=args.sample, replace=False)
        data = data[np.sort(keep)]
    return data


def _write_manifest(args):
    if not getattr(args, "manifest", None):
        return
    payload = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "manifest") and not callable(value)
    }
    text = json.dumps({"command": args.command, "args": payload}, indent=2, sort_keys=True)
    fileio.atomic_write_bytes(args.manifest, text.encode("utf-8") + b"\n")


def _require_positive(flag: str, value: int):
    if value < 1:
        raise ContractError(f"{flag} must be a positive integer, got {value}")


def _check_rotations(value: int):
    """Refuse a ``--rotations`` that ``query_multi_rotation`` would, before any file is read."""
    _require_positive("--rotations", value)
    if value > MAX_ROTATIONS:
        raise ContractError(f"--rotations must be at most {MAX_ROTATIONS}, got {value}")


def _absolute(path):
    return None if path is None else os.path.abspath(path)


def _pipeline_config(args) -> PipelineConfig:
    """The canonical config of the encode flags, model paths made absolute.

    With no power-law flag, the family's default exponent is stored.
    """
    amap = _angle_map_config(args)
    exponent = args.power_law if args.adapted_power_law is None else args.adapted_power_law
    if exponent is None and not args.no_power_law:
        exponent = default_power_exponent(args.family)
    return PipelineConfig(
        family=args.family,
        kappa=amap.kappa,
        n_freq=amap.n_freq,
        angle_family=amap.family,
        cosine_power=amap.power,
        input_dim=args.input_dim,
        pca_path=_absolute(args.pca),
        codebook_path=_absolute(args.codebook),
        gmm_path=_absolute(args.gmm),
        power_law=exponent,
        adapted_power_law=args.adapted_power_law is not None,
        rn_path=_absolute(args.rn),
        truncate=args.truncate,
    )


def _add_angle_flags(parser):
    parser.add_argument("--kappa", type=float, default=None, help="von Mises only (default 8)")
    parser.add_argument("--nfreq", type=int, default=None, help="von Mises only (default 3)")
    parser.add_argument(
        "--angle-family", choices=("von-mises", "cosine-power"), default="von-mises"
    )
    parser.add_argument("--cosine-power", type=int, default=None, metavar="P")


def _angle_map_config(args) -> AngleMapConfig:
    """The angle kernel of the flags; a flag the kernel does not read is refused."""
    if args.angle_family == "cosine-power":
        unread, owner = {"--kappa": args.kappa, "--nfreq": args.nfreq}, "von-mises"
    else:
        unread, owner = {"--cosine-power": args.cosine_power}, "cosine-power"
    for flag, value in unread.items():
        if value is not None:
            raise ContractError(f"{flag} is read only with --angle-family {owner}")
    return AngleMapConfig(
        kappa=8.0 if args.kappa is None else args.kappa,
        n_freq=3 if args.nfreq is None else args.nfreq,
        family=args.angle_family.replace("-", "_"),
        power=args.cosine_power,
    )


def _add_pipeline_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("pipeline")
    group.add_argument("--family", required=True, choices=FAMILIES)
    _add_angle_flags(group)
    group.add_argument(
        "--input-dim", type=int, default=None,
        help="descriptor dim for monomial families when no pca model is given",
    )
    group.add_argument("--pca", default=None, metavar="MODEL")
    group.add_argument("--codebook", default=None, metavar="MODEL")
    group.add_argument("--gmm", default=None, metavar="MODEL")
    power = group.add_mutually_exclusive_group()
    power.add_argument("--power-law", type=float, default=None, metavar="A")
    power.add_argument(
        "--adapted-power-law", type=float, default=None, metavar="A",
        help="use the pair-modulus power law with this exponent",
    )
    power.add_argument("--no-power-law", action="store_true")
    group.add_argument("--rn", default=None, metavar="MODEL")
    group.add_argument("--truncate", type=int, default=None, metavar="D")


def _add_manifest_flag(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--manifest", default=None, metavar="OUT.json",
        help="record the resolved configuration of a successful run for exact replay",
    )


def cmd_train(args) -> int:
    """Train the command's model on the training files, save it, report it.

    The flags that need no data are checked before any file is read.
    ``train-pca`` merges rows into ``CenteredMoments``: each file's rows
    as the file is read, so it holds one file and a few dim x dim
    matrices, never the corpus; with ``--sample``, the sampled matrix as
    one block, which is ``pca_train``. The other commands train on
    ``_load_training_matrix``.
    """
    if args.sample is not None:
        _require_positive("--sample", args.sample)
    if args.command == "train-pca":
        moments = CenteredMoments()
        if args.sample is None:
            blocks = _training_blocks(args.train_descriptors)
        else:
            blocks = [_load_training_matrix(args)]
        for X in blocks:
            moments.add(X)
        model, count = pca_from_moments(moments, args.out_dim), moments.count
        name = f"pca {model.out_dim}x{model.input_dim}"
    else:
        k, iters = check_k(args.k), check_iterations(args.iters)
        data = _load_training_matrix(args)
        train = kmeans_train if args.command == "train-kmeans" else gmm_train
        model, count = train(data, k, max_iter=iters, seed=args.seed), data.shape[0]
        name = f"{'k-means' if train is kmeans_train else 'gmm'} k={model.k} d={model.dim}"
    fileio.save_model(args.out, model)
    print(f"trained {name} from {count} descriptors -> {args.out}")
    return 0


def cmd_train_rn(args) -> int:
    store = fileio.read_vector_file(args.vectors)
    count, vectors = len(store), [store.vectors]
    del store
    # rn_train is handed the only reference, so it can free the vectors before its eigh
    model = rn_train(vectors.pop(), exponent=args.exponent, whiten=args.whiten)
    fileio.save_model(args.out, model)
    print(f"trained rn dim={model.dim} from {count} vectors -> {args.out}")
    return 0


@contextmanager
def _naming(path):
    """Prefix ``path`` to contract and degeneracy errors; format errors already name it."""
    try:
        yield
    except (ContractError, DegenerateDataError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _map_jobs(func, items, jobs: int) -> list:
    """``func`` over ``items`` in order, on ``jobs`` threads."""
    if jobs == 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(func, items))


def _open_database(path):
    """The vector store at ``path`` and the pipeline its header names."""
    store = fileio.read_vector_file(path)
    with _naming(path):
        pipeline = store.config.build()
    if pipeline.stored_layout() != (store.base_dim, store.n_freq):
        raise FormatError(
            f"{path}: header layout {(store.base_dim, store.n_freq)} does not match "
            f"the layout {pipeline.stored_layout()} of its pipeline config"
        )
    return store, pipeline


def cmd_encode(args) -> int:
    config = _pipeline_config(args)
    _require_positive("--jobs", args.jobs)
    pipeline = config.build()
    paths = _collect_descriptor_paths(args.descriptors)
    vectors = np.empty((len(paths), pipeline.output_dim), dtype="<f4")
    image_ids = [None] * len(paths)
    block_rows = max(1, ROWS_BYTES // (8 * pipeline.modulated_dim))

    def encode_rows(start):
        stop = min(start + block_rows, len(paths))

        def dsets():
            for row in range(start, stop):
                with _naming(paths[row]):
                    dset = fileio.read_descriptor_file(paths[row])
                    image_ids[row] = dset.image_id
                    yield dset

        reads = dsets()
        try:
            vectors[start:stop] = pipeline.encode_block(reads, stop - start)
        except (ContractError, DegenerateDataError) as exc:
            # the generator still waits inside the _naming of the set that
            # failed to encode, so the error comes back naming its file
            reads.throw(exc)

    _map_jobs(encode_rows, range(0, len(paths), block_rows), args.jobs)
    base_dim, n_freq = pipeline.stored_layout()
    fileio.write_vector_file(
        args.out, image_ids, vectors, base_dim=base_dim, n_freq=n_freq, config=config
    )
    print(f"encoded {len(image_ids)} images ({pipeline.output_dim} dims) -> {args.out}")
    return 0


def cmd_query(args) -> int:
    if args.top < 0:
        raise ContractError(f"--top must be non-negative, got {args.top}")
    _check_rotations(args.rotations)
    store, pipeline = _open_database(args.db)
    with _naming(args.query_desc):
        query = fileio.read_descriptor_file(args.query_desc)
        scores, thetas = query_multi_rotation(query, pipeline, store.vectors, args.rotations)
    order = retrieval.rank_rows(store.image_ids, scores).tolist()
    top = order[: args.top] if args.top else order
    writer = csv.writer(sys.stdout, delimiter="\t", lineterminator="\n")
    writer.writerow(("rank", "image_id", "score", "theta_star"))
    for rank, i in enumerate(top, start=1):
        writer.writerow((rank, store.image_ids[i], f"{scores[i]:.8f}", f"{thetas[i]:.8f}"))
    return 0


def cmd_evaluate(args) -> int:
    _check_rotations(args.rotations)
    _require_positive("--jobs", args.jobs)
    store, pipeline = _open_database(args.db)
    ground_truth = retrieval.read_ground_truth(args.gt, exclude_query=args.exclude_query)
    paths = _collect_descriptor_paths(args.queries)

    def evaluate_one(path):
        with _naming(path):
            query = fileio.read_descriptor_file(path)
            if query.image_id not in ground_truth:
                raise ContractError(f"no ground-truth entry for query {query.image_id!r}")
            scores, _ = query_multi_rotation(query, pipeline, store.vectors, args.rotations)
            ranked = retrieval.rank_by_score(store.image_ids, scores)
            return query.image_id, retrieval.average_precision(ranked, ground_truth[query.image_id])

    results = _map_jobs(evaluate_one, paths, args.jobs)
    for query_id, ap in results:
        print(f"{query_id}\t{ap:.6f}")
    print(f"mAP\t{retrieval.mean_ap([ap for _, ap in results]):.6f}")
    return 0


def _write_csv(path, header, rows):
    """``header`` and then ``rows`` as CSV lines, into the file at ``path`` or else to stdout."""
    out = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def cmd_angle_kernel_dump(args) -> int:
    config = _angle_map_config(args)
    coeffs = fourier_coeffs(config)
    if args.grid < 2:
        raise ContractError("grid must have at least 2 points")
    deltas = np.linspace(-np.pi, np.pi, args.grid)
    if config.family == VON_MISES:
        target = vm_kernel(deltas, config.kappa)
    else:
        target = np.cos(deltas / 2.0) ** config.power
    approx = truncated_kernel(deltas, coeffs)
    rows = ((f"{d:.10f}", f"{t:.12f}", f"{a:.12f}") for d, t, a in zip(deltas, target, approx))
    _write_csv(args.out, ("delta", "k_vm", "k_bar"), rows)
    return 0


def cmd_sim_hist(args) -> int:
    coeffs = fourier_coeffs(_angle_map_config(args))
    rows = similarity_histogram(
        fileio.read_descriptor_file(args.a),
        fileio.read_descriptor_file(args.b),
        args.bins,
        coeffs,
        value_bins=args.value_bins,
    )
    _write_csv(args.out, SIM_HIST_HEADER, rows)
    return 0


def cmd_synth(args) -> int:
    config = SynthConfig(
        n_queries=args.queries,
        matches_per_query=args.matches,
        n_distractors=args.distractors,
        descriptors_per_image=args.descriptors,
        dim=args.dim,
        shared_fraction=args.shared_fraction,
        noise_sigma=args.noise_sigma,
        angle_jitter=args.angle_jitter,
        seed=args.seed,
    )
    queries, database, ground_truth = generate_corpus(config)
    out_dir = Path(args.out_dir)
    query_dir = out_dir / "queries"
    db_dir = out_dir / "database"
    query_dir.mkdir(parents=True, exist_ok=True)
    db_dir.mkdir(parents=True, exist_ok=True)
    for dset in queries:
        fileio.write_descriptor_file(dset, query_dir / f"{dset.image_id}{DESCRIPTOR_SUFFIX}")
    for dset in database:
        fileio.write_descriptor_file(dset, db_dir / f"{dset.image_id}{DESCRIPTOR_SUFFIX}")
    retrieval.write_ground_truth(out_dir / "groundtruth.txt", ground_truth)
    print(
        f"wrote {len(queries)} queries and {len(database)} database images "
        f"({config.dim}-dim, {config.descriptors_per_image} descriptors each) under {out_dir}"
    )
    return 0


def _replay_argv(subparser, command: str, stored: dict) -> list:
    """The command line of ``command`` whose parse gives back the ``stored`` arguments."""
    stored = {key: value for key, value in stored.items() if key != "command"}
    options, positionals = [], []
    for action in subparser._actions:
        if action.dest not in stored:
            continue
        value = stored.pop(action.dest)
        if action.nargs == 0:
            if value not in (True, False):
                raise FormatError(f"manifest flag {action.dest!r} must be true or false")
            options += action.option_strings[:1] if value else []
            continue
        if isinstance(value, list) != (action.nargs == "+"):
            shape = "a list" if action.nargs == "+" else "a single value"
            raise FormatError(f"manifest value of {action.dest!r} must be {shape}")
        if value is None:
            continue
        values = [str(v) for v in value] if action.nargs == "+" else [str(value)]
        if not action.option_strings:
            positionals += values
        elif action.nargs == "+":
            options += [action.option_strings[0], *values]
        else:
            options.append(f"{action.option_strings[0]}={value}")
    if stored:
        raise FormatError(f"manifest holds unknown {command} arguments: {sorted(stored)}")
    return [command, *options, *(["--", *positionals] if positionals else [])]


def cmd_run_manifest(args) -> int:
    """Replay a manifest through the parser of its command, so every flag check runs."""
    try:
        with open(args.manifest_file, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:
        raise FormatError(f"{args.manifest_file}: not a JSON manifest: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("args", {}), dict):
        raise FormatError(f"{args.manifest_file}: manifest must map command and args")
    command = payload.get("command")
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if command not in commands.choices or command == "run-manifest":
        raise ContractError(f"manifest names unknown command {command!r}")
    argv = _replay_argv(commands.choices[command], command, payload.get("args", {}))
    try:
        replay = parser.parse_args(argv)
    except SystemExit as exc:
        raise FormatError(f"{args.manifest_file}: {command} rejects the manifest arguments") from exc
    return replay.func(replay)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covagg",
        description="Orientation-covariant aggregation of local descriptors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def training_parser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--train-descriptors", nargs="+", required=True, metavar="PATH",
                       help="held-out training files/dirs, disjoint from evaluation data")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sample", type=int, default=None,
                       help="subsample this many descriptors before training")
        _add_manifest_flag(p)
        p.set_defaults(func=cmd_train)
        return p

    p = training_parser("train-pca", "train a PCA model on descriptors")
    p.add_argument("--out-dim", type=int, required=True)

    p = training_parser("train-kmeans", "train a k-means codebook")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--pca", default=None, metavar="MODEL")

    p = training_parser("train-gmm", "train a diagonal GMM")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--pca", default=None, metavar="MODEL")

    p = sub.add_parser("train-rn", help="learn the rotation + renormalization model")
    p.add_argument("--vectors", required=True, help="encoded vectors from a held-out corpus")
    p.add_argument("--exponent", type=float, default=0.5)
    p.add_argument("--whiten", action="store_true")
    p.add_argument("--out", required=True)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_train_rn)

    p = sub.add_parser("encode", help="encode descriptor files into a vector file")
    p.add_argument("descriptors", nargs="+", metavar="PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    _add_pipeline_flags(p)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("query", help="rank a database against one query")
    p.add_argument("--db", required=True)
    p.add_argument("--query-desc", required=True)
    p.add_argument("--rotations", type=int, default=1)
    p.add_argument("--top", type=int, default=10, help="rows to print (0: all)")
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("evaluate", help="mean average precision over a query set")
    p.add_argument("--db", required=True)
    p.add_argument("--queries", nargs="+", required=True, metavar="PATH")
    p.add_argument("--gt", required=True)
    p.add_argument("--rotations", type=int, default=1)
    p.add_argument("--exclude-query", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("angle-kernel-dump", help="CSV of the angle kernel and its series")
    _add_angle_flags(p)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--out", default=None)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_angle_kernel_dump)

    p = sub.add_parser("sim-hist", help="per-angle-bin similarity histograms as CSV")
    p.add_argument("--a", required=True, help="descriptor file: first element of each pair")
    p.add_argument("--b", required=True, help="descriptor file: second element of each pair")
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--value-bins", type=int, default=24)
    _add_angle_flags(p)
    p.add_argument("--out", default=None)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_sim_hist)

    defaults = SynthConfig()
    p = sub.add_parser("synth", help="generate a synthetic planted-match corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--queries", type=int, default=defaults.n_queries)
    p.add_argument("--matches", type=int, default=defaults.matches_per_query)
    p.add_argument("--distractors", type=int, default=defaults.n_distractors)
    p.add_argument("--descriptors", type=int, default=defaults.descriptors_per_image)
    p.add_argument("--dim", type=int, default=defaults.dim)
    p.add_argument("--shared-fraction", type=float, default=defaults.shared_fraction)
    p.add_argument("--noise-sigma", type=float, default=defaults.noise_sigma)
    p.add_argument("--angle-jitter", type=float, default=defaults.angle_jitter)
    p.add_argument("--seed", type=int, default=defaults.seed)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run-manifest", help="replay a recorded configuration")
    p.add_argument("manifest_file")
    p.set_defaults(func=cmd_run_manifest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a library warning reaches the user as one line, like an error
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"covagg: warning: {message}\n"
    try:
        code = args.func(args)
        if code == 0:
            _write_manifest(args)
        return code
    except CovaggError as exc:
        print(f"covagg: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:  # an unreadable path, or a size too large to allocate
        print(f"covagg: error: {exc}", file=sys.stderr)
        return ContractError.exit_code
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
