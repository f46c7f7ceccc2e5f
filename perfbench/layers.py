"""Per-layer metrics, and which workload each layer's time should show on.

``PER_LAYER`` lists the metrics a traced run reports, with units. Names
are ``<module>.<function>.<stat>``: ``calls`` and ``rows`` are counts,
``busy_s`` is the summed duration of a function's outermost spans and
``self_s`` is that duration minus the time of the wrapped functions it
called. ``phase.train.busy_s`` is the training commands' wall time under
tracing and ``trace.overhead`` is the traced run's wall time over the
untraced run's, minus one, for the same work.

``LAYERS`` records the prediction made before measuring: the time metrics
of each layer, the end-to-end metrics a change in that layer should move,
the workloads where its time should be largest (stress) and those where
it should be small (bypass).

Run ``python3 perfbench/layers.py`` after a traced run of every workload
(``perfbench/run.py --trace 1``) to compare the prediction with the
measurement; mismatches are printed, not hidden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PER_LAYER = (
    ("fileio.read_descriptor_file.calls", "count"),
    ("fileio.read_descriptor_file.busy_s", "s"),
    ("fileio.write_vector_file.busy_s", "s"),
    ("fileio.read_vector_file.busy_s", "s"),
    ("fileio.load_model.busy_s", "s"),
    ("fileio.bytes_read", "B"),
    ("fileio.bytes_written", "B"),
    ("cli.encode.self_s", "s"),
    ("pipeline.build.busy_s", "s"),
    ("pipeline.prepare.calls", "count"),
    ("pipeline.prepare.self_s", "s"),
    ("monomial.phi_monomial_batch.self_s", "s"),
    ("monomial.phi_monomial_batch.rows", "count"),
    ("descriptors.embed_batch.calls", "count"),
    ("descriptors.embed_batch.self_s", "s"),
    ("descriptors.embed_batch.rows", "count"),
    ("angle_map.angle_feature_batch.calls", "count"),
    ("angle_map.angle_feature_batch.busy_s", "s"),
    ("aggregate.aggregate.self_s", "s"),
    ("aggregate.aggregate_rotations.calls", "count"),
    ("aggregate.aggregate_rotations.self_s", "s"),
    ("postprocess.power_law.busy_s", "s"),
    ("postprocess.adapted_power_law.busy_s", "s"),
    ("postprocess.rn_apply.calls", "count"),
    ("postprocess.rn_apply.busy_s", "s"),
    ("postprocess.truncate_l2.busy_s", "s"),
    ("postprocess.rn_train.busy_s", "s"),
    ("scoring.query_multi_rotation.self_s", "s"),
    ("scoring.query_multi_rotation.flops", "flop"),
    ("scoring.query_multi_rotation.bytes", "B"),
    ("scoring.score_polynomial.calls", "count"),
    ("scoring.block_dots", "count"),
    ("scoring.max_score.busy_s", "s"),
    ("retrieval.rank_by_score.busy_s", "s"),
    ("retrieval.average_precision.busy_s", "s"),
    ("codebooks.pca_train.busy_s", "s"),
    ("codebooks.gmm_train.busy_s", "s"),
    ("phase.train.busy_s", "s"),
    ("trace.overhead", "ratio"),
)

# layer: (time metrics summed, end-to-end metrics it should move, stress, bypass)
LAYERS = {
    "fileio": (
        ("fileio.read_descriptor_file.busy_s", "fileio.write_vector_file.busy_s",
         "fileio.read_vector_file.busy_s", "fileio.load_model.busy_s"),
        ("encode_images_per_s", "setup_s", "peak_rss_mb"),
        ("phi2-bigdb",), ("phi3-dense",),
    ),
    "cli": (
        ("cli.encode.self_s",),
        ("encode_images_per_s", "peak_rss_mb"),
        ("phi2-bigdb",), ("phi3-dense",),
    ),
    "pipeline": (
        ("pipeline.build.busy_s", "pipeline.prepare.self_s"),
        ("encode_images_per_s", "query_ms_p50"),
        ("fisher-rn",), ("phi2-bigdb", "phi3-dense"),
    ),
    "monomial": (
        ("monomial.phi_monomial_batch.self_s",),
        ("encode_images_per_s", "query_ms_p50"),
        ("phi3-dense",), ("fisher-rn",),
    ),
    "descriptors": (
        ("descriptors.embed_batch.self_s",),
        ("encode_images_per_s",),
        ("fisher-rn",), ("phi2-bigdb",),
    ),
    "angle_map": (
        ("angle_map.angle_feature_batch.busy_s",),
        ("query_ms_p50",),
        ("phi3-dense",), ("phi2-bigdb",),
    ),
    "aggregate": (
        ("aggregate.aggregate.self_s", "aggregate.aggregate_rotations.self_s"),
        ("encode_images_per_s", "query_ms_p50"),
        ("phi3-dense",), ("phi2-bigdb",),
    ),
    "postprocess": (
        ("postprocess.power_law.busy_s", "postprocess.adapted_power_law.busy_s",
         "postprocess.rn_apply.busy_s", "postprocess.truncate_l2.busy_s",
         "postprocess.rn_train.busy_s"),
        ("query_ms_p50", "train_s"),
        ("fisher-rn", "phi3-dense"), ("phi2-bigdb",),
    ),
    "scoring": (
        ("scoring.query_multi_rotation.self_s", "scoring.max_score.busy_s"),
        ("query_ms_p50", "queries_per_s"),
        ("phi2-bigdb", "phi3-dense"), ("fisher-rn",),
    ),
    "retrieval": (
        ("retrieval.rank_by_score.busy_s", "retrieval.average_precision.busy_s"),
        ("query_ms_p50", "query_ms_p90"),
        ("phi2-bigdb",), ("phi3-dense",),
    ),
    "codebooks": (
        ("codebooks.pca_train.busy_s", "codebooks.gmm_train.busy_s"),
        ("train_s",),
        ("fisher-rn",), ("phi3-dense", "phi2-bigdb"),
    ),
}

# A bypass workload's layer time counts as small below this share of the
# smallest stress-workload time.
SMALL_SHARE = 0.1


def layer_time(metrics: dict, layer: str) -> float:
    return sum(metrics[name]["value"] or 0.0 for name in LAYERS[layer][0])


def role(layer: str, workload: str) -> str:
    _, _, stress, bypass = LAYERS[layer]
    if workload in stress:
        return "stress"
    if workload in bypass:
        return "bypass"
    return "-"


def compare(per_workload: dict) -> list:
    """One line per layer: times on every workload and the verdict.

    ``per_workload`` maps workload name to its per-layer metrics dict.
    """
    lines = []
    for layer, (_, moves, stress, bypass) in LAYERS.items():
        times = {w: layer_time(m, layer) for w, m in per_workload.items()}
        problems = []
        for s in stress:
            if s not in times:
                problems.append(f"no trace for stress workload {s}")
                continue
            for w, t in times.items():
                if w not in stress and t > times[s]:
                    problems.append(f"{w} ({t:.4g} s) exceeds stress {s} ({times[s]:.4g} s)")
        stress_times = [times[s] for s in stress if s in times]
        for b in bypass:
            if b in times and stress_times and times[b] > SMALL_SHARE * min(stress_times):
                problems.append(
                    f"bypass {b} ({times[b]:.4g} s) above {SMALL_SHARE:.0%} of stress"
                )
        cells = "  ".join(f"{w}={t:.4g}s" for w, t in times.items())
        verdict = "OK" if not problems else "MISMATCH: " + "; ".join(problems)
        lines.append(f"{layer:<12} {cells}  moves {','.join(moves)}  {verdict}")
    return lines


def main(argv=None) -> int:
    from workloads import WORKLOAD_NAMES

    out_dir = Path(__file__).resolve().parent.parent / ".perfbench" / "out"
    per_workload = {}
    for name in WORKLOAD_NAMES:
        path = out_dir / f"{name}.trace.json"
        if path.is_file():
            per_workload[name] = json.loads(path.read_text(encoding="utf-8"))["metrics"]
        else:
            print(f"{name}: no traced run found at {path}", file=sys.stderr)
    if not per_workload:
        return 1
    for line in compare(per_workload):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
