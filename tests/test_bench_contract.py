"""The benchmark's tracer (rollbench/layers.py) wraps program functions
by module attribute name, and its install runs outside the round's
error handling: a renamed or removed wrap point fails every traced
benchmark run. These tests pin the names and the positional slots the
tracer reads."""

import inspect

from feasts_ray.pipelines import (compaction, incremental, retention,
                                  rollup_pipeline)
from rollbench.layers import Tracer

WRAP_POINTS = {
    rollup_pipeline: ("write_tier_points", "run_token_features_and_archive",
                      "spans_from_partials", "run_rollup"),
    retention: ("reenforce_retention",),
    incremental: ("run_rollup_incremental", "_selective_tier_merge",
                  "_features_delta", "_archive_delta", "run_rollup"),
    compaction: ("compact_all",),
}


def test_tracer_installs_over_every_wrap_point():
    before = {(m, n): getattr(m, n) for m, names in WRAP_POINTS.items()
              for n in names}
    tracer = Tracer()
    tracer.install()
    try:
        for (module, name), orig in before.items():
            assert callable(orig), f"{module.__name__}.{name}"
            wrapped = getattr(module, name)
            assert callable(wrapped) and wrapped is not orig, name
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for (module, name), orig in before.items():
        assert getattr(module, name) is orig, f"{module.__name__}.{name}"


def test_positional_slots_the_tracer_reads():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    # tier spans key on unit_s = args[3]; ingest phases on tier = args[2]
    assert params(rollup_pipeline.write_tier_points)[3] == "unit_s"
    assert params(incremental._selective_tier_merge)[2] == "tier"


def test_kernel_probe_call_forms():
    """The tracer's kernel probe calls ``partial_rollup_batch(timed,
    unit_s=1)`` and ``cascade_batch(partial, unit_s=60)``; both keep
    that form and yield int64 min/max."""
    import pyarrow as pa

    from feasts_ray.stages.bucketize import add_time_columns
    from feasts_ray.stages.rollup import cascade_batch, partial_rollup_batch
    from feasts_ray.synth import token_chunk

    timed = add_time_columns(token_chunk(0, 64).select(
        ["doc_id", "n_tok", "source"]))
    partial = partial_rollup_batch(timed, unit_s=1)
    coarse = cascade_batch(partial, unit_s=60)
    for t in (partial, coarse):
        for c in ("count", "sum", "min", "max"):
            assert t.schema.field(c).type == pa.int64(), c
        assert sum(t["count"].to_pylist()) == 64
