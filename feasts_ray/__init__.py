"""feasts_ray — a Ray-Data-native time-series rollup / feature engine.

A brand-new engine (not a port) with the query and data-processing
capabilities of tidyverts/feasts (reference at /root/reference), built
on ray.data.Dataset pipelines: streaming Parquet scan -> zero-copy Arrow
map_batches kernels -> groupby-aggregate shuffles -> sort -> write.

Top-level layout:
  codecs/     Gorilla XOR float + delta-of-delta int bit codecs
  oracle/     single-process NumPy oracle (plays the role R ``stats::*``
              plays for the reference's tests)
  stages/     Ray Data stage builders (bucketize, rollup, tier kernel,
              encode, features, correlograms, decompositions)
  pipelines/  end-to-end pipelines (flagship rollup+retention pipeline)
  functions/  feature registry + pure vector->scalars kernels
  state/      checkpoint manifests / lineage for resumable runs
  synth.py    deterministic synthetic token-sequence table (input_hint shape)
  timebase.py shared deterministic event-time derivation
"""

__version__ = "0.1.0"


# Ray re-imports fsspec.implementations.http for every path it resolves and
# catches only ModuleNotFoundError. Without aiohttp, two threads resolving
# paths at once can see each other's half-initialized module and get a
# plain ImportError. A None entry makes every later import raise
# ModuleNotFoundError at once.
try:
    import fsspec.implementations.http  # noqa: F401
except ModuleNotFoundError:
    import sys

    sys.modules["fsspec.implementations.http"] = None
