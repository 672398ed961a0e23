"""``rollup_1m_incremental`` (events.rollup_table_ingest) in a 1-CPU Ray
session: the lazy ``old.union(new)`` over a still-unsorted ``old`` used
to stall Ray's executor there at sf0.1 (sf0.001 and sf0.01 finished).
The query must finish under a timeout and return the rows of a 2-CPU
session."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SF = "/root/testdata/sf0.1"

JOB = """
import ray, sys
ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
         logging_level="ERROR")
from feasts_ray.pipelines.queries import ALL_QUERIES
print("ROWS", ALL_QUERIES["rollup_1m_incremental"]({sf!r}).count())
ray.shutdown()
"""


def _rows(cpus: int) -> int:
    """Row count of the query in a fresh ``cpus``-CPU session; workers
    import the package from this checkout. The child runs in its own
    session, and every process left in it (a raylet or GCS server that
    outlived the driver) is killed when it returns or times out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO), os.environ.get("PYTHONPATH")])))
    p = subprocess.Popen(
        [sys.executable, "-c", JOB.format(cpus=cpus, sf=SF)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = p.communicate(timeout=120)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        p.communicate()
    assert p.returncode == 0, err[-2000:]
    return int(out.split("ROWS", 1)[1].split()[0])


@pytest.mark.slow
@pytest.mark.skipif(not Path(SF).is_dir(), reason="needs the sf0.1 tables")
def test_rollup_1m_incremental_one_cpu():
    assert _rows(1) == _rows(2) > 0
