"""Importing feasts_ray makes Ray's lazy fsspec HTTP import safe across
threads: without aiohttp, two threads resolving paths at once could see
each other's half-initialized ``fsspec.implementations.http`` and raise a
plain ImportError that Ray does not catch."""

import importlib.util
import sys
import threading

import feasts_ray  # noqa: F401


def test_missing_fsspec_http_is_pinned():
    if importlib.util.find_spec("aiohttp") is None:
        assert sys.modules["fsspec.implementations.http"] is None


def test_two_threads_resolving_paths_raise_nothing():
    from ray.data.datasource.path_util import _resolve_paths_and_filesystem

    errors = []

    def resolve():
        for _ in range(300):
            try:
                _resolve_paths_and_filesystem(["/tmp"])
            except ImportError as e:
                errors.append(repr(e))

    threads = [threading.Thread(target=resolve) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert errors == []
