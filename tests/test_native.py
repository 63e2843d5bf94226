"""Tests for the shared on-demand C build (repro.native)."""

import sys

import pytest

from repro import native
from repro.mapping import engine
from repro.sim import batchcore

CDEF = "int twice(int x);"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "repro"


needs_compiler = pytest.mark.skipif(
    native._compiler() is None, reason="no C compiler"
)


@needs_compiler
def test_builds_once_into_a_per_library_cache(tmp_path, cache, monkeypatch):
    pytest.importorskip("cffi")
    source = tmp_path / "_twice.c"
    source.write_text("int twice(int x) { return 2 * x; }\n")
    _, lib = native.Library(source, CDEF).load()
    assert lib.twice(21) == 42
    built = list((cache / "twice").glob("_twice-*.so"))
    assert len(built) == 1
    # A second library on the same source reuses the cached object.
    monkeypatch.setattr(native, "_compiler", lambda: None)
    _, again = native.Library(source, CDEF).load()
    assert again.twice(4) == 8


@needs_compiler
def test_a_failed_build_is_remembered(tmp_path, cache, monkeypatch):
    pytest.importorskip("cffi")
    source = tmp_path / "_broken.c"
    source.write_text("int twice(int x) { return 2 * ; }\n")
    library = native.Library(source, CDEF)
    assert library.load() is None
    assert "compilation failed" in library.failure
    calls = []
    monkeypatch.setattr(native, "_build", lambda *a: calls.append(a))
    assert library.load() is None
    assert calls == []


def test_a_missing_compiler_fails_softly(tmp_path, cache, monkeypatch):
    pytest.importorskip("cffi")
    source = tmp_path / "_twice.c"
    source.write_text("int twice(int x) { return 2 * x; }\n")
    monkeypatch.setattr(native, "_compiler", lambda: None)
    library = native.Library(source, CDEF)
    assert library.load() is None
    assert "no C compiler" in library.failure


def test_missing_cffi_fails_softly(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "cffi", None)
    library = native.Library(tmp_path / "_twice.c", CDEF)
    assert library.load() is None
    assert library.failure == "cffi is not installed"


def test_the_mapping_engine_does_not_hold_the_batch_core_loader():
    # Tracing rebinds batchcore.load wherever a repro module names it
    # and wraps what it returns as the batch core; the swap kernel has
    # its own loader.
    assert engine.load is not batchcore.load
    assert all(value is not batchcore.load for value in vars(engine).values())
