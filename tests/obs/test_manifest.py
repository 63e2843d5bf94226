"""Tests for run-provenance manifests and parameter hashing."""

import json

from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    git_revision,
    parameter_hash,
)


class TestParameterHash:
    def test_stable_across_key_order(self):
        assert parameter_hash({"a": 1, "b": 2}) == parameter_hash(
            {"b": 2, "a": 1}
        )

    def test_sensitive_to_values(self):
        assert parameter_hash({"a": 1}) != parameter_hash({"a": 2})

    def test_is_hex_sha256(self):
        digest = parameter_hash({"quick": True})
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_handles_non_json_values(self):
        # default=str: any stringifiable value hashes deterministically.
        assert parameter_hash({"p": (1, 2)}) == parameter_hash({"p": (1, 2)})


class TestBuildManifest:
    def test_captures_provenance_fields(self):
        manifest = build_manifest(
            ["figure-3"],
            parameters={"quick": True},
            rng_seeds={"anneal": 7},
            wall_seconds=1.5,
            cpu_seconds=1.2,
        )
        assert manifest.experiments == ["figure-3"]
        assert manifest.parameters["quick"] is True
        assert manifest.parameters["experiments"] == ["figure-3"]
        assert manifest.parameter_hash == parameter_hash(manifest.parameters)
        assert manifest.git_sha == git_revision()
        assert manifest.git_sha != ""
        assert manifest.python_version.count(".") == 2
        assert manifest.rng_seeds["anneal"] == 7
        assert "python_hash_seed" in manifest.rng_seeds
        assert "solve_calls" in manifest.counters
        assert manifest.wall_seconds == 1.5
        assert manifest.cpu_seconds == 1.2
        assert manifest.schema_version == 1

    def test_git_sha_in_this_checkout(self):
        # The repo is a git checkout, so the SHA must resolve.
        sha = git_revision()
        assert sha != "unknown"
        assert len(sha) == 40


class TestRoundTrip:
    def test_write_load_equality(self, tmp_path):
        manifest = build_manifest(
            ["table-1", "figure-7"],
            parameters={"quick": False, "jobs": 2},
            wall_seconds=3.25,
            cpu_seconds=3.0,
        )
        path = manifest.write(str(tmp_path / "manifest.json"))
        loaded = RunManifest.load(path)
        assert loaded == manifest

    def test_written_json_is_sorted_and_plain(self, tmp_path):
        manifest = build_manifest(["figure-3"], parameters={"quick": True})
        path = manifest.write(str(tmp_path / "manifest.json"))
        with open(path) as handle:
            data = json.load(handle)
        assert list(data) == sorted(data)
        assert data["schema_version"] == 1

    def test_from_dict_ignores_unknown_fields(self):
        manifest = build_manifest(["figure-3"])
        data = dict(manifest.as_dict(), future_field="ignored")
        assert RunManifest.from_dict(data) == manifest
