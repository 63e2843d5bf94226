"""Run provenance manifests.

A manifest records everything needed to trace a figure or table back to
its exact inputs: the git revision and Python the run used, a stable
hash of the swept parameters, the RNG seeds in play, a counter snapshot
of the solver work performed, and wall/CPU time.  One is written next to
every ``--trace`` capture (and by :func:`repro.obs.write_outputs`
generally), and the JSON round-trips losslessly:
``RunManifest.load(path) == manifest``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

__all__ = [
    "RunManifest",
    "parameter_hash",
    "git_revision",
    "build_manifest",
]

#: Manifest schema revision; bump when fields change incompatibly.
SCHEMA_VERSION = 1


def parameter_hash(parameters: Dict) -> str:
    """Stable SHA-256 of a parameter mapping.

    Parameters are serialized as canonical JSON (sorted keys, no
    whitespace variance), so the hash is insensitive to dict ordering
    and identical across processes and platforms for identical values.
    """
    canonical = json.dumps(
        parameters, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_revision() -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout."""
    env_sha = os.environ.get("GITHUB_SHA")
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if completed.returncode == 0:
            return completed.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return env_sha or "unknown"


@dataclass
class RunManifest:
    """Provenance record for one experiment/campaign run."""

    experiments: List[str]
    parameters: Dict
    parameter_hash: str
    git_sha: str
    python_version: str
    platform: str
    rng_seeds: Dict
    counters: Dict
    metrics: Dict
    wall_seconds: float
    cpu_seconds: float
    created: str
    schema_version: int = SCHEMA_VERSION

    def as_dict(self) -> Dict:
        return asdict(self)

    def write(self, path: str) -> str:
        """Serialize to JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def build_manifest(
    experiments: Sequence[str],
    parameters: Optional[Dict] = None,
    rng_seeds: Optional[Dict] = None,
    wall_seconds: float = 0.0,
    cpu_seconds: float = 0.0,
) -> RunManifest:
    """Assemble a :class:`RunManifest` for the current process state.

    ``parameters`` should hold every input that selects what the run
    computed (experiment ids, quick flag, job count, sweep overrides);
    the manifest stores both the mapping and its canonical hash.
    ``counters`` holds the solver's ``perf.*`` counters keyed without
    the prefix; ``metrics`` the full :data:`repro.obs.metrics.REGISTRY`
    snapshot.
    """
    from repro.obs.metrics import REGISTRY

    metrics = REGISTRY.snapshot()
    parameters = dict(parameters or {})
    parameters.setdefault("experiments", list(experiments))
    seeds = dict(rng_seeds or {})
    seeds.setdefault(
        "python_hash_seed", os.environ.get("PYTHONHASHSEED", "random")
    )
    return RunManifest(
        experiments=list(experiments),
        parameters=parameters,
        parameter_hash=parameter_hash(parameters),
        git_sha=git_revision(),
        python_version=sys.version.split()[0],
        platform=platform.platform(),
        rng_seeds=seeds,
        counters={
            name[len("perf."):]: metric["value"]
            for name, metric in metrics.items()
            if name.startswith("perf.")
        },
        metrics=metrics,
        wall_seconds=float(wall_seconds),
        cpu_seconds=float(cpu_seconds),
        created=datetime.now(timezone.utc).isoformat(),
    )
