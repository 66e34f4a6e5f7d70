"""Persistent cache for Monte Carlo moment estimates.

Building a modulus-density table costs one negative-moment estimate per
grid point; these are pure functions of (tau, coupling, insertions,
resolution, seed), so each is memoized in its own file, <key>.json, named
by a content hash of that configuration.  A write goes to a temp file in
the same directory and is moved into place with os.replace, so readers
never observe a partial record and concurrent writers, threads or
processes, never lose one another's moments.  A file that is missing or
does not parse as a JSON object is a miss, never trusted.

The default location is ~/.cache/torus-lqg; the TORUS_LQG_CACHE_DIR
environment variable overrides it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

__all__ = ["MomentCache", "SAMPLER_VERSION", "default_cache_dir", "moment_key"]

# Version of the replica sampler that produced a moment.  It enters every
# key, so a change to the draws, the field synthesis, the potential H, the
# chaos normalization or the standard error, which moves a record in any
# bit, never reads the records an earlier sampler wrote.  Version 18 keeps
# a standard error whose squared pair deviations underflow from reading 0
# (pair_mean_se); README and CHANGES.md record earlier versions.
SAMPLER_VERSION = 18

# per-process counter in temp file names, so no two puts share one
_TEMP_IDS = itertools.count()


def default_cache_dir() -> Path:
    override = os.environ.get("TORUS_LQG_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "torus-lqg"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def moment_key(
    tau: complex,
    gamma: float,
    insertions,
    cutoff: int,
    grid_factor: int,
    eps: float,
    replicas: int,
    seed: int,
    base_stream: int,
) -> str:
    """Content hash of everything the moment estimate depends on.

    Floats enter as exact hex so the key never aliases two distinct
    configurations; mu is deliberately absent (the moment does not depend
    on it).  SAMPLER_VERSION enters too.
    """
    payload = {
        "kind": "negative-moment",
        "sampler": SAMPLER_VERSION,
        "tau": [float(tau.real).hex(), float(tau.imag).hex()],
        "gamma": float(gamma).hex(),
        "insertions": [
            [float(i.x1).hex(), float(i.x2).hex(), float(i.alpha).hex()]
            for i in insertions
        ],
        "cutoff": int(cutoff),
        "grid_factor": int(grid_factor),
        "eps": float(eps).hex(),
        "replicas": int(replicas),
        "seed": int(seed),
        "base_stream": int(base_stream),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


@dataclass
class MomentCache:
    directory: Path | None = None

    def __post_init__(self):
        if self.directory is None:
            self.directory = default_cache_dir()
        self.directory = Path(self.directory)

    def get(self, key: str) -> dict | None:
        try:
            with open(self.directory / f"{key}.json", encoding="utf-8") as fh:
                record = json.load(fh)
        except (FileNotFoundError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def put(self, key: str, record: dict) -> None:
        """Write record as <key>.json: the JSON text goes to a temp file of
        its own, created exclusively under a name unique to this process,
        thread and call, in one os.write, then os.replace moves it into
        place.  The directory is made only when the first open misses it."""
        data = json.dumps(record, sort_keys=True).encode()
        while True:
            tmp = self.directory / (
                f"{key}.{os.getpid()}.{threading.get_ident()}.{next(_TEMP_IDS)}.tmp"
            )
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileNotFoundError:
                self.directory.mkdir(parents=True, exist_ok=True)
            except FileExistsError:  # left behind by an earlier process of this pid
                pass
            else:
                break
        try:
            try:
                if os.write(fd, data) != len(data):
                    raise OSError(f"short write of cache record {tmp}")
            finally:
                os.close(fd)
            os.replace(tmp, self.directory / f"{key}.json")
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
