"""Content-addressed on-disk cache for computed tables.

Entries are JSON files named by the SHA-256 of their canonical key,
which includes the package version and a digest of the package sources
so results from stale code are never reused.  Corrupted entries are
treated as misses and recomputed; write uses a temp-file rename so
concurrent writers of the same key converge on identical content.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

from . import __version__

ENV_CACHE_DIR = "CHEVMC_CACHE_DIR"


@functools.lru_cache(maxsize=None)
def source_digest():
    """SHA-256 over the package's source files, computed once per
    process."""
    package = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith((".py", ".json")):
            h.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def cache_key(kind, family, rank, lam=None, w=None, method=None, extra=None):
    """Stable digest of the computation identity, including the code
    version and source."""
    payload = {
        "kind": kind,
        "family": family,
        "rank": rank,
        "lambda": list(lam) if lam is not None else None,
        "w": w,
        "method": method,
        "extra": extra,
        "version": __version__,
        "source": source_digest(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir():
    return os.environ.get(ENV_CACHE_DIR)


def cache_get(directory, key):
    """The stored document, or None on a miss or an entry that cannot be
    read or parsed."""
    if not directory:
        return None
    path = os.path.join(directory, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
        return None


def cache_put(directory, key, value):
    """Store a JSON document atomically; IO errors propagate."""
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    # without indent, json uses its C encoder
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
