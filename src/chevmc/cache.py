"""Content-addressed on-disk cache for printed tables.

An entry holds a block of text exactly as it is printed, next to the
SHA-256 of that text: a JSON file {"sha256": <hex>, "text": <block>}
named by the SHA-256 of its canonical key.  The key includes the
package version and a digest of the package sources, so results from
stale code are never reused.  An entry that cannot be read, or whose
text does not match its digest, is a miss: one changed byte is caught,
but an entry whose digest was rewritten with it is trusted.  Writes use
a temp-file rename so concurrent writers of the same key converge on
identical content.
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
    """The stored text, or None on a miss or an entry that cannot be
    read or does not match its digest."""
    if not directory:
        return None
    path = os.path.join(directory, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        text = entry["text"]
        if hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]:
            return text
    # unreadable, not UTF-8 or JSON, another shape, or text not a str
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        pass
    return None


def cache_put(directory, key, text):
    """Store a text and its digest atomically; IO errors propagate."""
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    blob = json.dumps({"sha256": hashlib.sha256(text.encode()).hexdigest(),
                       "text": text})
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(blob)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
