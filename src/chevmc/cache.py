"""Content-addressed on-disk cache for printed output.

An entry holds the output of one invocation exactly as it is printed,
after the SHA-256 of its bytes: the 64-character hex digest, a newline,
then the UTF-8 bytes of the output, in a file named by the SHA-256 of
its canonical key (with the suffix .json).  The key includes the package
version and a digest of the package sources, so results from stale
code are never reused.  An entry that cannot be read, has no digest
line, or whose bytes do not match their digest or are not UTF-8, is a
miss: one changed byte is caught, but an entry whose digest was
rewritten with it is trusted.  Writes use a temp-file rename so
concurrent writers of the same key converge on identical content, with
the mode of an ordinary file under the umask, not mkstemp's 0600.
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
    read, does not match its digest or is not UTF-8."""
    if not directory:
        return None
    try:
        with open(os.path.join(directory, key + ".json"), "rb") as fh:
            digest, newline, body = fh.read().partition(b"\n")
        if newline and hashlib.sha256(body).hexdigest().encode() == digest:
            return body.decode("utf-8")
    # no entry, one that cannot be read, or a body that is not UTF-8
    except (OSError, UnicodeDecodeError):
        pass
    return None


def cache_put(directory, key, text):
    """Store a text after its digest atomically; IO errors propagate."""
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    body = text.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n")
            fh.write(body)
        os.umask(mask := os.umask(0))
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
