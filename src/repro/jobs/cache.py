"""Digest-keyed result caching over the content-addressed run store.

Every front-end caches finished work the same way: a store ref (named by
the front-end's own keying scheme) points at a content-addressed
artifact, and the ref's ``meta.source_digest`` records which source tree
produced it.  Loading applies one shared discipline:

* ``hit`` -- the ref exists, is keyed on the current source digest, and
  its artifact reads back clean (its bytes hash to its address) with the
  expected kind;
* ``miss`` -- no ref, or the referenced object is gone;
* ``stale`` -- the ref is keyed on another source digest (any source
  change invalidates the whole cache);
* ``corrupt`` -- the ref is unreadable, the artifact's bytes no longer
  hash to its address, or the artifact has the wrong kind.

Stale and corrupt entries are logged and *never* served -- callers fall
back to re-execution, and re-putting the recomputed artifact heals a
corrupt object in place (puts are idempotent).
"""

from __future__ import annotations

import logging
import time
from typing import Any, Dict, Optional, Tuple

from repro.store import RunArtifact, RunStore, StoreError, StoreMissingError

log = logging.getLogger(__name__)

__all__ = ["load_ref_artifact", "store_ref_artifact"]


def load_ref_artifact(
    store: RunStore,
    name: str,
    source_digest: Optional[str],
    kind: Optional[str] = None,
) -> Tuple[Optional[RunArtifact], str, Optional[str]]:
    """Resolve cache ref ``name`` to its artifact, or say why not.

    Returns ``(artifact, "hit", digest)`` on success, where ``digest`` is
    the artifact's content address (its bytes were just verified against
    it), and ``(None, status, None)`` otherwise, with ``status`` one of
    ``miss`` / ``stale`` / ``corrupt`` (see module docstring).  ``kind``,
    when given, must match the artifact's kind -- a mismatch is treated
    as corrupt (the ref points at something this cache never wrote).
    """
    if source_digest is None:
        return None, "miss", None
    try:
        entry = store.get_ref(name)
    except StoreError as exc:
        log.warning("corrupt cache ref %s (%s); re-executing", name, exc)
        return None, "corrupt", None
    if entry is None:
        return None, "miss", None
    meta = entry.get("meta", {})
    if meta.get("source_digest") != source_digest:
        log.warning(
            "stale cache ref %s (stored digest %r != %r); re-executing",
            name, meta.get("source_digest"), source_digest,
        )
        return None, "stale", None
    digest = entry["digest"]
    try:
        artifact = store.get(digest)
    except StoreMissingError:
        return None, "miss", None
    except StoreError as exc:
        log.warning("corrupt cache entry %s (%s); re-executing", name, exc)
        return None, "corrupt", None
    if kind is not None and artifact.kind != kind:
        log.warning(
            "cache ref %s points at a %r artifact (want %r); re-executing",
            name, artifact.kind, kind,
        )
        return None, "corrupt", None
    return artifact, "hit", digest


def store_ref_artifact(
    store: RunStore,
    name: str,
    artifact: RunArtifact,
    meta: Dict[str, Any],
) -> str:
    """Put ``artifact`` and point ref ``name`` at it; returns the digest.

    ``meta`` is stamped with ``created`` (wall time) so refs are
    self-describing; callers supply the keying fields (source digest,
    task identity) that :func:`load_ref_artifact` validates.
    """
    digest = store.put(artifact)
    store.set_ref(name, digest, meta={**meta, "created": time.time()})
    return digest
