"""Content-addressed, schema-versioned run store.

On-disk layout (everything JSON, every write atomic via
:mod:`repro.ioutil`, safe under concurrent writers)::

    <root>/
      objects/<dd>/<digest>.json   immutable artifacts, named by the
                                   SHA-256 of their canonical JSON bytes
      refs/<namespace>/<key>.json  mutable pointers (cache keys -> digest,
                                   plus arbitrary lookup metadata)
      runs/<run-id>.json           run documents: one invocation's
                                   manifest digest + named artifact set

Identity and dedup come from content addressing: two runs producing the
same record write the same object once.  Mutability (which digest a cache
key currently resolves to, which run produced what) is confined to refs
and run documents, so artifacts are never rewritten -- a corrupt object is
recovered by re-putting the same content, which atomically replaces the
bad bytes with good ones under the same name.

Concurrent-writer safety falls out of the combination: object writes are
idempotent (same digest -> same bytes; :func:`os.replace` makes the last
writer a no-op), and ref updates are atomic pointer swaps.
"""

from __future__ import annotations

import fnmatch
import json
import logging
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.ioutil import (
    atomic_write_bytes,
    atomic_write_json,
    sha256_hex,
)
from repro.store.artifact import ARTIFACT_SCHEMA, ArtifactError, RunArtifact

log = logging.getLogger(__name__)

STORE_SCHEMA = "repro.store/1"
RUN_SCHEMA = "repro.store.run/1"
EXPORT_SCHEMA = "repro.store.export/1"

#: Default store root, shared by the experiment runner and sweep runner.
DEFAULT_STORE_DIR = Path("results") / "store"

PathLike = Union[str, Path]

_HEX = set("0123456789abcdef")


class StoreError(Exception):
    """Lookup/format failure: unknown token, bad ref, malformed document."""


class StoreMissingError(StoreError):
    """The requested object is not in the store."""


class StoreIntegrityError(StoreError):
    """An object's bytes do not hash back to its digest (corrupt/truncated)."""


def _is_hex(token: str) -> bool:
    return bool(token) and all(c in _HEX for c in token.lower())


class RunStore:
    """One content-addressed store rooted at a directory."""

    def __init__(self, root: PathLike = DEFAULT_STORE_DIR):
        self.root = Path(root)
        # String prefixes for the read hot path (get/get_ref), which
        # opens files without building a Path object per call.
        self._objects_prefix = os.path.join(str(self.root), "objects", "")
        self._refs_prefix = os.path.join(str(self.root), "refs", "")

    # -- paths ---------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def refs_dir(self) -> Path:
        return self.root / "refs"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    def object_path(self, digest: str) -> Path:
        return self.objects_dir / digest[:2] / f"{digest}.json"

    def ref_path(self, name: str) -> Path:
        return self.refs_dir / f"{name}.json"

    def run_path(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.json"

    # -- objects -------------------------------------------------------------

    def put(self, artifact: RunArtifact) -> str:
        """Store an artifact; returns its digest.

        Idempotent: an existing object with the same digest is left alone
        (same digest means same canonical bytes), which also makes two
        concurrent writers of the same content safe -- whoever loses the
        :func:`os.replace` race replaces the file with identical bytes.
        An existing *corrupt* object under this digest is healed by the
        rewrite.
        """
        data = artifact.canonical_bytes()
        digest = sha256_hex(data)
        path = self.object_path(digest)
        if path.exists():
            try:
                if sha256_hex(path.read_bytes()) == digest:
                    return digest
                log.warning("healing corrupt object %s", digest[:16])
            except OSError:  # pragma: no cover - unreadable: rewrite below
                pass
        atomic_write_bytes(data, path)
        return digest

    def get(self, digest: str) -> RunArtifact:
        """Load an artifact, verifying its bytes hash back to ``digest``."""
        path = f"{self._objects_prefix}{digest[:2]}/{digest}.json"
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise StoreMissingError(
                f"no object {digest} in {self.root}"
            ) from None
        if sha256_hex(data) != digest:
            raise StoreIntegrityError(
                f"object {digest[:16]} is corrupt: bytes do not hash back "
                f"to its address ({path})"
            )
        try:
            return RunArtifact.from_document(json.loads(data))
        except (ValueError, ArtifactError) as exc:
            # Unreachable for objects we wrote (hash verified), but a
            # hand-crafted collision-named file should still fail loudly.
            raise StoreIntegrityError(
                f"object {digest[:16]} is not an artifact document: {exc}"
            ) from exc

    def has(self, digest: str) -> bool:
        return self.object_path(digest).exists()

    def digests(self) -> Iterator[str]:
        """All object digests on disk, sorted."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def query(
        self, kind: Optional[str] = None
    ) -> Iterator[Tuple[str, RunArtifact]]:
        """Iterate ``(digest, artifact)`` pairs, optionally of one kind.

        Corrupt objects are skipped with a warning (use :meth:`verify` to
        enumerate them); this keeps queries usable on a damaged store.
        """
        for digest in self.digests():
            try:
                artifact = self.get(digest)
            except StoreError as exc:
                log.warning("skipping unreadable object: %s", exc)
                continue
            if kind is None or artifact.kind == kind:
                yield digest, artifact

    # -- refs ----------------------------------------------------------------

    def set_ref(
        self, name: str, digest: str, meta: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Point ``name`` at ``digest`` (atomic swap; meta is lookup-only)."""
        atomic_write_json(
            {"digest": digest, "meta": dict(meta or {})},
            self.ref_path(name),
        )

    def get_ref(self, name: str) -> Optional[Dict[str, Any]]:
        """The ref entry ``{"digest", "meta"}``, or ``None`` when absent.

        Raises :class:`StoreError` when the ref file exists but is
        unreadable -- callers distinguish *miss* from *corrupt*.
        """
        try:
            with open(f"{self._refs_prefix}{name}.json", "r",
                      encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable ref {name!r}: {exc}") from exc
        if not isinstance(entry, dict) or "digest" not in entry:
            raise StoreError(f"malformed ref {name!r}: {entry!r}")
        return entry

    def delete_ref(self, name: str) -> bool:
        try:
            self.ref_path(name).unlink()
            return True
        except FileNotFoundError:
            return False

    def refs(self, pattern: str = "*") -> List[Tuple[str, Dict[str, Any]]]:
        """``(name, entry)`` for every readable ref matching ``pattern``."""
        if not self.refs_dir.is_dir():
            return []
        out = []
        for path in sorted(self.refs_dir.rglob("*.json")):
            name = str(path.relative_to(self.refs_dir))[: -len(".json")]
            if not fnmatch.fnmatch(name, pattern):
                continue
            try:
                entry = self.get_ref(name)
            except StoreError as exc:
                log.warning("skipping %s", exc)
                continue
            if entry is not None:
                out.append((name, entry))
        return out

    # -- runs ----------------------------------------------------------------

    def add_run(
        self,
        kind: str,
        manifest_digest: str,
        artifacts: Mapping[str, str],
        created: Optional[float] = None,
    ) -> str:
        """Record one invocation: its manifest plus named artifact digests.

        The run id is derived from the manifest digest (manifests embed
        wall-clock and timings, so every invocation gets a distinct id
        while its *result* artifacts still deduplicate).
        """
        run_id = f"{kind}-{manifest_digest[:12]}"
        atomic_write_json(
            {
                "schema": RUN_SCHEMA,
                "run_id": run_id,
                "kind": kind,
                "created": time.time() if created is None else created,
                "manifest": manifest_digest,
                "artifacts": dict(artifacts),
            },
            self.run_path(run_id),
        )
        return run_id

    def get_run(self, run_id: str) -> Dict[str, Any]:
        path = self.run_path(run_id)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise StoreError(f"no run {run_id!r} in {self.root}") from None
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable run {run_id!r}: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("schema") != RUN_SCHEMA:
            raise StoreError(f"{path} is not a run document")
        return doc

    def runs(self) -> List[Dict[str, Any]]:
        """Every readable run document, oldest first."""
        if not self.runs_dir.is_dir():
            return []
        docs = []
        for path in sorted(self.runs_dir.glob("*.json")):
            try:
                docs.append(self.get_run(path.stem))
            except StoreError as exc:
                log.warning("skipping %s", exc)
        docs.sort(key=lambda d: d.get("created", 0.0))
        return docs

    # -- resolution ----------------------------------------------------------

    def resolve(self, token: str) -> str:
        """Resolve a user-facing token to an object digest.

        Accepts a full digest, a unique digest prefix (>= 6 hex chars), a
        ref name, a run id (resolves to the run's manifest artifact), or
        ``latest`` (most recent run's manifest).
        """
        if token == "latest":
            runs = self.runs()
            if not runs:
                raise StoreError("store has no runs yet")
            return runs[-1]["manifest"]
        if self.run_path(token).exists():
            return self.get_run(token)["manifest"]
        entry = None
        try:
            entry = self.get_ref(token)
        except StoreError:
            pass
        if entry is not None:
            return entry["digest"]
        if _is_hex(token):
            if len(token) == 64:
                return token
            if len(token) >= 6:
                matches = [d for d in self.digests() if d.startswith(token)]
                if len(matches) == 1:
                    return matches[0]
                if len(matches) > 1:
                    raise StoreError(
                        f"digest prefix {token!r} is ambiguous "
                        f"({len(matches)} matches)"
                    )
        raise StoreError(
            f"cannot resolve {token!r}: not a run id, ref, digest or "
            f"unique digest prefix"
        )

    # -- diff ----------------------------------------------------------------

    def diff(self, a: str, b: str) -> Dict[str, Any]:
        """Structured difference between two runs or two artifacts.

        Run-vs-run compares the named artifact sets (record digests), so
        two invocations that produced identical results -- one fresh, one
        from cache -- report zero differences even though their manifests
        carry different timestamps.  Artifact-vs-artifact deep-diffs the
        payloads field by field.
        """
        run_a = self._maybe_run(a)
        run_b = self._maybe_run(b)
        if run_a is not None and run_b is not None:
            return self._diff_runs(run_a, run_b)
        art_a = self.get(self.resolve(a))
        art_b = self.get(self.resolve(b))
        changes = payload_diff(dict(art_a.payload), dict(art_b.payload))
        return {
            "mode": "artifacts",
            "a": a,
            "b": b,
            "kind": [art_a.kind, art_b.kind],
            "changed": changes,
            "identical": not changes and art_a.kind == art_b.kind,
        }

    def _maybe_run(self, token: str) -> Optional[Dict[str, Any]]:
        if token == "latest":
            runs = self.runs()
            return runs[-1] if runs else None
        if self.run_path(token).exists():
            return self.get_run(token)
        return None

    def _diff_runs(
        self, run_a: Dict[str, Any], run_b: Dict[str, Any]
    ) -> Dict[str, Any]:
        arts_a: Dict[str, str] = run_a.get("artifacts", {})
        arts_b: Dict[str, str] = run_b.get("artifacts", {})
        only_a = sorted(set(arts_a) - set(arts_b))
        only_b = sorted(set(arts_b) - set(arts_a))
        changed: Dict[str, List[Dict[str, Any]]] = {}
        for label in sorted(set(arts_a) & set(arts_b)):
            if arts_a[label] == arts_b[label]:
                continue
            try:
                pa = dict(self.get(arts_a[label]).payload)
                pb = dict(self.get(arts_b[label]).payload)
                changed[label] = payload_diff(pa, pb)
            except StoreError:
                changed[label] = [
                    {"path": "", "a": arts_a[label], "b": arts_b[label]}
                ]
        return {
            "mode": "runs",
            "a": run_a["run_id"],
            "b": run_b["run_id"],
            "only_a": only_a,
            "only_b": only_b,
            "changed": changed,
            "identical": not (only_a or only_b or changed),
        }

    # -- gc / verify ---------------------------------------------------------

    def reachable(self) -> set:
        """Digests referenced by any ref or run document."""
        roots = set()
        for _, entry in self.refs():
            roots.add(entry["digest"])
        for run in self.runs():
            if run.get("manifest"):
                roots.add(run["manifest"])
            roots.update(run.get("artifacts", {}).values())
        return roots

    def gc(self, dry_run: bool = False) -> Dict[str, Any]:
        """Delete (or, with ``dry_run``, just report) unreachable objects."""
        roots = self.reachable()
        removed: List[str] = []
        bytes_freed = 0
        kept = 0
        for digest in list(self.digests()):
            if digest in roots:
                kept += 1
                continue
            path = self.object_path(digest)
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - raced removal
                size = 0
            if not dry_run:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - raced removal
                    continue
            removed.append(digest)
            bytes_freed += size
        log.info(
            "gc%s: %d object(s) kept, %d removed (%d bytes)",
            " (dry run)" if dry_run else "", kept, len(removed), bytes_freed,
        )
        return {
            "dry_run": dry_run,
            "kept": kept,
            "removed": removed,
            "bytes_freed": bytes_freed,
        }

    def verify(self) -> List[Dict[str, str]]:
        """Integrity sweep: every corrupt object and dangling reference."""
        problems: List[Dict[str, str]] = []
        for digest in self.digests():
            try:
                self.get(digest)
            except StoreError as exc:
                problems.append({"digest": digest, "problem": str(exc)})
        for name, entry in self.refs():
            if not self.has(entry["digest"]):
                problems.append(
                    {"ref": name, "problem": f"dangles to {entry['digest'][:16]}"}
                )
        for run in self.runs():
            for label, digest in run.get("artifacts", {}).items():
                if not self.has(digest):
                    problems.append(
                        {
                            "run": run["run_id"],
                            "problem": f"artifact {label!r} missing "
                                       f"({digest[:16]})",
                        }
                    )
        return problems

    # -- export --------------------------------------------------------------

    def export(self, tokens: Optional[List[str]] = None) -> Dict[str, Any]:
        """Self-contained JSON bundle of runs, refs and their objects.

        With ``tokens`` the bundle is limited to those runs/artifacts (and
        everything they reference); without, the whole store is bundled.
        """
        if tokens:
            runs = []
            digests = set()
            for token in tokens:
                run = self._maybe_run(token)
                if run is not None:
                    runs.append(run)
                    digests.add(run["manifest"])
                    digests.update(run.get("artifacts", {}).values())
                else:
                    digests.add(self.resolve(token))
            refs = [
                (n, e) for n, e in self.refs() if e["digest"] in digests
            ]
        else:
            runs = self.runs()
            refs = self.refs()
            digests = set(self.digests())
        objects = {}
        for digest in sorted(digests):
            try:
                objects[digest] = self.get(digest).document()
            except StoreError as exc:
                log.warning("export skipping %s", exc)
        return {
            "schema": EXPORT_SCHEMA,
            "store_schema": STORE_SCHEMA,
            "artifact_schema": ARTIFACT_SCHEMA,
            "runs": runs,
            "refs": {name: entry for name, entry in refs},
            "objects": objects,
        }


# -- payload diffing ---------------------------------------------------------

def payload_diff(
    a: Any, b: Any, path: str = ""
) -> List[Dict[str, Any]]:
    """Recursive field-level difference between two JSON values.

    Returns ``[{"path", "a", "b"}, ...]``; an empty list means the values
    are identical.  Missing sides are reported as ``None`` with the path
    marking where the divergence starts.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out: List[Dict[str, Any]] = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                out.append({"path": sub, "a": None, "b": b[key]})
            elif key not in b:
                out.append({"path": sub, "a": a[key], "b": None})
            else:
                out.extend(payload_diff(a[key], b[key], sub))
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = []
        for i in range(max(len(a), len(b))):
            sub = f"{path}[{i}]"
            if i >= len(a):
                out.append({"path": sub, "a": None, "b": b[i]})
            elif i >= len(b):
                out.append({"path": sub, "a": a[i], "b": None})
            else:
                out.extend(payload_diff(a[i], b[i], sub))
        return out
    if a != b:
        return [{"path": path, "a": a, "b": b}]
    return []
