"""Durable fixpoint checkpoints: the store, the manifest, the writer.

Spark survives multi-hour recursive jobs because lineage plus periodic
checkpointing make executor *and* driver loss recoverable; PR 2 covered
worker loss (in-memory pre-stage snapshots), but a driver crash still
lost every iteration.  This module persists the compact thing worth
saving — exactly the semi-naive working set: the *all* relations, the
next iteration's delta, the iteration counter, and the clock/counter/RNG
state needed to continue bit-exactly (see "Scaling-Up In-Memory Datalog
Processing": all + delta per relation is the entire live state of
semi-naive evaluation).

Layout under ``ExecutionConfig.checkpoint_dir``::

    <dir>/<query_id>/manifest.json          # status + in-flight pointer
    <dir>/<query_id>/unit-<u>-iter-<k>.ckpt # sha256-guarded pickle blob

Only the *latest* iteration blob per unit is kept (each save deletes its
predecessor after the atomic rename lands), so disk stays bounded by one
working set.  The manifest is JSON with its own content hash; blobs go
through :func:`repro.engine.serialization.dump_blob` /
:func:`~repro.engine.serialization.load_blob`.

Resume protocol (:meth:`repro.RaSQLContext.resume`): load the manifest,
check the catalog fingerprint, re-run the script's units *before* the
in-flight one deterministically from scratch (they are cheap derived
views or already-completed cliques), then restore the in-flight clique's
states/delta/clock from the blob and continue the semi-naive loop from
iteration k+1.  A crash before the first checkpoint resumes from
scratch.  Completion marks the manifest ``complete`` and deletes the
iteration blobs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.engine.serialization import dump_blob, load_blob, rows_checksum
from repro.errors import CheckpointError, CheckpointNotFoundError

__all__ = ["CheckpointStore", "CliqueCheckpointer", "catalog_fingerprint",
           "make_query_id"]


def make_query_id(sql: str) -> str:
    """Deterministic query id from the statement text.

    Whitespace-insensitive (the serving layer's normalized key is
    whitespace-insensitive too), so the same query resubmitted after a
    crash maps to the same checkpoint directory without any side channel.
    """
    canonical = " ".join(sql.split())
    return "q" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def catalog_fingerprint(catalog) -> str:
    """Content fingerprint of every base relation in *catalog*.

    A checkpoint is only resumable against the data it was cut over —
    semi-naive state bakes the base facts in.  Order-insensitive per
    relation (``rows_checksum``), name-sorted across relations.
    """
    digest = hashlib.sha256()
    for name in sorted(catalog.names()):
        relation = catalog.get(name)
        digest.update(name.lower().encode("utf-8"))
        digest.update(repr(tuple(relation.columns)).encode("utf-8"))
        digest.update(str(len(relation.rows)).encode("ascii"))
        digest.update(str(rows_checksum(relation.rows)).encode("ascii"))
    return digest.hexdigest()[:16]


class CheckpointStore:
    """Filesystem-backed store of per-query checkpoint state."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint dir {self.root!r}: {exc}") from exc
        #: In-memory manifest cache, so per-iteration saves do not re-read
        #: the manifest file they themselves just wrote.
        self._manifests: dict[str, dict] = {}

    # -- paths ---------------------------------------------------------

    def _query_dir(self, query_id: str) -> str:
        return os.path.join(self.root, query_id)

    def _manifest_path(self, query_id: str) -> str:
        return os.path.join(self._query_dir(query_id), "manifest.json")

    def blob_path(self, query_id: str, filename: str) -> str:
        return os.path.join(self._query_dir(query_id), filename)

    # -- manifest ------------------------------------------------------

    def _write_manifest(self, query_id: str, manifest: dict) -> None:
        body = json.dumps(manifest, sort_keys=True)
        wrapped = json.dumps(
            {"crc": hashlib.sha256(body.encode("utf-8")).hexdigest()[:16],
             "manifest": manifest},
            sort_keys=True, indent=1)
        path = self._manifest_path(query_id)
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(wrapped)
            os.replace(tmp, path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint manifest {path!r}: {exc}") from exc
        self._manifests[query_id] = manifest

    def load_manifest(self, query_id: str) -> dict:
        path = self._manifest_path(query_id)
        if not os.path.exists(path):
            raise CheckpointNotFoundError(
                f"no checkpoint manifest for query id {query_id!r} "
                f"under {self.root!r}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                wrapped = json.load(fh)
            manifest = wrapped["manifest"]
            body = json.dumps(manifest, sort_keys=True)
            crc = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint manifest {path!r}: {exc}") from exc
        if crc != wrapped.get("crc"):
            raise CheckpointError(
                f"checkpoint manifest {path!r} failed its integrity check")
        self._manifests[query_id] = manifest
        return manifest

    def has_resumable(self, query_id: str) -> bool:
        try:
            manifest = self.load_manifest(query_id)
        except CheckpointError:
            return False
        return manifest.get("status") == "in-progress"

    # -- lifecycle -----------------------------------------------------

    def begin(self, query_id: str, *, sql: str, config,
              fingerprint: str) -> dict:
        """Open (or re-open, on resume) a query's checkpoint directory."""
        try:
            os.makedirs(self._query_dir(query_id), exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint dir for {query_id!r}: {exc}") from exc
        manifest = {
            "query_id": query_id,
            "sql": sql,
            "config": dataclasses.asdict(config),
            "catalog_fingerprint": fingerprint,
            "status": "in-progress",
            "in_flight": None,
        }
        self._write_manifest(query_id, manifest)
        return manifest

    def save_iteration(self, query_id: str, unit: int, iteration: int,
                       payload: dict) -> str:
        """Persist one iteration blob and advance the in-flight pointer.

        Write order is crash-safe: new blob lands atomically, manifest
        points at it, *then* the predecessor blob is deleted — a crash at
        any step leaves a loadable (blob, manifest) pair.
        """
        manifest = self._manifests.get(query_id)
        if manifest is None:
            manifest = self.load_manifest(query_id)
        filename = f"unit-{unit}-iter-{iteration}.ckpt"
        dump_blob(self.blob_path(query_id, filename), payload)
        previous = manifest.get("in_flight")
        manifest["in_flight"] = {"unit": unit, "iteration": iteration,
                                 "file": filename}
        self._write_manifest(query_id, manifest)
        if previous and previous["file"] != filename:
            try:
                os.remove(self.blob_path(query_id, previous["file"]))
            except OSError:
                pass  # stale blob; harmless, next complete() sweeps it
        return filename

    def load_resume_state(self, manifest: dict) -> dict | None:
        """The in-flight unit + verified payload, or None (resume from scratch)."""
        in_flight = manifest.get("in_flight")
        if not in_flight:
            return None
        payload = load_blob(
            self.blob_path(manifest["query_id"], in_flight["file"]))
        if payload.get("iteration") != in_flight["iteration"]:
            raise CheckpointError(
                f"checkpoint blob {in_flight['file']!r} disagrees with the "
                f"manifest about its iteration")
        return {"unit": in_flight["unit"], "payload": payload}

    def mark_complete(self, query_id: str) -> None:
        """Record success and garbage-collect the iteration blobs."""
        manifest = self._manifests.get(query_id)
        if manifest is None:
            try:
                manifest = self.load_manifest(query_id)
            except CheckpointNotFoundError:
                return
        manifest["status"] = "complete"
        manifest["in_flight"] = None
        self._write_manifest(query_id, manifest)
        query_dir = self._query_dir(query_id)
        try:
            entries = os.listdir(query_dir)
        except OSError:
            return
        for entry in entries:
            if entry.endswith(".ckpt") or entry.endswith(".ckpt.tmp"):
                try:
                    os.remove(os.path.join(query_dir, entry))
                except OSError:
                    pass


class CliqueCheckpointer:
    """Per-clique checkpoint writer/restorer handed to the fixpoint operator.

    The operator hands over its state structures and the in-flight
    shuffled deltas; this object owns the payload format, cadence
    (``due``), cost accounting (a checkpoint write is charged to the
    simulated spill-disk tier under the ``"checkpoint"`` label *before*
    the clock snapshot enters the payload, so a resumed run continues
    from exactly the clock an uninterrupted run would show), and
    persistence.
    """

    def __init__(self, store: CheckpointStore, query_id: str, unit: int,
                 interval: int, cluster):
        self.store = store
        self.query_id = query_id
        self.unit = unit
        self.interval = interval
        self.cluster = cluster

    def due(self, iteration: int) -> bool:
        return self.interval > 0 and iteration % self.interval == 0

    @staticmethod
    def _working_set_bytes(states: dict, incoming: dict) -> int:
        """Wire-size estimate of the semi-naive working set (all + delta)."""
        est = sum(state.size_bytes() for state in states.values())
        for dataset in incoming.values():
            for part in dataset.partitions:
                if part.rows:
                    est += part.size_bytes()
        return est

    def write(self, iteration: int, delta_history: list[int], states: dict,
              incoming: dict) -> None:
        """Persist everything iteration ``iteration + 1`` needs to run.

        The payload holds the *all* relations (``dump_state``: row lists,
        tagged ``"set"`` / ``"keyed-rows"``), the shuffled deltas the
        next iteration consumes, the iteration counter/history, and the
        scheduler's RNG state; the clock/counter snapshot is added
        *after* charging the write, so a resumed run continues from
        exactly where an uninterrupted one would be.
        """
        rng = getattr(self.cluster.scheduler, "_rng", None)
        payload = {
            "iteration": iteration,
            "delta_history": list(delta_history),
            "states": {name: state.dump_state()
                       for name, state in states.items()},
            "incoming": {name: [list(part.rows)
                                for part in dataset.partitions]
                         for name, dataset in incoming.items()},
            "rng_state": rng.getstate() if rng is not None else None,
        }
        est_bytes = self._working_set_bytes(states, incoming)
        metrics = self.cluster.metrics
        metrics.advance(self.cluster.cost_model.spill_seconds(est_bytes),
                        label="checkpoint")
        metrics.inc("checkpoint_writes")
        metrics.inc("checkpoint_bytes", est_bytes)
        payload["sim_time"] = metrics.sim_time
        payload["counters"] = dict(metrics.counters)
        self.store.save_iteration(self.query_id, self.unit, iteration, payload)

    def restore(self, payload: dict, states: dict, views: dict) -> dict:
        """Install a checkpoint payload; returns the restored deltas.

        Restores, in order: the per-view state structures (through
        ``load_state``, so versions bump and kernel caches invalidate),
        their worker-memory charges, the in-flight shuffle datasets, the
        scheduler RNG, and finally the simulated clock + counters —
        then charges the blob's disk read on top.
        """
        cluster = self.cluster
        metrics = cluster.metrics
        for name, dumped in payload["states"].items():
            state = states[name]
            state.load_state(dumped)
            for p in range(state.num_partitions):
                size = state.partition_size_bytes(p)
                if size:
                    cluster.memory.charge("state", name, p,
                                          cluster.worker_for_partition(p),
                                          size)
        incoming = {
            name: cluster.restore_exchange(
                payload["incoming"][name], states[name].partitioner,
                view.partition_key_positions)
            for name, view in views.items()}
        rng_state = payload.get("rng_state")
        rng = getattr(cluster.scheduler, "_rng", None)
        if rng_state is not None and rng is not None:
            rng.setstate(rng_state)
        # Clock/counters jump to the checkpoint's snapshot (taken after
        # the write charge), then the restore read is charged on top.
        # The jump goes through ``inc`` as differences, so the open spans
        # carry the restored counters; the registry itself then lands on
        # the snapshot exactly (``a + (b - a)`` may round).
        metrics.sim_time = payload["sim_time"]
        for name, value in payload["counters"].items():
            metrics.inc(name, value - metrics.get(name))
        metrics.counters.clear()
        metrics.counters.update(payload["counters"])
        est_bytes = self._working_set_bytes(states, incoming)
        metrics.advance(cluster.cost_model.spill_seconds(est_bytes),
                        label="checkpoint")
        metrics.inc("checkpoint_restores")
        metrics.inc("checkpoint_restore_bytes", est_bytes)
        return incoming
