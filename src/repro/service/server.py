"""The persistent job server: one master, many jobs.

A :class:`JobServer` wraps a single long-lived
:class:`~repro.runtime.master.MasterBackend` (and whatever slave pool
has signed in to it) and multiplexes submitted *jobs* over it.  Each
job runs the ``run`` of a registered program in its own driver thread
against a :class:`~repro.service.jobs.ServiceJob` facade, so every
dataset/metric/event it produces is namespaced by the job id; the
scheduler's round-robin keeps concurrent jobs fair, and the
:class:`~repro.service.jobqueue.JobQueue` caps how many run at once.

The control surface is the grown ``--mrs-status-http`` endpoint: the
server passes itself as the ``control`` object of a
:class:`~repro.comm.dataserver.StatusServer` and answers
``POST /jobs`` / ``GET /jobs[/<id>[/events]]`` / ``DELETE /jobs/<id>``
through :meth:`JobServer.handle`.

``run_serve`` is the ``--mrs serve`` entry point; the matching client
is ``python -m repro.service.submit``.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import options as options_mod
from repro.core.job import JobError
from repro.runtime.cluster import SlaveGroup
from repro.runtime.master import MasterBackend
from repro.service.jobqueue import JobQueue
from repro.service.jobs import (
    CANCELED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    ServiceJob,
)
from repro.service.registry import ProgramRegistry, RegistryError

logger = logging.getLogger("repro.service")

#: The program-agnostic spec service-pool slaves boot with.
WORKER_SPEC = "repro.service.worker:ServiceWorker"

#: Seconds ``shutdown(drain=True)`` waits for running jobs to finish.
DRAIN_TIMEOUT = 60.0


class JobServer:
    """A persistent job server multiplexing a shared slave pool."""

    def __init__(
        self,
        registry: ProgramRegistry,
        opts: Any,
        host: Optional[str] = None,
    ):
        self.registry = registry
        self.opts = opts
        # The master never touches its ``program`` in service mode:
        # every dataset is namespaced, so descriptors always carry an
        # explicit program_spec for slaves to resolve.
        self.backend = MasterBackend(None, opts)
        self._group = SlaveGroup(self.backend)
        self.queue = JobQueue(
            max_concurrent=getattr(opts, "max_concurrent_jobs", None) or 8
        )
        self._jobs: Dict[str, JobRecord] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._accepting = True

        registry_metrics = self.backend.observability.registry
        self._submitted = registry_metrics.counter("jobs.submitted")
        self._completed = registry_metrics.counter("jobs.completed")
        self._failed = registry_metrics.counter("jobs.failed")
        self._canceled = registry_metrics.counter("jobs.canceled")
        self._active_gauge = registry_metrics.gauge("jobs.active")
        self._queued_gauge = registry_metrics.gauge("jobs.queued")

        from repro.comm.dataserver import StatusServer

        token = getattr(opts, "auth_token", None) or os.environ.get(
            "MRS_AUTH_TOKEN"
        )
        try:
            self.status_server = StatusServer(
                self.backend,
                host=host or getattr(opts, "host", None) or "127.0.0.1",
                port=getattr(opts, "status_http", None) or 0,
                control=self,
                auth_token=token,
            )
        except BaseException:
            # A start that fails closes what it opened: the master's
            # RPC server, watchdog and run directory.
            self.backend.close()
            raise
        logger.info("job server control surface at %s", self.control_url)
        self._announce_in_runfile()

    # -- addresses -----------------------------------------------------

    @property
    def control_url(self) -> str:
        return self.status_server.url

    def _announce_in_runfile(self) -> None:
        """Append the control URL to the runfile (the master already
        wrote its RPC address as the first line), so scripts that
        launched the server can find both planes in one file."""
        runfile = getattr(self.opts, "runfile", None)
        if not runfile:
            return
        try:
            with open(runfile, "a") as f:
                f.write(f"control={self.control_url}\n")
        except OSError:  # pragma: no cover - best-effort announce
            logger.warning("could not append control URL to %s", runfile)

    # -- slave pool helpers --------------------------------------------

    def spawn_slaves(self, count: int) -> int:
        """Spawn ``count`` program-agnostic pool slaves as subprocesses
        (test/benchmark convenience; production pools are launched by
        the operator's scripts against the runfile address).  Returns
        how many slaves are signed in after the wait."""
        return self._group.spawn(count, WORKER_SPEC)

    # -- submission / lifecycle ----------------------------------------

    def submit_job(self, program: str, args: Sequence[str]) -> JobRecord:
        """Queue one job; starts immediately if under the cap."""
        spec = self.registry.spec(program)  # raises RegistryError early
        with self._lock:
            if not self._accepting:
                raise JobError("server is shutting down")
            record = JobRecord(f"job-{next(self._ids)}", program, list(args))
            self._jobs[record.id] = record
            self.queue.submit(record.id)
            self._submitted.inc()
            started = self._admit_locked()
        logger.info(
            "submitted %s (%s %s)%s",
            record.id,
            program,
            " ".join(record.args),
            "" if record.id in started else " [queued]",
        )
        return record

    def _admit_locked(self) -> List[str]:
        """Start driver threads for every job the queue admits (caller
        holds the lock)."""
        admitted = self.queue.admit()
        for job_id in admitted:
            record = self._jobs[job_id]
            record.thread = threading.Thread(
                target=self._run_job,
                args=(record,),
                name=f"mrs-{job_id}",
                daemon=True,
            )
            record.thread.start()
        self._active_gauge.set(self.queue.active)
        self._queued_gauge.set(self.queue.waiting)
        return admitted

    def _run_job(self, record: JobRecord) -> None:
        """Driver thread: run one job's program against the shared
        backend, isolated under its namespace."""
        record.state = RUNNING
        record.started_at = time.time()
        try:
            if record.cancel_event.is_set():
                raise JobError(f"job {record.id} canceled")
            program_class = self.registry.resolve(record.program)
            spec = self.registry.spec(record.program)
            popts, positional = options_mod.parse_options(
                program_class, list(record.args)
            )
            program = program_class(popts, positional)
            self.backend.register_job(record.id, spec, record.args)
            if not self.backend.alive_slaves():
                # Satellite semantics: an empty pool is a *condition*,
                # not an error — the job waits for slaves to sign in
                # rather than failing.
                logger.warning(
                    "%s submitted with no live slaves; it will wait "
                    "until the pool repopulates",
                    record.id,
                )
            job = ServiceJob(
                self.backend,
                program,
                namespace=record.id,
                cancel_event=record.cancel_event,
            )
            status = program.run(job)
            if record.cancel_event.is_set():
                # Cancel raced the final wait; the outputs are not
                # trustworthy, so the job reports canceled, not done.
                raise JobError(f"job {record.id} canceled")
            if status not in (None, 0):
                raise JobError(f"{record.program} exited with {status}")
            state = DONE
        except BaseException as exc:  # noqa: BLE001 - job isolation wall
            if record.cancel_event.is_set():
                state = CANCELED
                logger.info("%s canceled", record.id)
            else:
                state = FAILED
                record.error = repr(exc)
                logger.warning("%s failed: %r", record.id, exc)
        finally:
            record.finished_at = time.time()
            try:
                self.backend.release_namespace(record.id)
            except Exception:  # pragma: no cover - best-effort cleanup
                logger.exception("releasing %s", record.id)
            # Terminal only once released: a view of a finished job
            # never shows its datasets.
            record.state = state
            if record.state == DONE:
                self._completed.inc()
            elif record.state == CANCELED:
                self._canceled.inc()
            else:
                self._failed.inc()
            with self._lock:
                self.queue.finish(record.id)
                self._admit_locked()

    def cancel_job(self, job_id: str) -> Tuple[bool, str]:
        """Cancel one job; returns ``(changed, state)``.

        A still-queued job goes terminal immediately; a running job has
        its cancel event set and its datasets failed, and goes terminal
        once its driver thread unwinds.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise KeyError(job_id)
            if record.terminal:
                return False, record.state
            record.cancel_event.set()
            if self.queue.withdraw(job_id):
                record.state = CANCELED
                record.finished_at = time.time()
                self._canceled.inc()
                self._queued_gauge.set(self.queue.waiting)
                return True, record.state
        # Running: fail its datasets so waiters (and in-flight task
        # results) unwind without touching any other job.
        self.backend.cancel_namespace(job_id, reason=f"{job_id} canceled")
        return True, RUNNING

    # -- views ---------------------------------------------------------

    def job_view(self, job_id: str) -> Dict[str, Any]:
        """The full ``GET /jobs/<id>`` payload: the record's lifecycle
        view plus the backend's live per-namespace slice."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise KeyError(job_id)
            view = record.view()
        if record.started_at is not None:
            backend_view = self.backend.job_status(job_id)
            backend_view.update(view)
            return backend_view
        return view

    def jobs_view(self) -> Dict[str, Any]:
        with self._lock:
            jobs = [r.view() for r in self._jobs.values()]
            return {
                "jobs": jobs,
                "running": self.queue.running(),
                "queued": self.queue.queued(),
                "max_concurrent": self.queue.max_concurrent,
                "programs": self.registry.names(),
                "slaves": len(self.backend.alive_slaves()),
            }

    def _events_view(self, job_id: str, query: Dict[str, Any]) -> Dict[str, Any]:
        events = self.backend.observability.events
        if events is None:
            return {"enabled": False, "events": []}
        try:
            since = int(query.get("since", ["0"])[0])
        except (TypeError, ValueError):
            since = 0
        return {
            "enabled": True,
            "last_seq": events.last_seq,
            "events": events.snapshot(
                since_seq=since, dataset_prefix=f"{job_id}."
            ),
        }

    # -- HTTP control surface ------------------------------------------

    def handle(
        self,
        method: str,
        route: str,
        body: bytes,
        query: Dict[str, Any],
    ) -> Tuple[int, Any]:
        """Dispatch one control request; returns ``(status, payload)``.

        Called by the status server's request handler for every path
        under ``/jobs`` (auth already checked for mutating methods).
        """
        parts = [p for p in route.split("/") if p]  # ["jobs", id?, sub?]
        if method == "POST" and parts == ["jobs"]:
            return self._handle_submit(body)
        if method == "GET" and parts == ["jobs"]:
            return 200, self.jobs_view()
        if len(parts) < 2:
            return 404, {"error": f"no such route {route!r}"}
        job_id = parts[1]
        try:
            if method == "GET" and len(parts) == 3 and parts[2] == "events":
                with self._lock:
                    if job_id not in self._jobs:
                        raise KeyError(job_id)
                return 200, self._events_view(job_id, query)
            if method == "GET" and len(parts) == 2:
                return 200, self.job_view(job_id)
            if method == "DELETE" and len(parts) == 2:
                changed, state = self.cancel_job(job_id)
                return 200, {
                    "id": job_id,
                    "state": state,
                    "changed": changed,
                }
        except KeyError:
            return 404, {"error": f"no such job {job_id!r}"}
        return 405, {"error": f"{method} not allowed on {route!r}"}

    def _handle_submit(self, body: bytes) -> Tuple[int, Any]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"bad JSON body: {exc}"}
        program = payload.get("program")
        args = payload.get("args", [])
        if not isinstance(program, str) or not isinstance(args, list):
            return 400, {
                "error": 'body must be {"program": NAME, "args": [...]}'
            }
        try:
            record = self.submit_job(program, [str(a) for a in args])
        except RegistryError as exc:
            return 404, {"error": str(exc)}
        except JobError as exc:
            return 503, {"error": str(exc)}
        return 202, record.view()

    # -- shutdown ------------------------------------------------------

    def shutdown(
        self, drain: bool = True, timeout: float = DRAIN_TIMEOUT
    ) -> None:
        """Stop the server: refuse new submissions, optionally wait for
        running jobs, cancel whatever remains, and close everything.
        """
        with self._lock:
            self._accepting = False
            for job_id in self.queue.queued():
                record = self._jobs[job_id]
                if self.queue.withdraw(job_id):
                    record.cancel_event.set()
                    record.state = CANCELED
                    record.finished_at = time.time()
            threads = [
                self._jobs[job_id].thread
                for job_id in self.queue.running()
                if self._jobs[job_id].thread is not None
            ]
        if drain:
            deadline = time.monotonic() + timeout
            for thread in threads:
                thread.join(max(0.1, deadline - time.monotonic()))
        with self._lock:
            running = list(self.queue.running())
        for job_id in running:
            try:
                self.cancel_job(job_id)
            except KeyError:  # pragma: no cover - finished meanwhile
                pass
        for thread in threads:
            thread.join(5.0)
        self.status_server.shutdown()
        self._group.close()

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def run_serve(
    program_class: Optional[type], opts: Any, args: Sequence[str]
) -> int:
    """``--mrs serve`` entry point: serve jobs until signaled.

    The class the script passed to ``main`` registers under its
    lowercased name; ``--mrs-register NAME=MODULE:CLASS`` adds more.
    Positional args are ignored in serve mode (jobs bring their own).
    """
    from repro.util.signals import GracefulExit, install_graceful_exit, restore

    if args:
        logger.warning(
            "serve mode ignores positional arguments %r (jobs carry "
            "their own)",
            list(args),
        )
    # Install before the server boots: a SIGTERM during (or right
    # after) startup must already drain instead of killing us.
    previous = install_graceful_exit()
    server = None
    ticker = None
    try:
        registry = ProgramRegistry.from_opts(program_class, opts)
        server = JobServer(registry, opts)
        if getattr(opts, "progress", False):
            # The ticker reads the shared backend's status, so its rows
            # carry the ``job-N`` namespace segments of every live job.
            from repro.observability.progress import ProgressTicker

            ticker = ProgressTicker(server.backend).start()
        print(
            f"mrs job server: control={server.control_url} "
            f"rpc={server.backend.rpc.address} "
            f"programs={','.join(registry.names())}",
            flush=True,
        )
        while True:
            time.sleep(3600)
    except GracefulExit as exc:
        logger.warning(
            "received signal %d; draining jobs and shutting down",
            exc.signum,
        )
        return 0
    finally:
        restore(previous)
        if ticker is not None:
            ticker.stop()
        if server is not None:
            server.shutdown(drain=True)
