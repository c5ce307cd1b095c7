"""``svc_mixed``: the millions-of-users shape — many small jobs
multiplexed on one warm pool.

One ``JobServer`` and two pool slaves.  Phase A is an **open loop**:
seeded Poisson arrivals at a fixed rate, one thread POSTing on schedule
and one polling ``GET /jobs``; a job's latency counts from the instant
it was *due*, so a stalled server is charged for the queue it builds,
and the generator's own lateness is reported.  Phase B is a **closed
loop**: two submitters, each sending its next job when the previous one
ends, which finds the saturation throughput.  Four jobs in five are a
small WordCount, one is a short k-means; queueing, ``_pick_job``
fairness and HTTP/RPC round-trips dominate.  Every output is compared
byte for byte with its serial run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from bench import harness
from bench.trace import Tracer
from bench.workloads.base import WORKERS, Workload

from repro.apps.kmeans import KMeansFile
from repro.apps.wordcount import WordCountCombined
from repro.core.main import run_program
from repro.core.options import parse_options
from repro.service.registry import ProgramRegistry
from repro.service.server import JobServer

TERMINAL = ("done", "failed", "canceled")
#: Share of ``--seconds`` spent in the open loop; the rest is closed.
OPEN_SHARE = 0.7
#: An open-loop job not ``done`` within this long counts as over limit.
LATENCY_LIMIT_S = 1.0
#: ``job_s`` is this percentile of the open-loop latencies.  At the
#: offered load about four jobs in ten find the pool busy, and which of
#: them do is decided by how the seed's arrivals happen to bunch, so the
#: median sits on the edge between jobs that waited and jobs that did
#: not (run-to-run spread 27 %); the lower quartile is the latency of a
#: job that found the pool free (spread 3 %).  p50 and p90 are reported
#: as layer metrics.
JOB_PCT = 25.0
POLL_S = 0.01
JOB_TIMEOUT_S = 30.0


def poisson_schedule(seed: int, rate_per_s: float, seconds: float) -> List[float]:
    """Due times (seconds from the start) of ``rate x seconds`` Poisson
    arrivals: fixed by the seed, independent of how the server behaves —
    which is what makes the loop open.  The count is pinned (a Poisson
    process conditioned on its count is that many uniform draws), so
    every seed offers the same load and only its burstiness differs."""
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate_per_s * seconds)))


def charge(due: float, view: Optional[Dict[str, Any]], correct: bool) -> Tuple[Optional[float], bool]:
    """An open-loop job's ``(latency, over_limit)``.

    Latency runs from the instant the job was *due* — not from when a
    late generator got round to sending it, nor from when the server
    accepted it — to its terminal state.  A job that failed, was
    refused, never finished or produced wrong output has no latency and
    counts as over the limit."""
    if view is None or view.get("finished_at") is None:
        return None, True
    latency = view["finished_at"] - due
    over = not correct or view.get("state") != "done" or latency > LATENCY_LIMIT_S
    return latency, over


class Client:
    """One HTTP connection to the control surface (reopened by
    ``http.client`` whenever the server closes it)."""

    def __init__(self, url: str):
        parsed = urlparse(url)
        self.conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)

    def call(self, method: str, path: str, payload: Any = None) -> Tuple[int, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class SvcMixed(Workload):
    name = "svc_mixed"
    full = {"rate_per_s": 9, "lines": 2000, "km_points": 600, "km_iters": 2,
            "submitters": 2}
    smoke = {"rate_per_s": 9, "lines": 200, "km_points": 60, "km_iters": 2,
             "submitters": 2}

    def __init__(self, seed: int, smoke: bool, work: harness.WorkDir):
        super().__init__(seed, smoke, work)
        self.server: Optional[JobServer] = None
        self.boot_s: List[float] = []
        self.shutdown_s: List[float] = []
        self.jobs = 0

    # -- set-up ----------------------------------------------------------------

    def generate(self, directory: str) -> None:
        """Inputs, then one full boot and shutdown of the server and
        its pool: booting is set-up for a service, and the cycle is the
        ``launch_s`` sample of this round."""
        self.inputs = os.path.join(directory, "lines.txt")
        rng = random.Random(self.seed)
        with open(self.inputs, "w") as f:
            for _ in range(self.size["lines"]):
                f.write(" ".join(f"w{rng.randrange(200)}" for _ in range(6)) + "\n")
        self.boot()
        self.shutdown()

    def job_args(self, kind: str, outdir: str) -> List[str]:
        if kind == "wordcount":
            return ["--mrs-reduce-tasks", str(WORKERS), self.inputs, outdir]
        return [
            "--mrs-seed", str(self.seed), "--km-points", str(self.size["km_points"]),
            "--km-clusters", "4", "--km-dims", "4",
            "--km-iters", str(self.size["km_iters"]), "--km-tol", "0",
            "--km-splits", str(WORKERS), outdir,
        ]

    def prepare(self) -> None:
        self.reference: Dict[str, Dict[str, bytes]] = {}
        serial_s = {}
        for kind, cls in (("wordcount", WordCountCombined), ("kmeans", KMeansFile)):
            refdir = self.work.fresh("ref")
            serial_s[kind], _ = harness.timed(
                run_program, cls, self.job_args(kind, refdir), impl="serial"
            )
            self.reference[kind] = self.visible_files(refdir)
            if not any(self.reference[kind].values()):
                raise RuntimeError(f"serial {kind} reference is empty")
        # The mix's mean serial job time.
        self.serial_job_s = 0.8 * serial_s["wordcount"] + 0.2 * serial_s["kmeans"]

    @staticmethod
    def visible_files(outdir: str) -> Dict[str, bytes]:
        """User-facing files by name without the dataset id, which
        counts up with every job the server has run."""
        out = {}
        for name in sorted(os.listdir(outdir)):
            if name.startswith("."):
                continue
            parts = name.split("_", 2)
            key = parts[2] if len(parts) == 3 and parts[1].isdigit() else name
            with open(os.path.join(outdir, name), "rb") as f:
                out[key] = f.read()
        return out

    # -- server lifecycle --------------------------------------------------------

    def boot(self) -> None:
        harness.settle()
        began = time.perf_counter()
        opts, _ = parse_options(
            None, ["--mrs", "serve", "--mrs-tmpdir", self.work.fresh("mrs")]
        )
        registry = ProgramRegistry()
        registry.register("wordcount", WordCountCombined)
        registry.register("kmeans", KMeansFile)
        self.server = JobServer(registry, opts)
        if self.server.spawn_slaves(WORKERS) < WORKERS:
            self.shutdown()
            raise RuntimeError("pool slaves did not sign in")
        self.boot_s.append(time.perf_counter() - began)

    def shutdown(self) -> None:
        began = time.perf_counter()
        self.server.shutdown(drain=True)
        self.server = None
        self.shutdown_s.append(time.perf_counter() - began)

    # -- jobs --------------------------------------------------------------------

    def payload(self, index: int) -> Tuple[str, str, Dict[str, Any]]:
        """The ``index``-th job of the mix: (kind, outdir, POST body)."""
        kind = "kmeans" if index % 5 == 4 else "wordcount"
        outdir = os.path.join(self.outroot, f"job-{index}")
        return kind, outdir, {"program": kind, "args": self.job_args(kind, outdir)}

    def submit(self, client: Client, tracer: Optional[Tracer] = None,
               due: Optional[float] = None) -> Dict[str, Any]:
        """POST the next job of the mix; returns its bookkeeping entry.
        ``due`` (perf_counter time) opens the job's span in the trace."""
        with self.lock:
            index = self.jobs
            self.jobs += 1
        kind, outdir, body = self.payload(index)
        began = time.perf_counter()
        status, view = client.call("POST", "/jobs", body)
        ended = time.perf_counter()
        entry = {"kind": kind, "outdir": outdir, "status": status,
                 "id": view.get("id"), "post_s": ended - began}
        if tracer is not None:
            # One span per job, due -> terminal; the HTTP call and the
            # server's own timestamps nest under it, so its self time is
            # what no layer accounts for (lateness, polling slack).
            entry["span"] = tracer.add("service.job", due, due, job=entry["id"])
            tracer.add("service.server.submit", began, ended, entry["span"])
        return entry

    def wait_for(self, client: Client, job_id: str) -> Dict[str, Any]:
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            _, view = client.call("GET", f"/jobs/{job_id}")
            if view.get("state") in TERMINAL or time.monotonic() > deadline:
                return view
            time.sleep(POLL_S)

    def check(self, entry: Dict[str, Any], view: Optional[Dict[str, Any]]) -> bool:
        """A job passes when it was accepted, finished ``done``, and
        left exactly its serial run's files."""
        ok = (
            entry["status"] == 202
            and view is not None
            and view.get("state") == "done"
            and self.visible_files(entry["outdir"]) == self.reference[entry["kind"]]
        )
        return self.count(ok)

    # -- phases -------------------------------------------------------------------

    def open_loop(self, seconds: float, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        """Poisson arrivals at the fixed rate for ``seconds``."""
        due = poisson_schedule(self.seed + 1, self.size["rate_per_s"], seconds)
        entries: List[Dict[str, Any]] = []
        views: Dict[str, Dict[str, Any]] = {}
        polls: List[float] = []
        sending = threading.Event()
        sending.set()
        abort = threading.Event()

        def poll() -> None:
            client = Client(self.server.control_url)
            deadline = None
            while not abort.is_set():
                began = time.perf_counter()
                _, listing = client.call("GET", "/jobs")
                ended = time.perf_counter()
                polls.append(ended - began)
                if tracer is not None:
                    tracer.add("service.server.status", began, ended)
                for view in listing["jobs"]:
                    if view["state"] in TERMINAL:
                        views[view["id"]] = view
                if not sending.is_set():
                    deadline = deadline or time.monotonic() + JOB_TIMEOUT_S
                    wanted = [e["id"] for e in entries if e["id"]]
                    if all(i in views for i in wanted) or time.monotonic() > deadline:
                        break
                time.sleep(POLL_S)
            client.close()

        # Daemon threads, here and in the closed loop: a run that is
        # told to stop must not wait for its load generators.
        poller = threading.Thread(target=poll, name="bench-poller", daemon=True)
        client = Client(self.server.control_url)
        origin = time.time() + 0.05
        # Job views carry wall-clock stamps; spans use perf_counter.
        clock_skew = time.time() - time.perf_counter()
        poller.start()
        lags = []
        try:
            for offset in due:
                wait = origin + offset - time.time()
                if wait > 0:
                    time.sleep(wait)
                lags.append(max(0.0, time.time() - (origin + offset)))
                entry = self.submit(client, tracer, origin + offset - clock_skew)
                entry["due"] = origin + offset
                entries.append(entry)
        except BaseException:
            abort.set()
            raise
        sending.clear()
        poller.join()
        client.close()

        latencies, waits, runs, over = [], [], [], 0
        for entry in entries:
            view = views.get(entry["id"])
            latency, late = charge(entry["due"], view, self.check(entry, view))
            over += late
            if latency is None:
                continue
            latencies.append(latency)
            waits.append(view["started_at"] - view["submitted_at"])
            runs.append(view["finished_at"] - view["started_at"])
            if tracer is not None:
                parent = entry["span"]
                tracer.spans[parent]["end"] = view["finished_at"] - clock_skew
                tracer.add("service.jobqueue.wait", view["submitted_at"] - clock_skew,
                           view["started_at"] - clock_skew, parent)
                tracer.add("service.server.run", view["started_at"] - clock_skew,
                           view["finished_at"] - clock_skew, parent)
        return {
            "sent": len(entries),
            "latencies": latencies,
            "waits": waits,
            "runs": runs,
            "posts": [e["post_s"] for e in entries],
            "polls": polls,
            "lags": lags,
            "rejected": sum(1 for e in entries if e["status"] != 202),
            "over_limit": over,
        }

    def closed_loop(self, seconds: float) -> float:
        """Each submitter sends its next job when the previous one ends;
        returns jobs completed per second."""
        stop_at = time.perf_counter() + seconds
        finished: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []

        def submitter() -> None:
            client = Client(self.server.control_url)
            while time.perf_counter() < stop_at:
                entry = self.submit(client)
                view = self.wait_for(client, entry["id"]) if entry["id"] else None
                finished.append((entry, view))
            client.close()

        threads = [
            threading.Thread(target=submitter, name=f"bench-submitter-{i}", daemon=True)
            for i in range(self.size["submitters"])
        ]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - began
        for entry, view in finished:
            self.check(entry, view)
        return len(finished) / elapsed

    def session(self, seconds: float, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        """Boot, warm up, both phases, shut down."""
        self.outroot = self.work.fresh("out")
        self.lock = threading.Lock()
        self.boot()
        try:
            client = Client(self.server.control_url)
            for _ in range(5):  # one full turn of the mix, discarded
                entry = self.submit(client)
                self.check(entry, self.wait_for(client, entry["id"]))
            client.close()
            harness.settle()
            result = self.open_loop(seconds * OPEN_SHARE, tracer)
            harness.settle()
            result["closed_jobs_per_s"] = self.closed_loop(seconds * (1 - OPEN_SHARE))
            result["children_mb"] = harness.children_rss_mb()
        finally:
            self.shutdown()
        if self.work.leaked_mrs_dirs():
            self.count(False)
        return result

    def measure(self, seconds: float, min_repeats: int) -> Dict[str, float]:
        result = self.session(max(seconds, 2.0))
        self.result = result
        return {
            "launch_s": harness.median(
                [b + s for b, s in zip(self.boot_s, self.shutdown_s)]
            ),
            "job_s": harness.percentile(result["latencies"], JOB_PCT),
            "jobs_per_s": result["closed_jobs_per_s"],
            "peak_rss_mb": harness.peak_rss_mb([result["children_mb"]]),
        }

    def samples_record(self) -> Dict[str, Any]:
        r = self.result
        return {
            "n": len(r["latencies"]),
            "sent": r["sent"],
            "latency_s": r["latencies"],
            "boot_s": self.boot_s,
            "shutdown_s": self.shutdown_s,
            "gen_lag_s": r["lags"],
            "children_mb": r["children_mb"],
            "tail_percentile": harness.highest_percentile(len(r["latencies"])),
        }

    def trace(self, tracer: Tracer, seconds: float) -> Dict[str, float]:
        from bench import layers

        began = time.perf_counter()
        r = self.session(2.0 if self.is_smoke else seconds, tracer)
        wall = time.perf_counter() - began
        ms = 1000.0
        out = {
            "runtime.serial.job_s": self.serial_job_s,
            "runtime.backend.start_s": harness.median(self.boot_s),
            "runtime.backend.shutdown_s": harness.median(self.shutdown_s),
            "service.server.latency_p50_ms": ms * harness.percentile(r["latencies"], 50),
            "service.server.latency_p90_ms": ms * harness.percentile(r["latencies"], 90),
            "service.server.over_limit_frac": r["over_limit"] / max(1, r["sent"]),
            "service.server.jobs_per_s": r["closed_jobs_per_s"],
            "service.server.submit_ms": ms * harness.median(r["posts"]),
            "service.server.status_ms": ms * harness.median(r["polls"]),
            "service.server.run_ms": ms * harness.median(r["runs"]),
            "service.server.rejected": float(r["rejected"]),
            "service.jobqueue.wait_ms": ms * harness.median(r["waits"]),
            "bench.gen_lag_ms": ms * harness.median(r["lags"]),
            "bench.trace_overhead_frac": tracer.overhead_seconds() / wall,
        }
        out.update(layers.rpc_roundtrip())
        # Each job is a map and a reduce of WORKERS tasks, one job id
        # apiece: what _pick_job's round-robin has to walk.
        graph = [("map", WORKERS), ("reduce", WORKERS)]
        out.update(layers.scheduler_dispatch(graph, jobs=r["sent"]))
        return out
