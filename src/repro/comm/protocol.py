"""Wire schema for master/slave messages.

Everything that crosses XML-RPC is a dict of scalars, strings, and
lists — no pickles on the control plane.  (Data travels separately, as
files or HTTP bucket fetches; see section IV-B.)

The protocol is deliberately tiny:

========================  =======================================
master method             meaning
========================  =======================================
``signin``                slave announces its address (and pid),
                          gets a slave id
``done``                  slave finished a task, reports its output
                          buckets as ``[split, url, sorted, records,
                          bytes]`` (plus piggybacked per-task metrics)
``failed``                slave reports a task error
``ping``                  liveness check (both directions)
========================  =======================================

Each reported bucket carries its size once, next to its URL: the
records and bytes of the file the task wrote (floats on the wire —
XML-RPC ints stop at 2**31 - 1).  A ``done`` message optionally carries
a *task metrics* payload — the slave's span for the task (its marks as
offsets from the task's start), a snapshot of its metrics registry and
a throttled health sample — so the master can aggregate a whole-job
view without any extra round trips.

========================  =======================================
slave method              meaning
========================  =======================================
``start_task``            master assigns a task descriptor
``remove_data``           master frees a dataset's local files
``quit``                  master ends the job
``ping``                  liveness check
========================  =======================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bump when the wire format changes; signin rejects mismatches
#: ("version skew between master and slaves is a configuration error
#: worth failing loudly on").
PROTOCOL_VERSION = 1


class ProtocolError(Exception):
    """Malformed or version-skewed message."""


def make_task_descriptor(
    dataset_id: str,
    task_index: int,
    op_dict: Dict[str, Any],
    input_urls: Sequence[str],
    outdir: Optional[str],
    format_ext: str,
    user_output: bool = False,
    key_serializer: Optional[str] = None,
    value_serializer: Optional[str] = None,
    input_key_serializer: Optional[str] = None,
    input_value_serializer: Optional[str] = None,
    input_sorted: Optional[Sequence[bool]] = None,
    program_spec: Optional[str] = None,
    program_args: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    return {
        # Multi-program slave pools (service mode): the slave resolves
        # ``module:Class`` + args into a cached program instance for
        # this task instead of using its boot-time program.  Absent or
        # None keeps the classic one-program-per-slave behaviour.
        "program_spec": program_spec,
        "program_args": (
            None if program_args is None else [str(a) for a in program_args]
        ),
        "dataset_id": dataset_id,
        "task_index": int(task_index),
        "op": dict(op_dict),
        "input_urls": list(input_urls),
        "outdir": outdir,
        "format_ext": format_ext,
        "user_output": bool(user_output),
        # Registered serializer names for this task's output buckets
        # and for decoding its input buckets (None = pickle).
        "key_serializer": key_serializer,
        "value_serializer": value_serializer,
        "input_key_serializer": input_key_serializer,
        "input_value_serializer": input_value_serializer,
        # Parallel to input_urls: whether each persisted bucket is
        # known to be in canonical key order (lets a reduce task's
        # merge stream it with O(1) memory).  Optional: absent or
        # short lists degrade to "unknown", never to wrong answers.
        "input_sorted": (
            None if input_sorted is None else [bool(flag) for flag in input_sorted]
        ),
    }


def check_task_descriptor(descriptor: Dict[str, Any]) -> Dict[str, Any]:
    required = {"dataset_id", "task_index", "op", "input_urls", "format_ext"}
    missing = required - set(descriptor)
    if missing:
        raise ProtocolError(f"task descriptor missing fields: {sorted(missing)}")
    if not isinstance(descriptor["op"], dict) or "kind" not in descriptor["op"]:
        raise ProtocolError("task descriptor op must be an operation dict")
    return descriptor


def make_task_metrics(
    span: Optional[Dict[str, Any]] = None,
    registry: Optional[Dict[str, Any]] = None,
    health: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """The per-task metrics payload piggybacked on ``done``.

    ``span`` is the executor's
    :meth:`~repro.observability.tracing.TaskSpan.to_wire` record (marks
    as offsets from its own task start, never absolute timestamps);
    ``registry`` a
    :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`;
    ``health`` an optional throttled
    :func:`~repro.observability.telemetry.sample_health` snapshot.
    """
    payload: Dict[str, Any] = {
        "span": dict(span or {}),
        "registry": dict(registry or {}),
    }
    if health:
        payload["health"] = {
            str(name): float(value) for name, value in health.items()
        }
    return payload


def parse_task_metrics(raw: Any) -> Dict[str, Any]:
    """Validate a piggybacked metrics payload; tolerates None/garbage
    (metrics must never fail a task completion).  The span record is
    only type-checked here: ``TaskSpan.absorb`` skips bad entries."""
    if not isinstance(raw, dict):
        raw = {}
    span = raw.get("span")
    registry = raw.get("registry")
    health: Optional[Dict[str, float]] = None
    raw_health = raw.get("health")
    if isinstance(raw_health, dict):
        health = {}
        for name, value in raw_health.items():
            try:
                health[str(name)] = float(value)
            except (TypeError, ValueError):
                continue
        if not health:
            health = None
    return {
        "span": span if isinstance(span, dict) else {},
        "registry": registry if isinstance(registry, dict) else {},
        "health": health,
    }


#: One reported output bucket: ``(split, url, sorted, size)``, where
#: ``size`` is the written file's ``(records, bytes)`` or None when the
#: report did not carry it.
BucketReport = Tuple[int, str, bool, Optional[Tuple[int, int]]]


def parse_bucket_urls(raw: Any) -> List[BucketReport]:
    """Normalize a reported bucket list to ``(split, url, sorted,
    size)``.

    The current form is ``[split, url, sorted, records, bytes]``; the
    older ``[split, url, sorted]`` triples and ``[split, url]`` pairs are
    still accepted, with the size unknown and (for pairs) sortedness
    False — a safe "unknown", the consumer just re-sorts.
    """
    try:
        return [
            (
                int(entry[0]),
                str(entry[1]),
                bool(entry[2]) if len(entry) > 2 else False,
                (int(entry[3]), int(entry[4])) if len(entry) > 4 else None,
            )
            for entry in raw
        ]
    except (TypeError, ValueError, IndexError) as exc:
        raise ProtocolError(f"malformed bucket url list: {raw!r}") from exc
