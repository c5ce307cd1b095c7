#!/usr/bin/env python3
"""Quickstart: WordCount, the paper's Program 1, end to end.

Generates a small synthetic Gutenberg-style corpus, runs WordCount
through four execution contexts (the paper's debugging methodology:
they must agree) — serial, mock parallel, multiprocess (a master with
slaves forked from it) — and finishes with a real distributed run: an
in-process master plus two slave subprocesses speaking XML-RPC.

Run:

    python examples/quickstart.py

Pass ``--mrs-metrics-json out.json`` to dump the serial run's metrics
report — startup time, per-phase (map/shuffle/reduce) breakdown, and
one span per task — as JSON.  Pass ``--mrs-event-log events.jsonl`` to
record the serial run's structured event stream; turn it into a
Chrome/Perfetto timeline afterwards with

    python -m repro.observability.analyze events.jsonl --trace trace.json

(open the trace at https://ui.perfetto.dev).
"""

import argparse
import os
import sys
import tempfile

from repro.apps.wordcount import WordCountCombined, output_counts
from repro.core.main import run_program
from repro.datagen import CorpusSpec, generate_corpus
from repro.runtime.cluster import run_on_cluster


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mrs-metrics-json",
        dest="metrics_json",
        metavar="PATH",
        default=None,
        help="dump the serial run's metrics report as JSON to PATH",
    )
    parser.add_argument(
        "--mrs-event-log",
        dest="event_log",
        metavar="PATH",
        default=None,
        help="append the serial run's structured events to PATH (JSONL)",
    )
    cli = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="mrs_quickstart_")
    corpus_root = os.path.join(workdir, "corpus")
    print(f"Generating a 30-file synthetic corpus under {corpus_root} ...")
    generate_corpus(
        corpus_root,
        CorpusSpec(n_files=30, mean_words_per_file=500, seed=1),
    )

    # 1. Serial: the default implementation, fully deterministic.
    serial = run_program(
        WordCountCombined,
        [corpus_root, os.path.join(workdir, "out_serial")],
        impl="serial",
        metrics_json=cli.metrics_json,
        event_log=cli.event_log,
    )
    counts = output_counts(serial)
    print(f"serial:       {len(counts)} distinct words")
    if cli.event_log:
        print(
            f"event log:    {cli.event_log} (timeline: python -m "
            f"repro.observability.analyze {cli.event_log} --trace OUT.json)"
        )
    if cli.metrics_json:
        from repro.observability import export

        report = serial.metrics_report
        phases = ", ".join(
            f"{name} {export.phase_seconds(report, name) * 1000:.0f} ms"
            for name in ("map", "shuffle", "reduce")
        )
        print(
            f"metrics:      startup "
            f"{export.startup_seconds(report) * 1000:.0f} ms; {phases}; "
            f"{export.span_count(report)} task spans -> {cli.metrics_json}"
        )

    # 2. Mock parallel: same task split as a cluster, one process,
    #    all intermediate data through files (catches serialization bugs).
    mock = run_program(
        WordCountCombined,
        [corpus_root, os.path.join(workdir, "out_mock")],
        impl="mockparallel",
    )
    assert output_counts(mock) == counts, "implementations must agree!"
    print("mockparallel: identical output ✓")

    # 3. Multiprocess: this process becomes a master and forks its
    #    slaves — parallel map/reduce without starting them by hand.
    pool = run_program(
        WordCountCombined,
        [corpus_root, os.path.join(workdir, "out_pool")],
        impl="multiprocess",
        procs=2,
    )
    assert output_counts(pool) == counts, "implementations must agree!"
    print("multiprocess: identical output ✓ (2 forked slaves)")

    # 4. Distributed: master in this process, 2 slave subprocesses.
    distributed = run_on_cluster(
        WordCountCombined,
        [corpus_root, os.path.join(workdir, "out_cluster")],
        n_slaves=2,
    )
    assert output_counts(distributed) == counts, "implementations must agree!"
    print("master/slave: identical output ✓ (2 slaves over XML-RPC)")

    top = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
    print("\nTop five words:")
    for word, count in top:
        print(f"  {word:10s} {count}")
    print(f"\nOutput files: {os.path.join(workdir, 'out_cluster')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
