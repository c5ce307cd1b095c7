"""``wc_zipf``: the paper's flagship data job, map-side heavy.

WordCount with a combiner over a Gutenberg-layout corpus: tokenise,
emit, partition-scatter, hash-grouped combine, many small input files
in nested directories, and almost nothing left to shuffle once the
combiner has run.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from bench import harness, layers
from bench.workloads.base import BatchWorkload

from repro.apps.wordcount import WordCountCombined
from repro.core.main import run_program
from repro.core.program import expand_input_paths
from repro.datagen import CorpusSpec, generate_corpus
from repro.io.formats import default_read_pairs

REDUCE_TASKS = 2


class WcZipf(BatchWorkload):
    name = "wc_zipf"
    program_class = WordCountCombined
    backend = "multiprocess"
    full = {"files": 300, "words_per_file": 4000}
    smoke = {"files": 30, "words_per_file": 4000}

    def generate(self, directory: str) -> None:
        self.inputs = os.path.join(directory, "corpus")
        spec = CorpusSpec(
            n_files=self.size["files"],
            mean_words_per_file=self.size["words_per_file"],
            seed=self.seed,
        )
        seconds, _ = harness.timed(generate_corpus, self.inputs, spec)
        self.note("datagen.corpus_s", seconds)

    def args(self, outdir: str) -> List[str]:
        return ["--mrs-reduce-tasks", str(REDUCE_TASKS), self.inputs, outdir]

    def prepare(self) -> None:
        refdir = self.work.fresh("ref")
        self.serial_job_s, _ = harness.timed(
            run_program, WordCountCombined, self.args(refdir), impl="serial"
        )
        self.reference = harness.read_outputs(refdir)
        if not any(self.reference.values()):
            raise RuntimeError("serial reference produced no output")

    def verify(self, program: Any, outdir: str) -> bool:
        rendered = harness.rendered_outputs(program)
        self.text_outputs_empty = harness.empty_text_outputs(rendered, outdir)
        return rendered == self.reference

    def replay(self, replay: Any) -> bool:
        program = self.last_program
        self.files = expand_input_paths([self.inputs])
        # One map task per input file, as Job.file_data makes them.
        mapped = replay.map_stage(
            [lambda path=path: replay.read_files([path]) for path in self.files],
            program.map, REDUCE_TASKS, combiner=program.combine,
        )
        reduced = replay.reduce_stage(mapped, program.reduce, REDUCE_TASKS)
        return replay.text_output(reduced) == self.reference

    def probes(self, replay: Any, root: str, job_s: float) -> Dict[str, float]:
        out = {"io.bucket.text_outputs_empty": float(self.text_outputs_empty)}
        out.update(layers.serializer_costs(replay.sample, None, None))
        out.update(layers.partition_costs(replay.sample, REDUCE_TASKS, None))
        out.update(layers.native_kernel_costs(replay.sample, REDUCE_TASKS, None))
        out.update(layers.taskrunner_costs(
            self.last_program, list(default_read_pairs(self.files[0])),
            REDUCE_TASKS, True, root,
        ))
        return out
