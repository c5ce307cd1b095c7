"""Cross-implementation equivalence — the paper's own debugging
methodology (section IV-A): "A program's master/slave, serial, mock
parallel, and bypass implementations should all produce identical
answers.  Differences ... indicate a bug in the program or possibly in
Mrs."  (The master/slave leg lives in tests/integration.)
"""

import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.kmeans import KMeans
from repro.apps.pi.estimator import PiEstimator
from repro.apps.pso.mrpso import ApiaryPSO
from repro.apps.wordcount import (
    WordCount,
    WordCountCombined,
    WordCountWithBypass,
    output_counts,
)
from repro.core.main import run_program

LOCAL_IMPLS = ("serial", "mockparallel")


class TestWordCountEquivalence:
    @pytest.mark.parametrize("impl", LOCAL_IMPLS)
    def test_combined_matches_plain(self, impl, text_file, tmp_path):
        plain = run_program(
            WordCount, [text_file, str(tmp_path / "a")], impl=impl
        )
        combined = run_program(
            WordCountCombined, [text_file, str(tmp_path / "b")], impl=impl
        )
        assert output_counts(plain) == output_counts(combined)

    def test_all_local_impls_agree(self, small_corpus, tmp_path):
        root, _ = small_corpus
        results = {}
        for impl in LOCAL_IMPLS:
            prog = run_program(
                WordCountWithBypass, [root, str(tmp_path / impl)], impl=impl
            )
            results[impl] = output_counts(prog)
        bypass = run_program(
            WordCountWithBypass, [root, str(tmp_path / "byp")], impl="bypass"
        )
        results["bypass"] = bypass.bypass_counts
        first = results.pop("serial")
        for impl, counts in results.items():
            assert counts == first, f"{impl} diverged from serial"


class TestPiEquivalence:
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_serial_mock_bypass_identical(self, kernel):
        estimates = {}
        for impl in (*LOCAL_IMPLS, "bypass"):
            prog = run_program(
                PiEstimator,
                ["--pi-samples", "30000", "--pi-tasks", "5",
                 "--pi-kernel", kernel],
                impl=impl,
            )
            estimates[impl] = (prog.pi_estimate, prog.total_inside)
        assert len(set(estimates.values())) == 1

    def test_task_count_does_not_change_answer(self):
        """Halton indices are split by offset, so the union over tasks
        is independent of the task count."""
        results = {
            tasks: run_program(
                PiEstimator,
                ["--pi-samples", "20000", "--pi-tasks", str(tasks)],
                impl="serial",
            ).total_inside
            for tasks in (1, 3, 8)
        }
        assert len(set(results.values())) == 1


PSO_FLAGS = [
    "--mrs-seed", "11", "--pso-function", "sphere", "--pso-dims", "8",
    "--pso-subswarms", "3", "--pso-particles", "4", "--pso-inner", "4",
    "--pso-outer", "6",
]


class TestPsoEquivalence:
    def test_stochastic_algorithm_identical_everywhere(self):
        logs = {}
        for impl in (*LOCAL_IMPLS, "bypass"):
            prog = run_program(ApiaryPSO, PSO_FLAGS, impl=impl)
            logs[impl] = [
                (r.iteration, r.evals, r.best) for r in prog.convergence
            ]
        assert logs["serial"] == logs["mockparallel"] == logs["bypass"]

    def test_different_seeds_differ(self):
        a = run_program(
            ApiaryPSO, ["--mrs-seed", "1"] + PSO_FLAGS[2:], impl="serial"
        )
        b = run_program(
            ApiaryPSO, ["--mrs-seed", "2"] + PSO_FLAGS[2:], impl="serial"
        )
        assert a.best_value != b.best_value


KM_FLAGS = [
    "--km-points", "200", "--km-clusters", "3", "--km-splits", "4",
    "--mrs-seed", "13",
]


class TestKMeansEquivalence:
    def test_serial_equals_mockparallel_exactly(self):
        ser = run_program(KMeans, KM_FLAGS, impl="serial")
        mock = run_program(KMeans, KM_FLAGS, impl="mockparallel")
        assert np.array_equal(ser.centroids, mock.centroids)
        assert ser.shift_history == mock.shift_history

    def test_pool_equals_serial(self, tmp_path):
        ser = run_program(KMeans, KM_FLAGS, impl="serial")
        pool = run_program(
            KMeans, KM_FLAGS, impl="multiprocess", procs=2, tmpdir=str(tmp_path)
        )
        assert np.array_equal(ser.centroids, pool.centroids)
        assert ser.shift_history == pool.shift_history

    def test_bypass_agrees_numerically(self):
        ser = run_program(KMeans, KM_FLAGS, impl="serial")
        byp = run_program(KMeans, KM_FLAGS, impl="bypass")
        assert ser.iterations_run == byp.iterations_run
        assert np.allclose(ser.centroids, byp.centroids, atol=1e-8)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"),
                whitelist_characters=" ",
            ),
            max_size=60,
        ),
        max_size=15,
    )
)
def test_wordcount_equals_counter_property(tmp_path_factory, lines):
    """MapReduce WordCount ≡ collections.Counter on arbitrary text."""
    tmp = tmp_path_factory.mktemp("wc")
    path = tmp / "input.txt"
    path.write_text("\n".join(lines) + "\n")
    expected = collections.Counter(
        word for line in lines for word in line.split()
    )
    prog = run_program(
        WordCount, [str(path), str(tmp / "out")], impl="serial"
    )
    assert output_counts(prog) == dict(expected)
