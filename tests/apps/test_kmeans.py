"""k-means iterative MapReduce program."""

import numpy as np
import pytest

from repro.apps.kmeans import KMeans, generate_blobs, inertia, nearest_centroid
from repro.core.main import run_program
from repro.core.random_streams import numpy_stream

FLAGS = ["--km-points", "300", "--km-clusters", "3", "--km-dims", "2",
         "--km-splits", "4", "--mrs-seed", "8"]


class TestHelpers:
    def test_generate_blobs_shapes(self):
        points, centers = generate_blobs(100, 4, 3, numpy_stream(1))
        assert points.shape == (100, 3)
        assert centers.shape == (4, 3)

    def test_blobs_deterministic(self):
        a, _ = generate_blobs(50, 2, 2, numpy_stream(2))
        b, _ = generate_blobs(50, 2, 2, numpy_stream(2))
        assert np.array_equal(a, b)

    def test_nearest_centroid(self):
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert nearest_centroid(np.array([1.0, 1.0]), centroids) == 0
        assert nearest_centroid(np.array([9.0, 9.0]), centroids) == 1

    def test_inertia_zero_when_points_are_centroids(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert inertia(points, points) == 0.0


class TestKMeansRun:
    def test_converges(self):
        prog = run_program(KMeans, FLAGS, impl="serial")
        assert prog.iterations_run >= 1
        assert prog.shift_history[-1] <= max(prog.shift_history)
        assert np.isfinite(prog.inertia)

    def test_inertia_reasonable_for_blobs(self):
        """Tight blobs (sigma=0.5): mean squared distance per point
        should be near the noise floor once converged."""
        prog = run_program(KMeans, FLAGS, impl="serial")
        per_point = prog.inertia / prog.n_points
        assert per_point < 5.0

    def test_last_shift_below_tolerance_or_max_iters(self):
        prog = run_program(KMeans, FLAGS, impl="serial")
        assert (
            prog.shift_history[-1] <= prog.tolerance
            or prog.iterations_run == prog.max_iters
        )

    def test_centroid_count_preserved(self):
        prog = run_program(KMeans, FLAGS, impl="serial")
        assert prog.centroids.shape == (3, 2)

    def test_deterministic_given_seed(self):
        a = run_program(KMeans, FLAGS, impl="serial")
        b = run_program(KMeans, FLAGS, impl="serial")
        assert np.array_equal(a.centroids, b.centroids)

    def test_different_seed_differs(self):
        other = ["--km-points", "300", "--km-clusters", "3", "--km-dims", "2",
                 "--km-splits", "4", "--mrs-seed", "9"]
        a = run_program(KMeans, FLAGS, impl="serial")
        b = run_program(KMeans, other, impl="serial")
        assert not np.array_equal(a.centroids, b.centroids)


class TestKMeansFile:
    """The file-writing variant used by service/CLI runs."""

    def test_writes_model_file(self, tmp_path):
        from repro.apps.kmeans import KMeansFile

        outdir = tmp_path / "out"
        prog = run_program(KMeansFile, FLAGS + [str(outdir)], impl="serial")
        text = (outdir / "centroids.txt").read_text()
        lines = text.splitlines()
        assert len(lines) == prog.n_clusters + 2
        assert lines[-2].startswith("iterations\t")
        assert lines[-1].startswith("inertia\t")

    def test_file_identical_across_implementations(self, tmp_path):
        from repro.apps.kmeans import KMeansFile

        texts = {}
        for impl in ("serial", "mockparallel", "bypass"):
            outdir = tmp_path / impl
            run_program(KMeansFile, FLAGS + [str(outdir)], impl=impl)
            texts[impl] = (outdir / "centroids.txt").read_text()
        assert texts["serial"] == texts["mockparallel"]
        # bypass sums in a different order; compare numerically
        def rows(text):
            return [
                [float(x) for x in line.split()]
                for line in text.splitlines()
                if "\t" not in line
            ]
        assert np.allclose(rows(texts["serial"]), rows(texts["bypass"]),
                           atol=1e-5)

    def test_no_outdir_is_fine(self):
        from repro.apps.kmeans import KMeansFile

        prog = run_program(KMeansFile, FLAGS, impl="serial")
        assert np.isfinite(prog.inertia)


class TestKMeansReleases:
    FLAGS = FLAGS + ["--km-iters", "30", "--km-tol", "-1"]

    class Recording(KMeans):
        def run(self, job):
            status = super().run(job)
            self.live = len(job._datasets)
            return status

    def test_each_iteration_releases_its_source(self, monkeypatch):
        """Every iteration's point source is released with the rest of
        the iteration, and releasing it changes nothing computed."""
        from repro.core.dataset import LocalData
        from repro.core.job import Job

        released = run_program(self.Recording, self.FLAGS, impl="serial")
        release = Job.remove_data
        monkeypatch.setattr(
            Job,
            "remove_data",
            lambda job, data: None
            if isinstance(data, LocalData)
            else release(job, data),
        )
        kept = run_program(self.Recording, self.FLAGS, impl="serial")
        assert released.iterations_run == kept.iterations_run == 30
        assert released.live == 0 and kept.live == 30
        assert np.array_equal(released.centroids, kept.centroids)
        assert released.shift_history == kept.shift_history
