"""k-means clustering as iterative MapReduce.

The paper's introduction lists k-means among the iterative algorithms
MapReduce has been applied to (reference [2]).  This program is a
second exercise of the iterative API with a different dataflow shape
than PSO: the model (centroids) must reach every map task each
iteration.  We ship the current centroids inside each record — the
simplest scheme that behaves identically in every implementation,
including distributed slaves that share nothing with the master but
the data plane.  (Production codes broadcast the model via a shared
file; the per-record copy is fine at example scale and keeps the
cross-implementation equivalence property trivially true.)

map((point_id, (point, centroids))) -> (nearest_index, (point, 1))
reduce(index, partials)            -> (sum_vector, count)
"""

from __future__ import annotations

import os
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

import repro as mrs

#: Stream namespaces (shared with nothing else).
DATA_STREAM = 10
INIT_STREAM = 11


def generate_blobs(
    n_points: int,
    n_clusters: int,
    dims: int,
    rng: np.random.Generator,
    spread: float = 0.5,
    box: float = 10.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs with uniformly placed true centers.

    Returns ``(points, true_centers)``.
    """
    centers = rng.uniform(-box, box, size=(n_clusters, dims))
    assignments = rng.integers(0, n_clusters, size=n_points)
    points = centers[assignments] + rng.normal(0.0, spread, size=(n_points, dims))
    return points, centers


def nearest_centroid(point: np.ndarray, centroids: np.ndarray) -> int:
    deltas = centroids - point
    return int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))


class KMeans(mrs.MapReduce):
    """Lloyd's algorithm over a synthetic blob dataset."""

    def __init__(self, opts, args):
        super().__init__(opts, args)
        self.n_points = getattr(opts, "km_points", 1000)
        self.n_clusters = getattr(opts, "km_clusters", 4)
        self.dims = getattr(opts, "km_dims", 2)
        self.max_iters = getattr(opts, "km_iters", 20)
        self.tolerance = getattr(opts, "km_tol", 1e-4)
        self.splits_override = getattr(opts, "km_splits", 0)
        self.centroids: Optional[np.ndarray] = None
        #: Max centroid movement per iteration.
        self.shift_history: List[float] = []
        self.iterations_run = 0
        self.inertia = float("nan")

    @classmethod
    def update_parser(cls, parser):
        parser.add_argument("--km-points", dest="km_points", type=int, default=1000)
        parser.add_argument("--km-clusters", dest="km_clusters", type=int, default=4)
        parser.add_argument("--km-dims", dest="km_dims", type=int, default=2)
        parser.add_argument("--km-iters", dest="km_iters", type=int, default=20)
        parser.add_argument("--km-tol", dest="km_tol", type=float, default=1e-4)
        parser.add_argument(
            "--km-splits", dest="km_splits", type=int, default=0,
            help="map task count (0 = implementation default; pin it "
            "to make floating-point sums identical across "
            "implementations with different default parallelism)",
        )
        return parser

    # -- data ---------------------------------------------------------------

    def make_points(self) -> np.ndarray:
        rng = self.numpy_random(DATA_STREAM)
        points, _ = generate_blobs(
            self.n_points, self.n_clusters, self.dims, rng
        )
        return points

    def initial_centroids(self, points: np.ndarray) -> np.ndarray:
        rng = self.numpy_random(INIT_STREAM)
        indices = rng.choice(len(points), size=self.n_clusters, replace=False)
        return points[indices].copy()

    # -- MapReduce functions ----------------------------------------------------

    def map(
        self, key: int, value: Tuple[np.ndarray, np.ndarray]
    ) -> Iterator[Tuple[int, Tuple[np.ndarray, int]]]:
        point, centroids = value
        yield (nearest_centroid(point, centroids), (point.copy(), 1))

    def combine(
        self, key: int, values: Iterator[Tuple[np.ndarray, int]]
    ) -> Iterator[Tuple[np.ndarray, int]]:
        """Partial-sum combiner: (sum_vector, count)."""
        total = None
        count = 0
        for vector, n in values:
            total = vector.copy() if total is None else total + vector
            count += n
        if count:
            yield (total, count)

    # The reduce *is* the combiner (associative partial sums), exactly
    # like WordCount.
    reduce = combine

    # -- driver --------------------------------------------------------------------

    def run(self, job: mrs.Job) -> int:
        points = self.make_points()
        self.centroids = self.initial_centroids(points)
        splits = self.splits_override or max(2, job.backend.default_splits)
        for _ in range(self.max_iters):
            source = job.local_data(
                [(i, (p, self.centroids)) for i, p in enumerate(points)],
                splits=splits,
            )
            intermediate = job.map_data(
                source, self.map, splits=self.n_clusters,
                combiner=self.combine, affinity_group="km_assign",
            )
            output = job.reduce_data(
                intermediate, self.reduce, splits=self.n_clusters,
                affinity_group="km_update",
            )
            job.wait(output)
            new_centroids = self.centroids.copy()
            for index, (total, count) in output.data():
                new_centroids[index] = total / count
            shift = float(np.abs(new_centroids - self.centroids).max())
            self.centroids = new_centroids
            self.shift_history.append(shift)
            self.iterations_run += 1
            job.remove_data(source)
            job.remove_data(intermediate)
            job.remove_data(output)
            if shift <= self.tolerance:
                break
        self.inertia = inertia(points, self.centroids)
        return 0

    def bypass(self) -> int:
        """Plain NumPy Lloyd iterations, same seeds and update rule."""
        points = self.make_points()
        self.centroids = self.initial_centroids(points)
        for _ in range(self.max_iters):
            distances = (
                (points[:, None, :] - self.centroids[None, :, :]) ** 2
            ).sum(axis=2)
            nearest = distances.argmin(axis=1)
            new_centroids = self.centroids.copy()
            for index in range(self.n_clusters):
                members = points[nearest == index]
                if len(members):
                    new_centroids[index] = members.sum(axis=0) / len(members)
            shift = float(np.abs(new_centroids - self.centroids).max())
            self.centroids = new_centroids
            self.shift_history.append(shift)
            self.iterations_run += 1
            if shift <= self.tolerance:
                break
        self.inertia = inertia(points, self.centroids)
        return 0


class KMeansFile(KMeans):
    """KMeans that also writes its final model to the output directory
    (last positional arg) — gives CLI/service runs a file artifact that
    can be byte-compared across implementations."""

    def _write_model(self) -> None:
        outdir = self.output_dir
        if not outdir or self.centroids is None:
            return
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "centroids.txt"), "w") as f:
            for row in self.centroids:
                f.write(" ".join(f"{x:.6f}" for x in row) + "\n")
            f.write(f"iterations\t{self.iterations_run}\n")
            f.write(f"inertia\t{self.inertia:.6f}\n")

    def run(self, job: mrs.Job) -> int:
        status = super().run(job)
        if status in (None, 0):
            self._write_model()
        return status

    def bypass(self) -> int:
        status = super().bypass()
        if status in (None, 0):
            self._write_model()
        return status


def inertia(points: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances to the nearest centroid."""
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(distances.min(axis=1).sum())


if __name__ == "__main__":
    mrs.exit_main(KMeans)
