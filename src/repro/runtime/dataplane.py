"""Shared-filesystem data-plane helpers.

The slaves of a master, exec'd or forked, exchange intermediate data
as bucket files under a tmpdir shared by every slave.  Input buckets
that exist only in the coordinating process's memory (``LocalData``
pairs) must be spilled to that tmpdir before a task descriptor
referencing them can be handed out.
"""

from __future__ import annotations

import os

from repro.core.dataset import BaseDataset
from repro.io.bucket import Bucket, FileBucket


def spill_bucket(dataset: BaseDataset, bucket: Bucket, tmpdir: str) -> str:
    """Write a coordinator-resident bucket to the shared data plane.

    Returns the filesystem path of the spill file; the caller decides
    how to publish it (``file:`` URL or HTTP data-server URL).
    """
    directory = os.path.join(tmpdir, dataset.id)
    path = os.path.join(
        directory, f"{dataset.id}_{bucket.source}_{bucket.split}.mrsb"
    )
    os.makedirs(directory, exist_ok=True)
    # Spill-only: pairs batch-serialize straight to the file, reusing
    # the source bucket's cached key bytes and sort state; no second
    # in-memory copy is kept.
    spill = FileBucket(
        path,
        source=bucket.source,
        split=bucket.split,
        key_serializer=getattr(dataset, "key_serializer", None),
        value_serializer=getattr(dataset, "value_serializer", None),
        retain=False,
    )
    spill.absorb(bucket)
    spill.open_writer()
    spill.close_writer()
    # Record the file's sort order on the coordinator's bucket so task
    # descriptors can advertise it and reduce merges can stream it.
    bucket.url_sorted = spill.url_sorted
    return path
