"""Wire schema validation."""

import pytest

from repro.comm import protocol


class TestTaskDescriptor:
    def make(self, **overrides):
        descriptor = protocol.make_task_descriptor(
            dataset_id="map_1",
            task_index=2,
            op_dict={"kind": "map", "splits": 2, "parter_name": "partition",
                     "map_name": "map", "combine_name": None},
            input_urls=["file:/a", "file:/b"],
            outdir="/shared/map_1",
            format_ext="mrsb",
        )
        descriptor.update(overrides)
        return descriptor

    def test_valid_descriptor_passes(self):
        assert protocol.check_task_descriptor(self.make())

    def test_missing_field_rejected(self):
        descriptor = self.make()
        del descriptor["input_urls"]
        with pytest.raises(protocol.ProtocolError, match="input_urls"):
            protocol.check_task_descriptor(descriptor)

    def test_bad_op_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="operation"):
            protocol.check_task_descriptor(self.make(op={"no": "kind"}))

    def test_user_output_defaults_false(self):
        assert self.make()["user_output"] is False

    def test_types_are_xmlrpc_safe(self):
        for value in self.make().values():
            assert isinstance(value, (str, int, bool, list, dict, type(None)))


class TestDoneMessage:
    """What the master runs on a ``done`` report's positional
    arguments (slaves call ``done(...)`` directly)."""

    def test_roundtrip(self):
        """Each bucket is reported once: split, url, sortedness and the
        written file's (records, bytes), floats on the wire."""
        urls = protocol.parse_bucket_urls(
            [
                [0, "file:/x", True, 3.0, 120.0],
                [1, "http://h:1/y", False, 0.0, 8.0],
            ]
        )
        assert urls == [
            (0, "file:/x", True, (3, 120)),
            (1, "http://h:1/y", False, (0, 8)),
        ]

    def test_legacy_pairs_accepted(self):
        # Older slaves report (split, url) pairs or (split, url, sorted)
        # triples: the size is unknown, and sortedness defaults to False
        # (a safe "unknown" — the consumer just re-sorts).
        urls = protocol.parse_bucket_urls(
            [(0, "file:/x"), (1, "http://h:1/y", True)]
        )
        assert urls == [
            (0, "file:/x", False, None),
            (1, "http://h:1/y", True, None),
        ]

    def test_metrics_roundtrip(self):
        payload = protocol.make_task_metrics(
            span={"marks": [["fetch", 0.1], ["map", 0.5]]},
            registry={"counters": {"slave.tasks.completed": 1.0}},
            health={"rss_bytes": 5},
        )
        assert protocol.parse_task_metrics(payload) == {
            "span": {"marks": [["fetch", 0.1], ["map", 0.5]]},
            "registry": {"counters": {"slave.tasks.completed": 1.0}},
            "health": {"rss_bytes": 5.0},
        }

    @pytest.mark.parametrize(
        "raw", [None, 42, "x", {"span": 7, "registry": [], "health": "no",
                                "buckets": [["a"], 5]}]
    )
    def test_metrics_garbage_tolerated(self, raw):
        """Metrics must never fail a completion."""
        assert protocol.parse_task_metrics(raw) == {
            "span": {}, "registry": {}, "health": None,
        }

    def test_malformed_urls_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_bucket_urls([["notanint", object()]])
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_bucket_urls(42)
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_bucket_urls([[0, "file:/x", True, "many", 1.0]])
