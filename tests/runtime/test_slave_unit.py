"""Slave start-up, tested in-process without a master."""

import pytest

from repro.core.options import default_options
from repro.core.program import MapReduce
from repro.runtime import slave as slave_mod


class PortTaken(OSError):
    pass


def test_failed_data_server_leaves_nothing_behind(monkeypatch, launch_leftovers):
    """A start that fails after the RPC listener is up closes it and
    removes the run directory it created."""

    def refuse(*args, **kwargs):
        raise PortTaken("data port taken")

    monkeypatch.setattr(slave_mod, "DataServer", refuse)
    opts = default_options(master="127.0.0.1:1", data_plane="http")
    with pytest.raises(PortTaken):
        slave_mod.Slave(MapReduce(opts, []), opts)
    assert launch_leftovers() == []
