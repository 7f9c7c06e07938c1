"""The owner of every forked range: `ormediate._ranges` cuts the work, and
`ormediate._Children` forks, connects and reaps the children."""

import os
import subprocess
import sys
import time

import pytest

from ormediate import _Children, _ranges
from helpers import child_env, no_child_left


def _io_reference(units, least, cpus):
    """The CSV reader's and writer's rule before `_ranges`: a count of one per
    CPU with at least `least` rows each, and the distinct edges units*i//count."""
    count = max(1, min(cpus, units // least))
    edges = sorted({units * i // count for i in range(count + 1)})
    return list(zip(edges, edges[1:])) or [(0, units)]


def _passes_reference(units, least, cpus):
    """The IRLS passes' rule before `_ranges`: slices of the block starts."""
    starts = range(units)
    count = max(1, min(cpus, len(starts) // least))
    blocks = [starts[len(starts) * i // count : len(starts) * (i + 1) // count]
              for i in range(count)]
    return [(r.start, r.stop) for r in blocks]


def test_ranges_cut_where_the_reader_writer_and_passes_cut():
    for units in range(301):
        for least in (1, 6, 100):
            for cpus in range(1, 5):
                edges = [(r.start, r.stop) for r in _ranges(units, least, cpus)]
                assert edges == _io_reference(units, least, cpus), (units, least, cpus)
                assert edges == _passes_reference(units, least, cpus), (units, least, cpus)
                assert units == 0 or all(lo < hi for lo, hi in edges)


def test_one_range_where_there_is_no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _ranges(1000, 1, 4) == [range(0, 1000)]


def _drain(end) -> bool:
    """A child's work: read until the end of its input."""
    while end.recv(4096):
        pass
    return True


def _exited(pid: int) -> bool:
    """Whether a child has exited, within 30 s; it is left to be reaped."""
    deadline = time.monotonic() + 30
    while os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_a_closed_parent_end_ends_that_childs_input_alone():
    # no later child holds the parent end of an earlier one, so closing the
    # first child's end lets it leave while the other two still read
    with _Children() as children:
        (first, end), *rest = [children.connect(_drain) for _ in range(3)]
        end.close()
        assert _exited(first)
        assert children.reap(first)
        for pid, _ in rest:
            assert os.waitpid(pid, os.WNOHANG) == (0, 0)
        for pid, end in rest:
            end.close()
            assert _exited(pid) and children.reap(pid)
    no_child_left()


def test_leaving_kills_the_connected_children_still_running():
    with _Children() as children:
        pids = [children.connect(_drain)[0] for _ in range(2)]
    no_child_left()
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_the_modules_that_fork_load_no_socket():
    # `connect`, `send` and `receive` import it when a child is connected
    code = "import sys, ormediate.io, ormediate.logit; assert 'socket' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())
