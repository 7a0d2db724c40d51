"""Row-block evaluation of large grids (``orbits.in_row_blocks``).

A grid of ``orbits.FORK_MIN_NODES`` nodes or more is split into
``orbits.ROW_BLOCKS`` blocks of rows; every block after the first is
evaluated and formatted in a forked child that spools its CSV text into a
temporary file.  The tests set both constants to force a block count on
small grids: every count must give the summary and the CSV bytes of one
block, and leave no child process and no open spool file behind, whatever
happens in a block.
"""

import errno
import io
import os
import re
import tempfile
import warnings
from fractions import Fraction

import pytest

from liesym import (GridSpec, WorkerError, base_solution, cli, family_solution, gss_preset,
                    orbits, residual_grid)
from liesym.orbits import in_row_blocks

import test_cli
from test_cli import run_cli, strip_timestamp

GSS = gss_preset()
BLOCK_COUNTS = (2, 3, 7)
THREADED_FORK = r".*is multi-threaded, use of fork\(\)"

# (lambda of the family solution, or None for the base solution; grid):
# row counts that 2, 3 and 7 do not all divide; a box whose outer rows
# hold no in-domain node (|y| > |x| there); a box with none at all; a
# single column; a single row; a region where every node the domain
# admits overflows
GRIDS = {
    "family-13x11": (Fraction(1), GridSpec(-1.3, 1.3, -1.3, 0.3, 13, 11)),
    "empty-outer-rows": (None, GridSpec(0.1, 1.0, -3.0, 3.0, 5, 7)),
    "nothing-in-domain": (None, GridSpec(0.0, 0.5, 1.0, 2.0, 4, 5)),
    "one-column": (Fraction(1), GridSpec(0.4, 0.6, -1.0, 0.0, 1, 9)),
    "one-row": (None, GridSpec(1.0, 2.0, -0.5, 0.5, 9, 1)),
    "overflowing": (Fraction(10 ** 88), GridSpec(*orbits.region(1e88).bounding_box(), 6, 9)),
}


@pytest.fixture(autouse=True)
def leaves_nothing_behind(monkeypatch):
    """After each test, every child has been reaped, every spool file made
    by ``tempfile.TemporaryFile`` is closed and no fork happened while
    the process had threads."""
    spools = []

    def recording(*args, **kwargs):
        fh = make(*args, **kwargs)
        spools.append(fh)
        return fh

    make = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    with warnings.catch_warnings(record=True) as caught:
        # Python 3.12+ warns at a fork in a process with threads, then
        # clears the warning, so -W error cannot turn it into a failure
        warnings.filterwarnings("always", message=THREADED_FORK, category=DeprecationWarning)
        yield spools
    assert [str(w.message) for w in caught if re.match(THREADED_FORK, str(w.message))] == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert all(fh.closed for fh in spools)


@pytest.fixture
def blocks(monkeypatch):
    """Call with a count to split every grid, however small, into that
    many row blocks (at most one per row)."""
    monkeypatch.setattr(orbits, "FORK_MIN_NODES", 0)
    return lambda count: monkeypatch.setattr(orbits, "ROW_BLOCKS", count)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked, as seen by this process."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def evaluated(name, sink=None):
    """The summary and the CSV text of a sample grid."""
    lam, grid = GRIDS[name]
    sol = base_solution(GSS.a) if lam is None else family_solution(GSS.a, lam)
    sink = io.StringIO() if sink is None else sink
    return residual_grid(GSS, sol, grid, sink), sink.getvalue()


def failing_in_children(measure_and_u):
    """Wrap a compiled measure to raise in any process but this one."""
    parent = os.getpid()

    def measure(x, y):
        if os.getpid() != parent:
            raise RuntimeError("block failed")
        return measure_and_u(x, y)

    return measure


def failing_measure(monkeypatch, wrap):
    real = orbits.to_cancellation
    monkeypatch.setattr(orbits, "to_cancellation",
                        lambda *args, **kwargs: wrap(real(*args, **kwargs)))


class TestSameResultForAnyBlockCount:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_field_and_csv(self, name, blocks, forks):
        blocks(1)
        ref_field, ref_csv = evaluated(name)
        for count in BLOCK_COUNTS:
            blocks(count)
            field, csv = evaluated(name)
            assert field == ref_field
            assert csv == ref_csv
        grid = GRIDS[name][1]
        # one pass evaluates and formats: min(count, ny) - 1 children per count
        assert len(forks) == sum(min(c, grid.ny) - 1 for c in BLOCK_COUNTS)

    def test_sample_grids_hold_the_cases(self):
        fields = {name: evaluated(name) for name in GRIDS}
        assert fields["nothing-in-domain"][0].sup_norm is None
        empty, text = fields["empty-outer-rows"]
        flags = [row.split(",")[2] for row in text.splitlines()[1:]]
        assert empty.n_in_domain > 0 and flags[:5] == ["0"] * 5 and flags[-5:] == ["0"] * 5
        assert fields["family-13x11"][0].n_in_domain > 0
        overflowing = fields["overflowing"][0]
        assert overflowing.n_in_domain == 0 and overflowing.n_masked_off_real > 0
        assert all(fields[name][0].n_masked_off_real == 0
                   for name in GRIDS if name != "overflowing")

    def test_sink_changes_no_summary(self, blocks):
        blocks(3)
        for name, (lam, grid) in GRIDS.items():
            sol = base_solution(GSS.a) if lam is None else family_solution(GSS.a, lam)
            assert residual_grid(GSS, sol, grid) == evaluated(name)[0], name

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    @pytest.mark.parametrize("argv,code,csv_sha,report_sha", test_cli.TestGoldenBytes.CASES,
                             ids=["gss-family-120", "gss-base-90", "a7_2-family-24"])
    def test_golden_bytes(self, argv, code, csv_sha, report_sha, count, blocks, forks):
        blocks(count)
        test_cli.TestGoldenBytes._check(argv, code, csv_sha, report_sha)
        assert len(forks) == count - 1

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_csv_file_and_report(self, count, blocks, tmp_path):
        argv = ["residual-grid", "--preset", "gss", "--solution", "family",
                "--nx", "31", "--ny", "29"]
        blocks(1)
        code, out, _ = run_cli([*argv, "--output", str(tmp_path / "one.csv")])
        blocks(count)
        got, got_out, _ = run_cli([*argv, "--output", str(tmp_path / "many.csv")])
        assert (got, strip_timestamp(got_out).replace("many.csv", "one.csv")) == (
            code, strip_timestamp(out))
        assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


class TestThreshold:
    def test_small_grid_never_forks(self, monkeypatch):
        def refuse():
            raise AssertionError("forked below the threshold")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(orbits, "ROW_BLOCKS", 4)
        # the README's grid: 10,000 nodes
        code, out, _ = run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                                "--lambda", "1", "--nx", "100", "--ny", "100"])
        assert code == 0
        assert test_cli.json_report(out)["in_domain_nodes"] > 0

    def test_threshold_is_inclusive(self, monkeypatch, forks):
        monkeypatch.setattr(orbits, "ROW_BLOCKS", 2)

        def work(rows, write):
            write(f"{rows.start}-{rows.stop};")
            return float(rows.stop), len(rows), rows.start

        texts = []
        assert in_row_blocks(4, orbits.FORK_MIN_NODES - 1, work, texts.append) == (4.0, 4, 0)
        assert texts == ["0-4;"] and forks == []
        texts.clear()
        # the child's text and its (sup, count, off_real) trailer come back
        # through its file
        assert in_row_blocks(4, orbits.FORK_MIN_NODES, work, texts.append) == (4.0, 4, 2)
        assert "".join(texts) == "0-2;2-4;" and len(forks) == 1


class TestFailures:
    def test_failing_child_is_an_error_line(self, monkeypatch, blocks, forks):
        blocks(2)
        failing_measure(monkeypatch, failing_in_children)
        code, out, err = run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                                  "--nx", "10", "--ny", "10"])
        assert code not in (0, None) and out == ""
        assert err == ("error: rows 5-9 of the grid failed in a worker process: "
                       "RuntimeError: block failed\n")
        assert len(forks) == 1

    def test_failing_child_removes_the_csv_file_it_created(self, monkeypatch, blocks, forks,
                                                          tmp_path):
        blocks(2)
        failing_measure(monkeypatch, failing_in_children)
        path = tmp_path / "field.csv"
        code, out, err = run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                                  "--nx", "6", "--ny", "6", "--output", str(path)])
        assert code == 1 and out == "" and "failed in a worker process" in err
        assert not path.exists()

    def test_failing_child_keeps_a_file_that_existed(self, monkeypatch, blocks, forks, tmp_path):
        blocks(2)
        failing_measure(monkeypatch, failing_in_children)
        path = tmp_path / "field.csv"
        path.write_text("x,y\n")
        code, _, _ = run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                              "--nx", "6", "--ny", "6", "--output", str(path)])
        assert code == 1
        assert path.exists()

    @pytest.mark.parametrize("count", (2, 3))
    def test_failing_child_leaves_the_sink_empty(self, count, monkeypatch, blocks, forks):
        # this process writes its own rows only after every child exited 0
        blocks(count)
        failing_measure(monkeypatch, failing_in_children)
        sink = io.StringIO()
        with pytest.raises(WorkerError, match="RuntimeError: block failed"):
            evaluated("family-13x11", sink)
        assert sink.getvalue() == ""
        assert len(forks) == count - 1

    def test_failing_parent_block_reaps_children(self, monkeypatch, blocks, forks):
        blocks(3)
        parent = os.getpid()

        def failing_here(measure_and_u):
            def measure(x, y):
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                return measure_and_u(x, y)
            return measure

        failing_measure(monkeypatch, failing_here)
        with pytest.raises(KeyboardInterrupt):
            evaluated("family-13x11")
        assert len(forks) == 2  # the fixture checks they were reaped

    @pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}], ids=["second", "third", "both"])
    def test_fork_error_works_the_block_here(self, failing, monkeypatch, blocks):
        blocks(1)
        ref_field, ref_csv = evaluated("family-13x11")
        blocks(3)
        calls = []
        real_fork = os.fork

        def fork():  # for blocks 2 and 3
            calls.append(None)
            if len(calls) - 1 in failing:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        field, csv = evaluated("family-13x11")
        assert field == ref_field
        assert csv == ref_csv
        assert len(calls) == 2

    def test_spool_file_error_works_the_block_here(self, monkeypatch, blocks, forks):
        blocks(1)
        ref_field, ref_csv = evaluated("family-13x11")
        blocks(2)

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
        field, csv = evaluated("family-13x11")
        assert (field, csv) == (ref_field, ref_csv)
        assert forks == []


class TestChildExit:
    """A child leaves through os._exit: it runs none of the parent's
    ``finally`` blocks (``cli.run`` clears the memo in one) and flushes
    none of the parent's buffers."""

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "failing"])
    def test_child_runs_no_parent_cleanup(self, fail, monkeypatch, blocks, forks, tmp_path):
        blocks(3)
        if fail:
            failing_measure(monkeypatch, failing_in_children)
        log = os.open(tmp_path / "clear_memo.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        real_clear = cli.clear_memo

        def clear_memo():
            os.write(log, f"{os.getpid()}\n".encode())
            real_clear()

        monkeypatch.setattr(cli, "clear_memo", clear_memo)
        pending = open(tmp_path / "pending.txt", "w")  # buffered, written before the forks
        pending.write("written once\n")
        try:
            code, _, _ = run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                                  "--nx", "12", "--ny", "12",
                                  "--output", str(tmp_path / "field.csv")])
        finally:
            pending.close()
            os.close(log)
        assert code == (1 if fail else 0)
        assert len(forks) == 2
        assert (tmp_path / "pending.txt").read_text() == "written once\n"
        assert (tmp_path / "clear_memo.log").read_text() == f"{os.getpid()}\n"
        if not fail:
            text = (tmp_path / "field.csv").read_text()
            assert text.count("x,y,in_domain") == 1 and len(text.splitlines()) == 145
