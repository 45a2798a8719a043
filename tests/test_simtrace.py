"""TraceRecords: a trace's rows held as columns, records built on read."""

import dataclasses
import math

import numpy as np
import pytest

from predictsched import (
    ClusterConfig,
    SimTrace,
    TraceRecord,
    TraceRecords,
    objectives,
    run,
    trace_to_csv,
)

from conftest import backlog_workload

ROWS = ((1, 0.0, 0.0, 10.0, 3), (2, 0.0, 10.0, 20.0, 3), (3, 5.0, 12.0, 13.0, 1))
RECORDS = tuple(TraceRecord(*row) for row in ROWS)


def columns(rows):
    return TraceRecords([r[0] for r in rows], np.array([r[1:4] for r in rows], float).reshape(-1, 3),
                        [r[4] for r in rows])


@pytest.fixture
def records():
    return columns(ROWS)


class TestSequence:
    def test_len_index_and_iteration(self, records):
        assert len(records) == 3
        assert records[0] == RECORDS[0]
        assert records[-1] == RECORDS[2] == records[2]
        assert list(records) == list(RECORDS)
        assert tuple(reversed(records)) == RECORDS[::-1]
        assert RECORDS[1] in records
        with pytest.raises(IndexError):
            records[3]
        with pytest.raises(IndexError):
            records[-4]

    def test_rows_are_built_on_read_and_not_cached(self, records):
        first = records[0]
        assert isinstance(first, TraceRecord)
        assert first == records[0] and first is not records[0]
        assert not hasattr(records, "__dict__")  # nothing to cache them in

    def test_slice_is_columns(self, records):
        tail = records[1:]
        assert isinstance(tail, TraceRecords)
        assert tail == RECORDS[1:]
        assert records[::2] == (RECORDS[0], RECORDS[2])
        assert records[5:] == ()

    def test_add_concatenates(self, records):
        doubled = records + records[:1]
        assert isinstance(doubled, TraceRecords)
        assert doubled == RECORDS + RECORDS[:1]
        assert records[:1] + RECORDS[1:] == records

    def test_columns_are_read_only(self, records):
        with pytest.raises(ValueError):
            records.times[0, 0] = 1.0


class TestEquality:
    def test_equal_to_the_tuple_of_records(self, records):
        assert records == RECORDS
        assert RECORDS == records
        assert records != RECORDS[:2]
        assert records != list(RECORDS)  # as a tuple is not equal to a list

    def test_equal_traces_hash_equal(self, records):
        cluster = ClusterConfig(8)
        a = SimTrace(records, cluster, "x")
        b = SimTrace(RECORDS, cluster, "x")
        assert a == b
        assert hash(a) == hash(b)
        assert hash(records) == hash(RECORDS)
        assert len({a, b}) == 1

    def test_values_not_types_decide(self):
        # a whole float equals its int, and 0.0 equals -0.0, in hash too
        ints = columns([(1, 0, 0, 10, 2)])
        floats = columns([(1, -0.0, 0.0, 10.0, 2.0)])
        assert ints == floats and hash(ints) == hash(floats)

    def test_other_values_differ(self, records):
        moved = columns([ROWS[0], ROWS[1], (3, 5.0, 12.5, 13.0, 1)])
        assert records != moved
        assert records != columns([ROWS[0], ROWS[1], (4, 5.0, 12.0, 13.0, 1)])
        assert records != columns([ROWS[0], ROWS[1], (3, 5.0, 12.0, 13.0, 2)])


class TestSimTrace:
    def test_any_sequence_of_records_becomes_columns(self):
        cluster = ClusterConfig(8)
        for given in (RECORDS, list(RECORDS), columns(ROWS)):
            trace = SimTrace(given, cluster, "x")
            assert isinstance(trace.records, TraceRecords)
            assert trace.records == RECORDS

    def test_replace_records(self, records):
        trace = SimTrace(records, ClusterConfig(8), "x")
        doubled = dataclasses.replace(trace, records=trace.records + trace.records[:1])
        assert isinstance(doubled.records, TraceRecords)
        assert len(doubled.records) == 4
        moved = list(trace.records)
        moved[1] = dataclasses.replace(moved[1], start=11.0)
        again = dataclasses.replace(trace, records=tuple(moved))
        assert isinstance(again.records, TraceRecords)
        assert again.records[1].start == 11.0
        assert again != trace

    def test_engine_trace_is_columns(self):
        wl = backlog_workload()
        trace = run(wl, ClusterConfig(16), "easy-bf")
        assert isinstance(trace.records, TraceRecords)
        assert trace.records.job_ids == [j.job_id for j in wl]
        assert trace.records.cpus == [j.cpus for j in wl]
        assert trace.records.times[:, 0].tolist() == [j.submit_time for j in wl]


class TestRowCheck:
    @pytest.mark.parametrize("row, got", [
        ((7, 5.0, 4.0, 9.0, 1), r"\(5.0, 4.0, 9.0\)"),  # start before submit
        ((7, 0.0, 4.0, 4.0, 1), r"\(0.0, 4.0, 4.0\)"),  # start equal to the finish
        ((7, 0.0, math.nan, 4.0, 1), r"\(0.0, nan, 4.0\)"),
        ((7, math.nan, 1.0, 4.0, 1), r"\(nan, 1.0, 4.0\)"),
        ((7, 0.0, 1.0, math.nan, 1), r"\(0.0, 1.0, nan\)"),
        ((7, 0.0, 1.0, math.inf, 1), r"\(0.0, 1.0, inf\)"),  # trace_to_csv could not write it
        ((7, -math.inf, 1.0, 4.0, 1), r"\(-inf, 1.0, 4.0\)"),
    ])
    def test_bad_row_raises_and_names_the_job(self, row, got):
        message = "job 7: need submit <= start < finish, got " + got
        with pytest.raises(ValueError, match=message):
            columns([ROWS[0], row, ROWS[2]])
        with pytest.raises(ValueError, match="job 7: need submit"):
            TraceRecord(*row)

    def test_first_bad_row_is_named(self):
        with pytest.raises(ValueError, match="^job 8: "):
            columns([ROWS[0], (8, 1.0, 0.0, 2.0, 1), (9, 1.0, 0.0, 2.0, 1)])

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="need 2 rows"):
            TraceRecords([1, 2], np.zeros((1, 3)), [1, 1])
        with pytest.raises(ValueError, match="need 1 rows"):
            TraceRecords([1], np.array([[0.0, 0.0, 1.0]]), [1, 1])


class TestEmpty:
    def test_empty_trace(self):
        trace = SimTrace((), ClusterConfig(4), "x")
        assert len(trace.records) == 0 and not trace.records
        assert list(trace.records) == [] and trace.records == ()
        assert trace_to_csv(trace) == "job_id,submit,start,finish,cpus\r\n"
        with pytest.raises(ValueError, match="empty trace"):
            objectives(trace, ClusterConfig(4))
