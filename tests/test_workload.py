import dataclasses
import math

import numpy as np
import pytest

from predictsched import (
    ClusterConfig,
    ParseError,
    TimeSeries,
    parse_csv,
    parse_swf,
    run,
    to_time_series,
    trace_to_csv,
    workload_to_csv,
)

from conftest import make_job, make_workload

SWF_LINE = "1 100 5 300 4 -1 -1 4 600 -1 1 7 2 -1 -1 -1 -1 -1"


def swf_line(job_id, submit, runtime, alloc, req, req_time, user=7):
    return (
        f"{job_id} {submit} 5 {runtime} {alloc} -1 -1 {req} {req_time} -1 "
        f"1 {user} 2 -1 -1 -1 -1 -1"
    )


class TestParseSwf:
    def test_single_line_field_mapping(self):
        wl = parse_swf("; header comment\n" + SWF_LINE)
        assert len(wl) == 1
        job = wl.jobs[0]
        assert job.job_id == 1
        assert job.submit_time == 0  # shifted so earliest submit is 0
        assert job.runtime == 300
        assert job.runtime_estimate == 600
        assert job.cpus == 4
        assert job.user_id == 7
        assert job.group_id == 2

    def test_header_only_is_empty(self):
        with pytest.raises(ParseError, match="empty workload"):
            parse_swf("; comment only\n;UnixStartTime: 0\n")

    def test_sorted_after_shift(self):
        text = "\n".join(
            [
                swf_line(1, 100, 300, 4, 4, 600),
                swf_line(2, 200, 300, 4, 4, 600),
                swf_line(3, 150, 300, 4, 4, 600),
            ]
        )
        wl = parse_swf(text)
        assert [j.submit_time for j in wl] == [0, 50, 100]
        assert [j.job_id for j in wl] == [1, 3, 2]

    def test_requested_procs_win_over_allocated(self):
        wl = parse_swf(swf_line(1, 0, 100, 8, 4, 200))
        assert wl.jobs[0].cpus == 4

    def test_allocated_procs_fallback(self):
        wl = parse_swf(swf_line(1, 0, 100, 8, -1, 200))
        assert wl.jobs[0].cpus == 8

    def test_runtime_estimate_fallback(self):
        wl = parse_swf(swf_line(1, 0, 100, 4, 4, -1))
        assert wl.jobs[0].runtime_estimate == 100

    def test_invalid_records_dropped_and_counted(self):
        text = "\n".join(
            [
                swf_line(1, 0, 300, 4, 4, 600),
                swf_line(2, 10, -1, 4, 4, 600),  # nonpositive runtime
                swf_line(3, 20, 300, -1, -1, 600),  # no cpus at all
            ]
        )
        wl = parse_swf(text)
        assert len(wl) == 1
        assert wl.dropped == 2

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_swf(SWF_LINE + "\n1 2 3\n")

    def test_non_numeric_reports_line(self):
        bad = SWF_LINE.replace("300", "abc")
        with pytest.raises(ParseError, match="line 1"):
            parse_swf(bad)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", [1, 3, 4, 8, 11])  # submit, runtime, procs, time, user
    def test_non_finite_reports_line(self, field, value):
        fields = SWF_LINE.split()
        fields[field] = value
        with pytest.raises(ParseError, match="line 2: non-finite"):
            parse_swf(SWF_LINE + "\n" + " ".join(fields))

    @pytest.mark.parametrize(
        "field, name",
        [(0, "job id"), (4, "allocated processors"), (7, "requested processors"),
         (11, "user id"), (12, "group id")],
    )
    def test_fractional_integer_field_reports_line(self, field, name):
        fields = SWF_LINE.split()
        fields[field] = "2.5"
        with pytest.raises(ParseError, match=f"line 2: {name} must be an integer, got 2.5"):
            parse_swf(SWF_LINE + "\n" + " ".join(fields))

    def test_integral_float_fields_accepted(self):
        wl = parse_swf("1.0 0 5 300 4.0 -1 -1 4.0 600 -1 1 7.0 2.0 -1 -1 -1 -1 -1")
        job = wl.jobs[0]
        assert (job.job_id, job.cpus, job.user_id, job.group_id) == (1, 4, 7, 2)

    @pytest.mark.parametrize("req_time", [-1, 1])  # the estimate falls back to runtime
    def test_far_future_runtime_reports_line(self, req_time):
        text = swf_line(1, 0, 300, 4, 4, 600) + "\n" + swf_line(2, "1e17", 1, 4, 4, req_time)
        with pytest.raises(ParseError, match="line 2: job 2: .* vanish"):
            parse_swf(text)


class TestParseCsv:
    HEADER = "job_id,user_id,group_id,submit_time,runtime,runtime_estimate,cpus"

    def test_basic_row(self):
        wl = parse_csv(self.HEADER + "\n1,7,2,0,300,600,4\n")
        job = wl.jobs[0]
        assert (job.job_id, job.user_id, job.cpus) == (1, 7, 4)
        assert job.runtime == 300 and job.runtime_estimate == 600

    def test_rows_out_of_order_are_sorted(self):
        text = self.HEADER + "\n2,7,2,500,300,600,4\n1,7,2,100,300,600,4\n"
        wl = parse_csv(text)
        assert [j.job_id for j in wl] == [1, 2]
        assert [j.submit_time for j in wl] == [0, 400]

    def test_missing_column_named(self):
        with pytest.raises(ParseError, match="missing column 'cpus'"):
            parse_csv("job_id,user_id,group_id,submit_time,runtime,runtime_estimate\n")

    def test_deadline_column(self):
        text = self.HEADER + ",deadline\n1,7,2,0,300,600,4,5000\n2,7,2,10,300,600,4,\n"
        wl = parse_csv(text)
        assert wl.jobs[0].deadline == 5000
        assert wl.jobs[1].deadline is None

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("column", ["submit_time", "runtime", "runtime_estimate", "deadline"])
    def test_non_finite_reports_line(self, column, value):
        header = self.HEADER + ",deadline"
        row = dict(zip(header.split(","), "1,7,2,0,300,600,4,5000".split(",")))
        row[column] = value
        text = header + "\n2,7,2,0,300,600,4,\n" + ",".join(row.values()) + "\n"
        with pytest.raises(ParseError, match="line 3: non-finite"):
            parse_csv(text)

    @pytest.mark.parametrize("runtime, estimate", [(1, 600), (600, 1)])
    def test_far_future_runtime_reports_line(self, runtime, estimate):
        text = self.HEADER + f"\n1,7,2,0,300,600,4\n2,7,2,1e17,{runtime},{estimate},4\n"
        with pytest.raises(ParseError, match="line 3: job 2: .* vanish"):
            parse_csv(text)


def trace_text(fmt, rows):
    """A trace in fmt whose records, (job id, submit, runtime, cpus), start
    on line 2."""
    if fmt == "swf":
        return "; header\n" + "\n".join(swf_line(i, t, r, c, c, 600) for i, t, r, c in rows)
    return TestParseCsv.HEADER + "".join(f"\n{i},7,2,{t},{r},600,{c}" for i, t, r, c in rows)


PARSERS = {"swf": parse_swf, "csv": parse_csv}


@pytest.mark.parametrize("fmt", sorted(PARSERS))
class TestRecordRules:
    """Both formats drop and reject records by the same rule."""

    def test_duplicate_id_reports_line(self, fmt):
        text = trace_text(fmt, [(1, 0, 300, 4), (1, 50, 300, 4)])
        with pytest.raises(ParseError, match="^line 3: duplicate id 1$"):
            PARSERS[fmt](text)

    def test_dropped_record_id_not_counted(self, fmt):
        # a dropped record never joins the workload, so its id stays free
        wl = PARSERS[fmt](trace_text(fmt, [(1, 0, -1, 4), (1, 50, 300, 4)]))
        assert [j.job_id for j in wl] == [1]
        assert wl.dropped == 1

    def test_dropped_record_reusing_a_kept_id_is_dropped(self, fmt):
        wl = PARSERS[fmt](trace_text(fmt, [(1, 0, 300, 4), (1, 50, 300, 0)]))
        assert [(j.job_id, j.submit_time) for j in wl] == [(1, 0)]
        assert wl.dropped == 1

    def test_all_records_dropped_is_empty(self, fmt):
        with pytest.raises(ParseError, match="^empty workload$"):
            PARSERS[fmt](trace_text(fmt, [(1, 0, 0, 4), (2, 50, 300, -1)]))


class TestJob:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["submit_time", "runtime", "runtime_estimate", "deadline"])
    def test_non_finite_time_rejected(self, field, value):
        job = make_job(1, 0, 10, 1, deadline=100)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(job, **{field: value})

    @pytest.mark.parametrize("field", ["runtime", "runtime_estimate"])
    def test_duration_vanishing_at_submit_rejected(self, field):
        job = make_job(1, 1e17, 1e3, 1)
        assert dataclasses.replace(job, **{field: 1e2}).submit_time == 1e17
        with pytest.raises(ValueError, match="job 1: .* vanish at submit_time"):
            dataclasses.replace(job, **{field: 1.0})


class TestCpuCounts:
    """Every cpu count is a whole number >= 1: the engine's accounting is
    exact, and a policy call with no cpu free could start nothing."""

    def test_fractional_job_cpus_rejected(self):
        with pytest.raises(ValueError, match="job 1: cpus must be a whole number >= 1, got 1.5"):
            make_job(1, 0, 10, 1.5)

    def test_fractional_workload_rejected_before_the_run(self):
        # on 10 cpus these once made fcfs fail mid-run with a float
        # mismatch in the capacity accounting
        with pytest.raises(ValueError, match="job 1: cpus must be a whole number"):
            [make_job(k + 1, k, 10, c) for k, c in enumerate((1.1, 1.2, 1.3, 2.7, 1.9))]

    @pytest.mark.parametrize("cpus", [float("nan"), float("inf")])
    def test_non_finite_job_cpus_rejected(self, cpus):
        # nan passes a plain `cpus < 1` test, and the run never finished
        with pytest.raises(ValueError, match=f"job 1: cpus must be a whole number >= 1, got {cpus}"):
            make_job(1, 0, 10, cpus)

    @pytest.mark.parametrize("total", [float("nan"), float("inf"), 2.5])
    def test_bad_total_cpus_rejected(self, total):
        with pytest.raises(ValueError, match="total_cpus must be a whole number >= 1"):
            ClusterConfig(total)

    @pytest.mark.parametrize("n", [np.int64(4), np.int32(4), np.float64(4.0), 4.0])
    def test_integer_valued_counts_accepted(self, n):
        assert make_job(1, 0, 10, n).cpus == 4
        assert ClusterConfig(n).total_cpus == 4


class TestRoundTrip:
    def test_parse_serialize_reparse_identical(self):
        wl = make_workload(
            make_job(1, 0, 300, 4, user=7, estimate=600),
            make_job(2, 50.5, 120, 1, user=8),
            make_job(3, 70, 1000, 16, user=7, deadline=9000.0),
        )
        text = workload_to_csv(wl)
        again = parse_csv(text)
        assert again.jobs == wl.jobs
        assert workload_to_csv(again) == text

    def test_swf_to_csv_round_trip(self):
        text = "\n".join(swf_line(i, i * 100, 300 + i, 4, 4, 600) for i in range(1, 6))
        wl = parse_swf(text)
        assert parse_csv(workload_to_csv(wl)).jobs == wl.jobs

    def test_whole_cpu_counts_of_any_type_round_trip(self):
        # a float or numpy count once printed as 2.0, which parse_csv rejects
        wl = make_workload(make_job(1, 0, 300, 2.0), make_job(2, 10, 60, np.int64(4)))
        text = workload_to_csv(wl)
        assert [line.split(",")[-1] for line in text.splitlines()[1:]] == ["2", "4"]
        assert parse_csv(text).jobs == wl.jobs
        trace_csv = trace_to_csv(run(wl, ClusterConfig(8), "fcfs"))
        assert [line.split(",")[-1] for line in trace_csv.splitlines()[1:]] == ["2", "4"]


class TestTimeSeries:
    def test_cpu_time_channel(self):
        wl = make_workload(
            make_job(1, 0, 100, 4, estimate=600),
            make_job(2, 3600, 100, 2, estimate=600),
        )
        ts = to_time_series(wl, "submitted_cpu_time", 3600)
        assert list(ts.values) == [2400, 1200]

    def test_interarrival_channel(self):
        wl = make_workload(
            make_job(1, 0, 100, 4),
            make_job(2, 3600, 100, 2),
        )
        ts = to_time_series(wl, "interarrival", 3600)
        assert list(ts.values) == [3600]

    def test_job_count_binning(self):
        wl = make_workload(
            *(make_job(i + 1, i * 100, 50, 1) for i in range(10))
        )
        ts = to_time_series(wl, "submitted_job_count", 250)
        assert list(ts.values) == [3, 2, 3, 2]

    def test_job_count_sums_to_job_count(self):
        wl = make_workload(
            *(make_job(i + 1, (i * 137) % 5000, 50, 1) for i in range(40))
        )
        for bw in (100, 333, 1000):
            ts = to_time_series(wl, "submitted_job_count", bw)
            assert sum(ts.values) == len(wl)

    def test_interarrival_needs_two_jobs(self):
        wl = make_workload(make_job(1, 0, 10, 1))
        with pytest.raises(ValueError):
            to_time_series(wl, "interarrival")

    @pytest.mark.parametrize("bin_width", [0.0, -1.0, math.nan, math.inf])
    def test_bin_width_must_be_finite_and_positive(self, bin_width):
        wl = make_workload(make_job(1, 0, 10, 1), make_job(2, 50, 10, 1))
        for channel in ("submitted_job_count", "submitted_cpu_time"):
            with pytest.raises(ValueError, match="bin_width must be a finite number > 0"):
                to_time_series(wl, channel, bin_width)
        with pytest.raises(ValueError, match="bin_width must be a finite number > 0"):
            TimeSeries(start_time=0.0, bin_width=bin_width, values=(1.0,))

    def test_unknown_channel(self):
        wl = make_workload(make_job(1, 0, 10, 1))
        with pytest.raises(ValueError, match="unknown channel"):
            to_time_series(wl, "nope", 10)
