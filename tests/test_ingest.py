"""The columnar ingest paths against the per-field references in conftest:
parse_csv, parse_swf, workload_to_csv and synth_workload give the same
jobs, text and errors as the versions they replaced."""

import gzip
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from predictsched import (
    ParseError,
    SynthSpec,
    SynthTemplate,
    load_workload,
    parse_csv,
    parse_swf,
    synth_workload,
    truth_to_csv,
    workload_to_csv,
)
from predictsched.cli import main
from predictsched.workload import read_text

from conftest import (
    CSV_COLUMNS,
    make_job,
    make_workload,
    random_workloads,
    reference_parse_csv,
    reference_parse_swf,
    reference_synth_workload,
    reference_workload_to_csv,
)


def outcome(parse, text):
    """(repr of the jobs, dropped, source_name), or the ParseError text."""
    try:
        wl = parse(text)
    except ParseError as exc:
        return str(exc)
    return repr(wl.jobs), wl.dropped, wl.source_name


def same_workload_text(wl):
    text = workload_to_csv(wl)
    assert text == reference_workload_to_csv(wl)
    return text


# field texts: whole and fractional numbers, exponents, padding, and the
# values the parsers reject or drop
TIMES = st.sampled_from(["0", "5", "3600", "12.5", "0.1", "1e3", " 7", "86399.999999",
                         "-3", "1e17", "2.5e-3"])
DURATIONS = st.sampled_from(["1", "10", "3600", "0.5", "1.25", "1e2", "0", "-5", "7 "])
BAD = st.sampled_from(["", "x", "nan", "inf", "-inf", "1.5", "2.0", " "])
IDS = st.sampled_from(["1", "2", "3", "4", "5", "6", "7", "8"])
CPUS = st.sampled_from(["1", "2", "4", "8", "1", "0", "-1"])
DEADLINES = st.sampled_from(["", "", "100", "7200.5", "1e4"])


@st.composite
def csv_texts(draw):
    """CSV text plus, for each data row in order, its physical line.

    The columns come in any order, may include a deadline, an unknown
    column and a required column named twice (the first copy holds junk);
    rows may carry extra fields, blank lines fall anywhere, and the line
    ending is LF or CRLF.  At most one row has a bad field or is cut short,
    and ids are the row numbers, now and then one repeated, so that most
    texts parse."""
    names = list(CSV_COLUMNS) + (["deadline"] if draw(st.booleans()) else [])
    if draw(st.booleans()):
        names.append("comment")
    twice = draw(st.none() | st.sampled_from(CSV_COLUMNS))
    header = draw(st.permutations(names))
    if twice is not None:
        header.insert(draw(st.integers(0, header.index(twice))), twice)
    read_at = {name: k for k, name in enumerate(header)}  # the last copy
    values = {"user_id": IDS, "group_id": IDS, "submit_time": TIMES,
              "runtime": DURATIONS, "runtime_estimate": DURATIONS, "cpus": CPUS,
              "deadline": DEADLINES, "comment": st.sampled_from(["a", "", "note"])}
    n = draw(st.integers(0, 8))
    defect = draw(st.sampled_from([None] * 4 + ["bad", "short"]))
    defect_row = draw(st.integers(0, max(n - 1, 0)))
    lines, rows_at = [",".join(header)], []
    for row in range(n):
        lines.extend([""] * draw(st.sampled_from([0, 0, 0, 1, 2])))
        fields = [draw(BAD) for _ in header]  # junk where a name is read elsewhere
        for name, k in read_at.items():
            fields[k] = (draw(st.sampled_from([str(row + 1)] * 7 + ["1"]))
                         if name == "job_id" else draw(values[name]))
        if row == defect_row and defect == "bad":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(BAD)
        if row == defect_row and defect == "short":
            fields = fields[:draw(st.integers(1, len(fields) - 1))]
        elif draw(st.integers(0, 9)) == 0:
            fields.append("9")
        lines.append(",".join(fields))
        if lines[-1]:  # a lone empty field makes a blank line
            rows_at.append(len(lines))
    if draw(st.booleans()):
        lines.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, rows_at


def physical(message, rows_at):
    """The reference's error with its row count turned into a physical line."""
    m = re.fullmatch(r"line (\d+): (.*)", message)
    if m is None:
        return message
    return f"line {rows_at[int(m.group(1)) - 2]}: {m.group(2)}"


class TestParseCsv:
    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_matches_the_dict_reader(self, case):
        text, rows_at = case
        got, want = outcome(parse_csv, text), outcome(reference_parse_csv, text)
        if isinstance(want, str):
            assert got == physical(want, rows_at)
        else:
            assert got == want
            same_workload_text(parse_csv(text))

    def test_errors_name_physical_lines(self):
        header = ",".join(CSV_COLUMNS)
        text = f"{header}\n\n\n1,1,1,0,10,10,1\n"
        assert outcome(parse_csv, text.replace(",0,", ",x,")) == "line 4: non-numeric field"
        text = f"{header}\n1,1,1,0,10,10,1\n\n1,1,1,5,10,10,1\n"
        assert outcome(parse_csv, text) == "line 4: duplicate id 1"
        # the reference counted rows
        assert outcome(reference_parse_csv, text) == "line 3: duplicate id 1"

    def test_lone_carriage_returns_are_a_parse_error(self):
        # csv reads a string split at newlines only, so the \r ends no row
        text = ",".join(CSV_COLUMNS) + "\r1,1,1,0,10,10,1\r"
        message = outcome(parse_csv, text)
        assert message.startswith("line 1: new-line character seen in unquoted field")

    def test_oversized_field_is_a_parse_error(self):
        header = ",".join(CSV_COLUMNS)
        text = f"{header}\n1,1,1,0,10,10,1\n2,1,1,0,10,10,{'9' * 200_000}\n"
        assert outcome(parse_csv, text) == "line 3: field larger than field limit (131072)"

    def test_column_named_twice_reads_the_last(self):
        header = "job_id,user_id,group_id,submit_time,runtime,runtime,runtime_estimate,cpus"
        wl = parse_csv(f"{header}\n1,1,1,0,99,10,10,1\n")
        assert wl.jobs[0].runtime == 10.0


@st.composite
def swf_texts(draw):
    """SWF text with indented comments, blank lines, tabs and -1 fields;
    now and then a line has a bad field or too few fields."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["job"] * 20 + ["comment"] * 2 + ["blank"] * 2 + ["short"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["; header", "  ; indented", "\t;tab", ";"])))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        fields = [draw(IDS), draw(TIMES), "-1", draw(DURATIONS), draw(CPUS), "-1", "-1",
                  draw(st.sampled_from(["-1", "2", "4", "0"])),
                  draw(st.sampled_from(["-1", "0", "600", "1.5"])),
                  "-1", "1", draw(IDS), draw(IDS), "-1", "-1", "-1", "-1", "-1"]
        if draw(st.integers(0, 30)) == 0:
            fields[draw(st.integers(0, 17))] = draw(st.sampled_from(["x", "nan", "2.5"]))
        if kind == "short":
            fields = fields[:draw(st.integers(1, 17))]
        seps = draw(st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=17, max_size=17))
        indent = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(indent + "".join(f + s for f, s in zip(fields, seps + [""])))
    return "\n".join(lines) + "\n"


class TestParseSwf:
    @settings(max_examples=400, deadline=None)
    @given(swf_texts())
    def test_matches_the_reference(self, text):
        assert outcome(parse_swf, text) == outcome(reference_parse_swf, text)


NUMBERS = st.sampled_from([0, 1, 7, 3600, 0.5, 12.25, 1800.0, 86400.0, 1e-3,
                           np.float64(2.5), np.float64(3.0), np.int64(40), 2**60])


class TestWorkloadToCsv:
    @settings(max_examples=100, deadline=None)
    @given(random_workloads())
    def test_matches_the_reference(self, case):
        wl, _cluster = case
        same_workload_text(wl)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS, st.none() | NUMBERS),
                    min_size=1, max_size=6))
    def test_numbers_of_any_type(self, rows):
        try:
            jobs = [make_job(k + 1, submit, 1 + runtime, 2, estimate=2 + estimate, deadline=dl)
                    for k, (submit, runtime, estimate, dl) in enumerate(rows)]
        except ValueError:  # a duration that vanishes at a huge submit
            assume(False)
        same_workload_text(make_workload(*jobs))


TEMPLATE_NUMBERS = st.sampled_from([1, 600, 3600, 0.5, 1800.0, 5000.25])


@st.composite
def synth_specs(draw):
    templates = tuple(
        SynthTemplate(
            user_id=draw(st.integers(1, 5)),
            cpus=draw(st.integers(1, 8)),
            runtime=draw(TEMPLATE_NUMBERS),
            period=draw(st.sampled_from([600, 3600, 21600.0, 86400, 7777.5])),
            offset=draw(st.sampled_from([0, 0.0, 100, 2500.5, -300])),
            count=draw(st.integers(1, 30)),
            submit_jitter=draw(st.sampled_from([0.0, 0.0, 0.01, 0.3])),
            runtime_jitter=draw(st.sampled_from([0.0, 0.0, 0.1, 0.5])),
        )
        for _ in range(draw(st.integers(0, 4)))
    )
    rate = draw(st.sampled_from([0.0, 0.0, 1e-4, 1e-3]))
    horizon = draw(st.sampled_from([3600.0, 86400.0, 4 * 86400.0]))
    if not templates and rate == 0:
        rate = 1e-3
    return SynthSpec(horizon=horizon, templates=templates, background_rate=rate,
                     estimate_factor=draw(st.sampled_from([1.0, 3.0, 1.5])))


class TestSynthWorkload:
    @settings(max_examples=200, deadline=None)
    @given(synth_specs(), st.integers(0, 2**32 - 1))
    def test_matches_scalar_draws(self, spec, seed):
        want_wl, want_truth = reference_synth_workload(spec, seed)
        wl, truth = synth_workload(spec, seed)
        assert (repr(wl.jobs), wl.dropped, wl.source_name) == (
            repr(want_wl.jobs), want_wl.dropped, want_wl.source_name)
        assert repr(truth) == repr(want_truth)
        assert truth_to_csv(truth) == truth_to_csv(want_truth)
        assert same_workload_text(wl) == reference_workload_to_csv(want_wl)

    def test_whole_template_runtime_stays_an_int(self):
        spec = SynthSpec(horizon=86400.0, templates=(
            SynthTemplate(user_id=1, cpus=2, runtime=3600, period=3600, count=3,
                          submit_jitter=0.1),))
        _wl, truth = synth_workload(spec, seed=1)
        assert truth_to_csv(truth).splitlines()[1].endswith(",2,3600")


SWF = "; c\n1 100 -1 300 4 -1 -1 4 600 -1 1 7 2 -1 -1 -1 -1 -1\n"
CSV = ",".join(CSV_COLUMNS) + "\n1,7,2,100,300,600,4\n"


class TestLoadWorkload:
    @pytest.mark.parametrize("name, text", [("t.swf.gz", SWF), ("t.SWF.GZ", SWF),
                                            ("t.csv.gz", CSV), ("t.gz", CSV)])
    def test_gzip_read_and_format_from_the_inner_name(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(gzip.compress(text.encode()))
        plain = tmp_path / name[:-3]
        plain.write_text(text)
        assert load_workload(str(path)).jobs == load_workload(str(plain)).jobs

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + CSV.encode())
        assert load_workload(str(path)).jobs[0].cpus == 4

    # fixed ids: the gzip header holds its write time, so a bytes id would change
    @pytest.mark.parametrize("data", [b"not gzip at all", gzip.compress(SWF.encode())[:-6]],
                             ids=["not gzip at all", "truncated gzip"])
    def test_corrupt_gzip_is_a_parse_error(self, tmp_path, data):
        path = tmp_path / "bad.swf.gz"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not a readable gzip file"):
            load_workload(str(path))

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("variant", ["plain", "bom", "gzip"])
    def test_undecodable_byte_names_the_path_and_line(self, tmp_path, eol, variant):
        data = f"{CSV.splitlines()[0]}{eol}# caf\xe9{eol}".encode("latin-1")
        data = b"# first" + eol.encode() + data
        if variant == "bom":
            data = b"\xef\xbb\xbf" + data
        path = tmp_path / ("w.csv.gz" if variant == "gzip" else "w.csv")
        path.write_bytes(gzip.compress(data) if variant == "gzip" else data)
        message = f"{path}: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            read_text(str(path))

    def test_cli_reads_gzip_and_rejects_a_corrupt_one(self, tmp_path, capsys):
        good, bad = tmp_path / "t.swf.gz", tmp_path / "bad.swf.gz"
        good.write_bytes(gzip.compress(SWF.encode()))
        bad.write_bytes(b"\x1f\x8b garbage")
        assert main(["simulate", "--workload", str(good), "--cpus", "4",
                     "--policy", "fcfs"]) == 0
        assert "makespan:    300" in capsys.readouterr().out
        assert main(["simulate", "--workload", str(bad), "--cpus", "4",
                     "--policy", "fcfs"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a readable gzip file" in err
        assert err.count("\n") == 1
