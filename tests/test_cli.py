import json
import math
import random
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from oracles import parse_set_text_reference

from gcdsums import IndexSet, MultiIndex, PrimePowerWeights, gcd_sum
from gcdsums.cli import main, parse_set_file
from gcdsums.multiindex import parse_multiindex
from gcdsums.errors import ConvergenceError, ParseError
from gcdsums.verify import ALL_CHECKS

half = PrimePowerWeights(0.5)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_set_file_mixed(tmp_path):
    path = write(tmp_path, "set.txt", "1\n2\n# comment\nmi 1:1 2:1\n\n3\n")
    B = parse_set_file(path)
    assert B == IndexSet(
        [MultiIndex.zero(), MultiIndex.unit(1), MultiIndex.unit(2),
         MultiIndex({1: 1, 2: 1})]
    )


def test_parse_set_file_duplicate(tmp_path):
    path = write(tmp_path, "dup.txt", "2\n2\n")
    with pytest.raises(ParseError) as err:
        parse_set_file(path)
    assert "line 2" in str(err.value)
    assert "duplicate" in str(err.value)


def test_parse_set_file_malformed_line_number(tmp_path):
    path = write(tmp_path, "bad.txt", "1\nnot-a-number\n")
    with pytest.raises(ParseError) as err:
        parse_set_file(path)
    assert "line 2" in str(err.value)


def test_parse_set_file_overflow(tmp_path):
    path = write(tmp_path, "big.txt", f"{1 << 70}\n")
    with pytest.raises(ParseError):
        parse_set_file(path)


@pytest.mark.parametrize("content, message", [
    # an integer line and an mi line share the duplicate key
    ("6\nmi 1:1 2:1\n", "line 2: duplicate member mi 1:1 2:1 (first seen at line 1)"),
    ("mi 1:1 2:1\n6\n", "line 2: duplicate member mi 1:1 2:1 (first seen at line 1)"),
    # a duplicate comes first when an out-of-range member follows it
    ("mi 1:1 2:1\n6\n7\n1000000016000000063\n",
     "line 2: duplicate member mi 1:1 2:1 (first seen at line 1)"),
    ("5\n1000000016000000063\n5\n",
     "line 2: prime factor 1000000009 of 1000000016000000063 exceeds the prime table ceiling 1000000000"),
    ("mi 1:1\nabc\nmi 1:1\n", "line 2: malformed line 'abc'"),
    # the message names the counted rank of a prime above the dense prefix
    ("99999989\n99999989\n", "line 2: duplicate member mi 5761455:1 (first seen at line 1)"),
    ("mi 3:1 2:1\n", "line 1: positions must be strictly increasing (saw 2 after 3)"),
    ("mi 2:1 2:1\n", "line 1: positions must be strictly increasing (saw 2 after 2)"),
    ("mi 0:1\n", "line 1: positions must be strictly increasing (saw 0 after 0)"),
    ("mi 1:0\n", "line 1: exponent 0 outside [1, 10000]"),
    ("mi 1:10001\n", "line 1: exponent 10001 outside [1, 10000]"),
    ("mi 1000001:1\n", "line 1: position 1000001 exceeds the cap 1000000"),
    # a bare mi is the zero member, as is the integer 1
    ("mi\n1\n", "line 2: duplicate member mi (first seen at line 1)"),
    # comments and blank lines keep their line numbers
    ("# c\n\nmi 1:1\n  # x\nmi 1:1  # again\n",
     "line 5: duplicate member mi 1:1 (first seen at line 3)"),
    ("mi :1 :1\n", "line 1: malformed entry ':1' (want position:exponent)"),
    ("mi 1:1:1\n", "line 1: malformed entry '1:1:1' (want position:exponent)"),
    ("mi1:1\n", "line 1: expected 'mi' prefix, got 'mi1:1'"),
    ("# only a comment\n\n", "set file has no members"),
])
def test_parse_set_file_messages(tmp_path, content, message):
    with pytest.raises(ParseError) as err:
        parse_set_file(write(tmp_path, "set.txt", content))
    assert str(err.value) == message


_LINES = st.one_of(
    st.integers(1, 40).map(str),
    st.sampled_from(["mi", "mi 1:1", "mi 2:1", "mi 1:1 2:1", "mi 3:2", "mi 1:2 3:1", "mi 12:1"]),
    st.sampled_from(["", "# c", "0", "-4", "abc", "mi 2:1 1:1", f"{1 << 63}",
                     "1000000016000000063", "99999989", "mi 5761455:1"]),
    # forms the plain-line grammar leaves to the line-by-line reading: tabs,
    # runs of spaces, leading blanks, comments, what int() also accepts, a
    # form feed (no line break in a file), values past the caps
    st.sampled_from(["mi\t1:1", "mi 1:1\t2:1", "mi  1:1   2:1", "  mi 2:1", "\tmi 1:1 2:1",
                     "mi 1:1 # c", "mi 3:2# c", "6  # six", " 3", "mi +3:1", "mi 1_0:1",
                     "mi 03:1", "mi \u0663:1", "mi 1:1\x0cmi 2:1", "mi 1:10001",
                     "mi 1000001:1", "mi 12345678:1", "mi 1:123456", "mi 2:1 2:1", "mi 1:1 "]),
)


@settings(max_examples=300)
@given(st.lists(_LINES, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_parse_set_file_matches_line_by_line_parse(tmp_path_factory, lines, newline, last):
    # the bulk parse reports what the line-by-line parse did: the same
    # members, or the same first failing line and message, whatever the
    # line ends and with or without a break after the last line
    text = newline.join(lines) + (newline if last else "")
    path = tmp_path_factory.mktemp("sets") / "set.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = parse_set_text_reference(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_set_file(str(path))
        assert str(err.value) == str(exc)
    else:
        assert parse_set_file(str(path)) == IndexSet([MultiIndex(items) for items in expected])


def test_parse_set_file_edge_members(tmp_path):
    path = write(tmp_path, "set.txt",
                 "# header\n\n  mi  # the zero member\n\t\nmi 1000000:1\nmi\t2:1  3:10000\n")
    B = parse_set_file(path)
    assert B == IndexSet([MultiIndex.zero(), MultiIndex({1_000_000: 1}),
                          MultiIndex({2: 1, 3: 10_000})])


@pytest.fixture
def multiindex_count(monkeypatch):
    """How many MultiIndex objects have been built since the fixture started."""
    made = [0]
    init = MultiIndex.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiIndex, "__init__", counting)
    return lambda: made[0]


def test_square_free_jobs_build_no_multiindex(tmp_path, capsys, multiindex_count):
    # every subcommand reads rows and masks only, and reports from the rows
    def mi_lines(masks):
        return "".join(" ".join(["mi"] + [f"{j + 1}:1" for j in range(10) if x >> j & 1]) + "\n"
                       for x in masks)

    path = write(tmp_path, "set.txt", mi_lines(range(300)))
    cube = write(tmp_path, "cube.txt", mi_lines(range(64)))
    integers = write(tmp_path, "ints.txt", "".join(f"{n}\n" for n in range(1, 41)))
    common = ["--alpha", "0.5", "--deterministic"]
    for argv in (
        ["sum", path, *common],
        ["sum", integers, *common],
        ["matrix", path, "--stat", "both", *common],
        ["cube", "--k", "12", *common],
        ["transform", path, "--mode", "closure", *common],
        ["transform", path, "--mode", "complete", *common],
        ["search", "--n", "6", "--max-index", "5", *common],
        ["search", "--n", "12", "--max-index", "6", "--mode", "heuristic", "--seed", "2",
         "--iterations", "50", *common],
        ["certify", cube, *common],
        ["bounds", "--curve", "lower", "--n-from", "100", "--n-to", "1000", "--points", "3",
         "--constant", "1.0"],
        ["verify", "--suite", "quick", "--deterministic"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)
        assert multiindex_count() == 0, argv
    # the count sees members that are asked for
    assert len(parse_set_file(path).members) == 300
    assert multiindex_count() >= 300


def _cube_subset_lines(seed, n=3000, k=14):
    masks = random.Random(seed).sample(range(1 << k), n)
    return masks, [" ".join(["mi"] + [f"{j + 1}:1" for j in range(k) if x >> j & 1]) for x in masks]


def _assert_reference_error(tmp_path, lines):
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as expected:
        parse_set_text_reference(text)
    with pytest.raises(ParseError) as err:
        parse_set_file(write(tmp_path, "set.txt", text))
    assert str(err.value) == str(expected.value)
    assert err.value.line == expected.value.line
    return err.value


def test_large_file_duplicate(tmp_path):
    _, lines = _cube_subset_lines(1)
    lines[2899] = lines[17]
    err = _assert_reference_error(tmp_path, lines)
    assert err.line == 2900 and "first seen at line 18" in str(err)


@pytest.mark.parametrize("duplicate, line", [(2900, 2900), (2980, 2950)])
def test_large_file_decreasing_line_and_duplicate(tmp_path, duplicate, line):
    # the earlier of a duplicate and a line with decreasing positions wins
    _, lines = _cube_subset_lines(2)
    lines[duplicate - 1] = lines[40]
    lines[2949] = "mi 1:1 5:1 3:1"
    assert _assert_reference_error(tmp_path, lines).line == line


def test_large_file_exponent_cap_at_last_line(tmp_path):
    _, lines = _cube_subset_lines(3)
    lines[-1] = "mi 2:1 7:10001"
    err = _assert_reference_error(tmp_path, lines)
    assert str(err) == "line 3000: exponent 10001 outside [1, 10000]"


def test_large_plain_file_reads_no_line_alone(tmp_path, monkeypatch, multiindex_count):
    # a file of plain mi lines is read in bulk: no parse_items call, no MultiIndex
    import gcdsums.cli as cli

    calls = [0]
    parse = cli.parse_items

    def counting(text):
        calls[0] += 1
        return parse(text)

    monkeypatch.setattr(cli, "parse_items", counting)
    masks, lines = _cube_subset_lines(4)
    B = parse_set_file(write(tmp_path, "set.txt", "\n".join(lines) + "\n"))
    assert calls[0] == 0 and multiindex_count() == 0
    assert B == IndexSet.from_masks(masks)


def test_undecodable_set_file(tmp_path, capsys):
    # a byte that is not UTF-8 is a ParseError, also far behind a failing line
    path = tmp_path / "set.txt"
    path.write_bytes(b"mi 1:1\nabc\n" + b"mi 2:1\n" * 4000 + b"\xff\n")
    with pytest.raises(ParseError, match="cannot decode set file"):
        parse_set_file(str(path))
    code, out, err = run(capsys, ["sum", str(path), "--alpha", "0.5"])
    assert code == 1 and out == ""
    assert err.startswith("error: cannot decode set file") and "Traceback" not in err


def test_undecodable_weights_file(tmp_path, capsys):
    setp = write(tmp_path, "set.txt", "1\n2\n")
    wpath = tmp_path / "w.txt"
    wpath.write_bytes(b"0.5\n\xff\n")
    code, out, err = run(capsys, ["sum", setp, "--weights", str(wpath)])
    assert_one_line_error(code, err)
    assert err.startswith("error: cannot decode weights file") and out == ""


def test_out_of_range_member_fails_fast(tmp_path, capsys):
    # both prime factors lie above the 10^9 table ceiling; no sieve growth
    from gcdsums.primes import DEFAULT_TABLE

    path = write(tmp_path, "big.txt", f"2\n{1_000_000_007 * 1_000_000_009}\n3\n")
    limit, windows = DEFAULT_TABLE.limit, DEFAULT_TABLE.windows_sieved
    start = time.perf_counter()
    code, out, err = run(capsys, ["sum", path, "--alpha", "0.5"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert "line 2" in err and "ceiling" in err
    assert DEFAULT_TABLE.limit == limit
    assert DEFAULT_TABLE.windows_sieved == windows


def test_sum_json_matches_library(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "1\n2\n3\n")
    code, out, _ = run(capsys, ["sum", path, "--alpha", "0.5"])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["n"] == 3
    expected = gcd_sum(half, IndexSet([MultiIndex.zero(), MultiIndex.unit(1), MultiIndex.unit(2)]))
    assert report["sum"] == pytest.approx(expected, rel=1e-12)
    assert report["gamma"] == pytest.approx(expected / 3, rel=1e-12)
    assert report["gamma"] == pytest.approx(2.1284705, abs=1e-6)
    assert "elapsed_ms" in report
    assert report["config"]["command"] == "sum"


def test_sum_deterministic_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "4\n6\n9\n")
    code1, out1, _ = run(capsys, ["sum", path, "--alpha", "0.5", "--deterministic"])
    code2, out2, _ = run(capsys, ["sum", path, "--alpha", "0.5", "--deterministic"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "elapsed_ms" not in json.loads(out1)


def test_sum_csv(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "1\n2\n")
    code, out, _ = run(capsys, ["sum", path, "--format", "csv", "--deterministic"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    values = lines[1].split(",")
    row = dict(zip(header, values))
    assert int(row["n"]) == 2
    assert float(row["sum"]) == pytest.approx(2 + math.sqrt(2), rel=1e-12)


def test_sum_weight_source_conflict(tmp_path, capsys):
    setp = write(tmp_path, "set.txt", "1\n")
    wpath = write(tmp_path, "w.txt", "0.5\n0.3\n")
    code, _, err = run(capsys, ["sum", setp, "--alpha", "0.5", "--weights", wpath])
    assert code == 1
    assert "exactly one" in err


def test_sum_explicit_weights(tmp_path, capsys):
    setp = write(tmp_path, "set.txt", "1\n2\n")
    wpath = write(tmp_path, "w.txt", "0.5\n0.25\n")
    code, out, _ = run(capsys, ["sum", setp, "--weights", wpath])
    assert code == 0
    assert json.loads(out)["sum"] == pytest.approx(2 + 2 * 0.5, rel=1e-12)


def test_sum_grouping_diagnostic_for_non_square_free(tmp_path, capsys):
    from gcdsums import support_grouping_ratio

    path = write(tmp_path, "set.txt", "1\n2\n4\n3\n")
    code, out, _ = run(capsys, ["sum", path, "--deterministic"])
    assert code == 0
    report = json.loads(out)
    members = [MultiIndex.zero(), MultiIndex.unit(1), MultiIndex({1: 2}), MultiIndex.unit(2)]
    assert report["support_grouping_ratio"] == pytest.approx(
        support_grouping_ratio(half, IndexSet(members)), rel=1e-12
    )
    # square-free inputs omit the diagnostic
    path2 = write(tmp_path, "set2.txt", "1\n2\n3\n")
    _, out2, _ = run(capsys, ["sum", path2, "--deterministic"])
    assert "support_grouping_ratio" not in json.loads(out2)


def test_sum_sums_once_for_non_square_free(tmp_path, capsys, monkeypatch):
    # the grouping ratio divides the S the command already has
    import gcdsums.cli as cli_module
    import gcdsums.gcdsum as gcdsum_module
    from gcdsums import support_grouping_ratio

    calls = []
    real = gcdsum_module.gcd_sum

    def counted(t, B):
        calls.append(len(B))
        return real(t, B)

    monkeypatch.setattr(gcdsum_module, "gcd_sum", counted)
    monkeypatch.setattr(cli_module, "gcd_sum", counted)
    path = write(tmp_path, "set.txt", "1\n2\n4\n3\n12\n")
    code, out, _ = run(capsys, ["sum", path, "--deterministic"])
    assert code == 0 and calls == [5]
    B = parse_set_file(path)
    assert json.loads(out)["support_grouping_ratio"] == support_grouping_ratio(half, B)


def test_cube_command(capsys):
    code, out, _ = run(capsys, ["cube", "--k", "2", "--alpha", "0.5", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 4
    assert report["sum"] == pytest.approx(10.7708205, abs=1e-6)
    assert report["complete"] is True
    assert report["method"] == "direct"


def test_cube_command_sums_every_dimension(capsys, monkeypatch):
    import gcdsums.cli as cli

    sizes = []

    def recording(t, B):
        sizes.append(len(B))
        return gcd_sum(t, B)

    monkeypatch.setattr(cli, "gcd_sum", recording)
    code, out, _ = run(capsys, ["cube", "--k", "15", "--alpha", "0.5", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert sizes == [1 << 15]
    assert report["method"] == "direct"
    assert report["sum"] == pytest.approx(report["closed_form"], rel=1e-10)


def test_search_command_matches_library(capsys):
    code, out, _ = run(capsys, ["search", "--n", "4", "--max-index", "4", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exhaustive"
    assert report["maximizers"] == [["mi", "mi 1:1", "mi 1:1 2:1", "mi 2:1"]]
    assert report["gamma"] == pytest.approx(10.770821363360145 / 4, rel=1e-12)


def test_search_heuristic_deterministic(capsys):
    args = ["search", "--n", "4", "--max-index", "4", "--mode", "heuristic",
            "--seed", "3", "--iterations", "50", "--deterministic"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["mode"] == "heuristic"


def test_transform_command_jsonl(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "mi 2:1\n1\n")
    code, out, _ = run(capsys, ["transform", path, "--mode", "complete", "--deterministic"])
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert lines[0]["schema"] == 1
    steps = [l for l in lines if "s_before" in l]
    assert steps, "expected at least one recorded step"
    for step in steps:
        assert step["s_after"] >= step["s_before"] - 1e-12
    final = lines[-1]
    assert final["final"] == ["mi", "mi 1:1"]
    assert final["complete"] is True


def test_transform_reports_swap_verdicts(tmp_path, capsys, monkeypatch):
    import gcdsums.transforms as transforms

    seen = []
    exact = transforms.gcd_sum_mp

    def recording(t, B, dps=50):
        seen.append(dps)
        return exact(t, B, dps=dps)

    # a floor above every margin sends each swap's verdict to the exact sums
    monkeypatch.setattr(transforms, "STRICT_MARGIN_FLOOR", math.inf)
    monkeypatch.setattr(transforms, "gcd_sum_mp", recording)
    monkeypatch.setenv("GCDSUMS_PRECISION", "60")
    path = write(tmp_path, "set.txt", "mi 2:1 3:1\nmi 3:1\nmi 4:1 5:1\nmi 5:1\n")
    code, out, _ = run(capsys, ["transform", path, "--mode", "complete", "--deterministic"])
    assert code == 0
    steps = [json.loads(l) for l in out.splitlines()[1:-1]]
    swaps = [l for l in steps if l["description"].startswith("swap")]
    drops = [l for l in steps if l["description"].startswith("drop")]
    assert swaps and drops
    assert seen == [60] * (2 * len(swaps))
    assert all(l["strict"] is True for l in swaps)
    assert all("strict" not in l for l in drops)


@pytest.mark.parametrize("content, moves", [("mi 2:1 3:1\nmi 3:1\nmi 4:1 5:1\nmi 5:1\n", True),
                                            ("1\n2\n", False)])
def test_transform_sums_final_set_only_without_steps(tmp_path, capsys, monkeypatch, content, moves):
    # the final S is the last step's s_after, carried by the moves' deltas to
    # within rounding of the full sum; the command sums the set itself only
    # when no move changed it
    import gcdsums.cli as cli_module

    calls = []
    real = cli_module.gcd_sum

    def counted(t, B):
        calls.append(len(B))
        return real(t, B)

    monkeypatch.setattr(cli_module, "gcd_sum", counted)
    path = write(tmp_path, "set.txt", content)
    for mode in ("closure", "complete"):
        calls.clear()
        code, out, _ = run(capsys, ["transform", path, "--mode", mode, "--deterministic"])
        lines = [json.loads(l) for l in out.splitlines()]
        steps, final = lines[1:-1], lines[-1]
        assert code == 0 and bool(steps) is moves
        assert len(calls) == (0 if moves else 1)
        B = IndexSet(map(parse_multiindex, final["final"]))
        assert final["s_value"] == pytest.approx(real(half, B), rel=1e-12)
        if moves:
            assert final["s_value"] == steps[-1]["s_after"]


def test_far_positions_fail_fast(tmp_path, capsys):
    # the 64 divisors of 2*3*5*7*11*99999989: 99999989 sits at position 5761455
    from itertools import combinations

    primes = [2, 3, 5, 7, 11, 99999989]
    lines = [str(math.prod(c)) for r in range(7) for c in combinations(primes, r)]
    path = write(tmp_path, "divisors.txt", "\n".join(lines) + "\n")
    start = time.perf_counter()
    code, _, err = run(capsys, ["certify", path])
    assert_one_line_error(code, err)
    assert "complete" in err
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    code, out, _ = run(capsys, ["transform", path, "--mode", "complete", "--deterministic"])
    final = json.loads(out.splitlines()[-1])
    assert code == 0 and final["complete"] is True and final["n"] == 64
    assert time.perf_counter() - start < 2.0


def test_transform_closure_mode(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "mi 2:1 3:1\nmi 1:1\n")
    code, out, _ = run(capsys, ["transform", path, "--mode", "closure", "--deterministic"])
    assert code == 0
    final = json.loads(out.splitlines()[-1])
    assert final["final"] == ["mi", "mi 3:1"]


def test_matrix_command(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "1\n2\n")
    code, out, _ = run(capsys, ["matrix", path, "--stat", "both", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["spectral_norm"] == pytest.approx(1 + 1 / math.sqrt(2), rel=1e-10)
    assert report["min_eigenvalue"] == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-10)
    assert report["max_row_sum"] == pytest.approx(1 + 1 / math.sqrt(2), rel=1e-12)


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, [
        "bounds", "--curve", "lower", "--n-from", "100", "--n-to", "10000",
        "--points", "3", "--constant", "1.0",
    ])
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 3
    from gcdsums import lower_curve

    for n_str, value_str in rows:
        assert float(value_str) == pytest.approx(lower_curve(float(n_str), 1.0), rel=1e-12)


def test_bounds_theorem_curves(capsys):
    from gcdsums import general_upper_curve, squarefree_upper_curve

    code, out, _ = run(capsys, [
        "bounds", "--curve", "theorem1", "--n-from", "1000", "--n-to", "1000",
        "--points", "1", "--constant", "7.0", "--format", "json",
    ])
    assert code == 0
    point = json.loads(out)["points"][0]
    assert point["value"] == pytest.approx(general_upper_curve(1000, 7.0), rel=1e-12)

    code, out, _ = run(capsys, [
        "bounds", "--curve", "theorem2", "--n-from", "1000", "--n-to", "1000",
        "--points", "1", "--constant", "5.0", "--c-decay", "1.0", "--format", "json",
    ])
    assert code == 0
    point = json.loads(out)["points"][0]
    assert point["value"] == pytest.approx(squarefree_upper_curve(1000, 1.0, 5.0), rel=1e-12)


def test_bounds_range_validation(capsys):
    code, _, err = run(capsys, [
        "bounds", "--curve", "lower", "--n-from", "5", "--n-to", "10",
        "--points", "2", "--constant", "1.0",
    ])
    assert code == 1
    assert "21" in err


def test_certify_cube(capsys):
    code, out, _ = run(capsys, ["certify", "--cube", "5", "--alpha", "0.5", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["all_exact_hold"] is True
    assert all(report["exact"].values())
    assert len(report["records"]) == report["closure_size"]


def test_certify_requires_one_input(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "1\n")
    code, _, err = run(capsys, ["certify", path, "--cube", "5"])
    assert code == 1
    code, _, err = run(capsys, ["certify"])
    assert code == 1


def test_certify_small_set_domain_error(tmp_path, capsys):
    path = write(tmp_path, "set.txt", "1\n2\n")
    code, _, err = run(capsys, ["certify", path])
    assert code == 1
    assert "21" in err


def test_verify_quick(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "quick"])
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    assert len(lines) == len(ALL_CHECKS)


def test_verify_reports_solver_errors_per_check(capsys, monkeypatch):
    # a solver or domain error fails its own check; the others still run
    import gcdsums.verify as verify_module
    from gcdsums.errors import DomainError

    def diverging(*args, **kwargs):
        raise ConvergenceError("Lanczos did not converge in 3 iterations",
                               estimate=1.0, residual=1e-7, iterations=3)

    def out_of_scope(n):
        raise DomainError(f"no tail for n={n}")

    monkeypatch.setattr(verify_module, "rayleigh_bounds", diverging)
    monkeypatch.setattr(verify_module, "tail_sum", out_of_scope)
    code, out, err = run(capsys, ["verify", "--suite", "quick"])
    lines = out.splitlines()
    assert code == 2
    assert len(lines) == len(ALL_CHECKS)
    assert [l for l in lines if l.startswith("FAIL")] == [
        "FAIL rayleigh_sandwich: ConvergenceError: Lanczos did not converge in 3 iterations",
        "FAIL tail_scaled_gap: DomainError: no tail for n=10000",
    ]
    assert "2 of 11 checks failed" in err


def test_precision_env(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "set.txt", "1\n2\n")
    monkeypatch.setenv("GCDSUMS_PRECISION", "30")
    code, out, _ = run(capsys, ["sum", path, "--deterministic"])
    assert code == 0
    assert json.loads(out)["config"]["precision"] == 30
    monkeypatch.setenv("GCDSUMS_PRECISION", "5")
    code, _, err = run(capsys, ["sum", path])
    assert code == 1
    assert "precision" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, ["search", "--n", "3"])  # missing --max-index
    assert code == 1


def test_cached_parser_matches_fresh(tmp_path, capsys, monkeypatch):
    from gcdsums import cli

    path = write(tmp_path, "set.txt", "1\n2\n3\n6\n")
    runs = [
        ["sum", path, "--deterministic"],
        ["search", "--n", "3"],  # usage error: missing --max-index
        ["search", "--n", "5", "--max-index", "4", "--mode", "heuristic",
         "--iterations", "40", "--deterministic"],
    ]
    cached = [run(capsys, argv) for argv in runs]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, argv) for argv in runs]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0]


def test_parser_not_built_at_import():
    import subprocess
    import sys

    probe = "import gcdsums.cli as c; print(c._parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "0"


def test_certify_and_verify_leave_numpy_ma_unimported():
    import subprocess
    import sys

    # np.unique imports numpy.ma (about 20 ms) on its first plain call
    probe = ("import contextlib, io, sys; from gcdsums.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = main(['certify', '--cube', '8']), main(['verify', '--suite', 'quick'])\n"
             "print(codes, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "(0, 0) False"


@pytest.mark.parametrize("extra", [
    ["--n", "5", "--max-index", "40"],
    ["--n", "5", "--max-index", "30"],
    ["--n", "5", "--max-index", "6", "--iterations", "-5"],
])
def test_heuristic_out_of_scope_fails_fast(capsys, extra):
    main(["search", "--n", "2", "--max-index", "2", "--mode", "heuristic"])  # parser built
    capsys.readouterr()
    start = time.perf_counter()
    code, out, err = run(capsys, ["search", "--mode", "heuristic"] + extra)
    elapsed = time.perf_counter() - start
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")
    assert elapsed < 0.1


def test_missing_file_error(capsys):
    code, _, err = run(capsys, ["sum", "/nonexistent/path.txt"])
    assert code == 1


def test_output_file(tmp_path, capsys):
    setp = write(tmp_path, "set.txt", "1\n2\n")
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["sum", setp, "--deterministic", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 2


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
def test_matrix_rejects_bad_tol(tmp_path, capsys, tol):
    path = write(tmp_path, "set.txt", "1\n2\n")
    code, out, err = run(capsys, ["matrix", path, "--tol", tol])
    assert_one_line_error(code, err)
    assert out == ""
    assert "tol" in err


def test_unwritable_output_is_one_line(tmp_path, capsys):
    setp = write(tmp_path, "set.txt", "1\n2\n")
    code, out, err = run(capsys, ["sum", setp, "--output", str(tmp_path / "missing" / "x.json")])
    assert_one_line_error(code, err)
    assert out == ""


def test_convergence_error_is_one_line(tmp_path, capsys, monkeypatch):
    import gcdsums.cli as cli

    def no_convergence(M, tol):
        raise ConvergenceError("Lanczos did not converge in 7 iterations",
                               estimate=1.5, residual=0.25, iterations=7)

    monkeypatch.setattr(cli, "spectral_norm", no_convergence)
    path = write(tmp_path, "set.txt", "1\n2\n")
    code, out, err = run(capsys, ["matrix", path, "--stat", "spectral"])
    assert_one_line_error(code, err)
    assert "estimate=1.5" in err and "residual=0.25" in err and "iterations=7" in err


def test_matrix_tol_reaches_min_eigenvalue(tmp_path, capsys, monkeypatch):
    import random

    import gcdsums.gcdsum as gcdsum_module

    rng = random.Random(13)
    masks = set()
    while len(masks) < 60:
        masks.add(sum(1 << b for b in rng.sample(range(8), rng.randint(0, 5))))
    lines = ["mi" + "".join(f" {b + 1}:1" for b in range(8) if x >> b & 1) for x in masks]
    path = write(tmp_path, "set.txt", "\n".join(lines) + "\n")
    seen = []
    solve = gcdsum_module._lanczos

    def recording(matvec, n, tol, max_iterations, lowest):
        seen.append((tol, lowest))
        return solve(matvec, n, tol, max_iterations, lowest)

    # above the dense cap min_eigenvalue takes Lanczos
    monkeypatch.setattr(gcdsum_module, "_DENSE_CAP", 10)
    monkeypatch.setattr(gcdsum_module, "_lanczos", recording)
    code, out, _ = run(capsys, ["matrix", path, "--stat", "mineig", "--tol", "1e-9"])
    assert code == 0
    assert seen == [(1e-9, True)]
    assert json.loads(out)["min_eigenvalue"] > 0


@pytest.mark.parametrize("cap", [None, 10])
def test_matrix_deterministic_output_is_byte_identical(tmp_path, capsys, monkeypatch, cap):
    import gcdsums.gcdsum as gcdsum_module

    lines = ["mi" + "".join(f" {b + 1}:1" for b in range(7) if x >> b & 1) for x in range(0, 128, 3)]
    path = write(tmp_path, "set.txt", "\n".join(lines) + "\n")
    if cap is not None:
        # both ends by Lanczos, from its seeded start
        monkeypatch.setattr(gcdsum_module, "_DENSE_CAP", cap)
    outputs = [run(capsys, ["matrix", path, "--stat", "both", "--deterministic"]) for _ in range(2)]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]
