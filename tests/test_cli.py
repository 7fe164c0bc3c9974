"""Command-line surface: formats, exit codes, and output stability."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mixedmetric import (
    CactusSpec,
    DisconnectedError,
    FailingPair,
    InvariantError,
    MixedMetricError,
    ParseError,
    SelfLoopError,
    build_min_generator,
    cli,
    random_cactus,
)
from mixedmetric.cli import parse_graph_file, run

from reference import reference_parse_graph_file

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

BOWTIE = "5 6\n0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n"
P3 = "3 2\n0 1\n1 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        target = tmp_path / name
        target.write_text(text)
        return str(target)
    return write


class TestParseGraphFile:
    def test_basic(self, graph_file):
        g = parse_graph_file(graph_file(P3))
        assert g.n == 3 and g.edges == ((0, 1), (1, 2))

    def test_comments_and_blank_lines_ignored(self, graph_file):
        g = parse_graph_file(graph_file("# a path\n\n3 2\n# edges\n0 1\n\n1 2\n"))
        assert g.n == 3 and g.m == 2

    def test_missing_edges(self, graph_file):
        with pytest.raises(ParseError, match="declared 3"):
            parse_graph_file(graph_file("3 3\n0 1\n1 2\n"))

    def test_extra_edges(self, graph_file):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph_file(graph_file("3 1\n0 1\n1 2\n2 0\n"))

    def test_bad_tokens_carry_line_numbers(self, graph_file):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph_file(graph_file("3 2\n0 x\n1 2\n"))
        with pytest.raises(ParseError, match="line 3"):
            parse_graph_file(graph_file("3 2\n0 1\n1 2 9\n"))

    def test_only_ascii_decimal_integers(self, graph_file):
        # int() reads all three: '0 1_0' would be the edge (0, 10) of an
        # 11-vertex star, and the file would pass with mdim = 10.
        star = "".join(f"0 {v}\n" for v in range(2, 11))
        for spelling in ("1_0", "+1", "\u0661"):
            text = f"11 10\n0 {spelling}\n{star}"
            message = f"line 2: expected two integers, got '0 {spelling}'"
            with pytest.raises(ParseError, match=re.escape(message)):
                parse_graph_file(graph_file(text))

    def test_a_number_past_the_digit_limit_is_refused_as_the_reference_refuses_it(self, graph_file):
        # int() refuses a run of more than 4300 digits by default, with a
        # ValueError that the reference reads as a line holding no integer.
        path = graph_file("3 2\n0 1\n1 " + "1" * 5000 + "\n")
        assert parse_outcome(parse_graph_file, path) == \
            parse_outcome(reference_parse_graph_file, path)

    def test_empty_file(self, graph_file):
        with pytest.raises(ParseError, match="header"):
            parse_graph_file(graph_file(""))

    def test_build_errors_pass_through(self, graph_file):
        with pytest.raises(SelfLoopError):
            parse_graph_file(graph_file("3 2\n0 1\n1 1\n"))
        with pytest.raises(DisconnectedError):
            parse_graph_file(graph_file("4 2\n0 1\n2 3\n"))

    @pytest.mark.parametrize("text, outcome", [
        # At 8 characters a block, the first block reads on to the end of
        # the comment on line 3, so its lines are checked one by one; the
        # next block starts at line 4.
        ("3 2\n0 1\n# c\n1 2\n", (3, ((0, 1), (1, 2)))),
        ("3 2\n0 1\n# c\n1 2\n2 0\n", "line 5: more than the declared 2 edges"),
        ("3 2\n0 1\n# c\n1 x\n", "line 4: expected two integers, got '1 x'"),
        ("3 2\n0 1\n# c\n", "line 4: declared 2 edges, found 1"),
        # The comment fills the first block alone, and the rest is plain.
        ("# a comment\n3 2\n0 1\n1 2\n", (3, ((0, 1), (1, 2)))),
    ], ids=["edges", "extra-edge", "bad-token", "missing-edge", "leading-comment"])
    def test_a_later_block_starting_with_a_comment(self, graph_file, text, outcome):
        path = graph_file(text)
        with mock.patch.object(cli, "_BLOCK", 8):
            if isinstance(outcome, str):
                with pytest.raises(ParseError, match=re.escape(outcome)):
                    parse_graph_file(path)
            else:
                g = parse_graph_file(path)
                assert (g.n, g.edges) == outcome
            assert parse_outcome(parse_graph_file, path) == \
                parse_outcome(reference_parse_graph_file, path)

    def test_the_bulk_path_resumes_after_a_block_of_other_lines(self, graph_file):
        # The comment's block is checked line by line; the plain block after
        # it is converted in bulk, so no number goes through _decimal.
        path = graph_file("# a comment\n3 2\n0 1\n1 2\n")
        with mock.patch.object(cli, "_BLOCK", 8), \
                mock.patch.object(cli, "_decimal", wraps=cli._decimal) as decimal:
            assert parse_outcome(parse_graph_file, path) == \
                parse_outcome(reference_parse_graph_file, path)
        assert decimal.call_count == 0

    def test_too_few_edges_fail_before_building(self, graph_file, monkeypatch):
        import mixedmetric.cli as cli_mod

        # A billion vertices would need tens of GB of adjacency lists.
        monkeypatch.setattr(cli_mod, "build_graph", None)
        with pytest.raises(DisconnectedError, match="0 edges cannot connect"):
            parse_graph_file(graph_file("1000000000 0\n"))


# Spellings the parser meets: digits with a sign, a leading zero, an
# underscore, non-ASCII digits (Arabic-Indic, superscript) and junk.
ODD_NUMBERS = ["+{}", "-{}", "0{}", "{}_0", "\u0661", "\u00b2", "{}\u0661", "--{}", "x"]
# Separators and margins: split() cuts at every one of them.
SEPARATORS = [" ", " ", " ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\xa0", "\u3000"]
MARGINS = ["", "", "", " ", "\t", "\xa0", "\x1c"]
# Lines the parser skips, listed twice to outweigh the lines it refuses.
NOISE = 2 * [b"", b"   ", b"\t", b"\x0c", b"# comment", b"  # indented comment", b"\t#", b"#",
             b"# caf\xc3\xa9"] + [b"7", b"1 2 3", b"x y", b"\xff\xfe1 2", b"1 \xc3",
                                  "caf\u00e9 1".encode()]
LINE_ENDS = [b"\n", b"\n", b"\n", b"\r\n", b"\r"]


@st.composite
def edge_list_files(draw):
    """Bytes of an edge-list file, mostly valid, with a few odd lines and spellings."""
    n = draw(st.integers(2, 6))
    # A path, perhaps cut in two, and a few random pairs.
    gap = draw(st.sampled_from([None] * 3 + list(range(n - 1))))
    pairs = [(u, u + 1) for u in range(n - 1) if u != gap]
    pairs += draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=3))
    records = [(n, len(pairs) + draw(st.sampled_from([0, 0, 0, -1, 1])))] + pairs
    records = records[draw(st.sampled_from([0] * 8 + [1, len(records)])):]  # drop the header, or all
    numbers = [x for record in records for x in record]
    odd = draw(st.lists(st.integers(0, max(len(numbers) - 1, 0)), max_size=1))
    spelled = [draw(st.sampled_from(ODD_NUMBERS)).format(x) if i in odd else str(x)
               for i, x in enumerate(numbers)]
    lines = [
        (draw(st.sampled_from(MARGINS)) + a + draw(st.sampled_from(SEPARATORS)) + b
         + draw(st.sampled_from(MARGINS))).encode()
        for a, b in zip(spelled[::2], spelled[1::2])
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NOISE)))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = b""  # no newline after the last line
    return b"".join(line + end for line, end in zip(lines, ends))


def parse_outcome(parse, path):
    try:
        g = parse(path)
    except Exception as exc:
        return type(exc), str(exc)
    return g.n, g.edges, g.adjacency


def assert_parses_as_the_reference(tmp_path_factory, data, block):
    # Reading the file in blocks of any size, each converted in bulk or
    # checked line by line, gives the same graph, or the same error class
    # and message, as checking every line in full.
    target = tmp_path_factory.getbasetemp() / "fuzzed-graph.txt"
    target.write_bytes(data)
    with mock.patch.object(cli, "_BLOCK", block):
        assert parse_outcome(parse_graph_file, str(target)) == \
            parse_outcome(reference_parse_graph_file, str(target))


@given(edge_list_files(), st.sampled_from([cli._BLOCK]) | st.integers(1, 40))
@settings(max_examples=400, deadline=None)
def test_parser_matches_the_reference(tmp_path_factory, data, block):
    assert_parses_as_the_reference(tmp_path_factory, data, block)


# What a broken line's character may become: a comment mark, a blank or a
# second line, other separators and spellings, junk, or nothing.
BREAKS = [b"#", b"\n", b"\n\n", b"\t", b" ", b"  ", b"", b"-", b"+", b"x", b"0", "\xa0".encode(),
          b"\r", b"\r\n", b"\xff"]


@given(st.integers(3200, 3600), st.integers(0, 10**6), st.sampled_from(BREAKS))
@settings(max_examples=60, deadline=None)
def test_parser_matches_the_reference_past_the_first_block(tmp_path_factory, n, position, text):
    # A plain path file longer than one block, with one character, at a
    # random position, replaced.
    data = f"{n} {n - 1}\n" + "".join(f"{u} {u + 1}\n" for u in range(n - 1))
    assert len(data) > cli._BLOCK
    at = position % len(data)
    broken = data[:at].encode() + text + data[at + 1:].encode()
    assert_parses_as_the_reference(tmp_path_factory, broken, cli._BLOCK)


class TestVerbs:
    def test_classify_json(self, graph_file, capsys):
        assert run(["classify", graph_file(BOWTIE), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"tag": "Cactus", "cycle_count": 2}

    def test_classify_counts_the_cycle_blocks_of_a_general_graph(self, graph_file, capsys):
        k4_and_triangle = K4.replace("4 6", "6 9", 1) + "3 4\n4 5\n5 3\n"
        assert run(["classify", graph_file(k4_and_triangle)]) == 0
        assert capsys.readouterr().out == "class: General\ncycles: 1\n"

    def test_dim_human_shows_the_formula(self, graph_file, capsys):
        assert run(["dim", graph_file(BOWTIE)]) == 0
        out = capsys.readouterr().out
        assert "l1 = 0" in out and "mdim = 0 + 4 + 0 = 4" in out

    def test_dim_rejects_general_graphs_with_hint(self, graph_file, capsys):
        assert run(["dim", graph_file(K4)]) == 2
        assert "oracle" in capsys.readouterr().err

    def test_dim_force_oracle_cross_checks(self, graph_file, capsys):
        assert run(["dim", graph_file(BOWTIE), "--force-oracle", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 4 and payload["formula"] == 4
        assert payload["source"] == "oracle"

    def test_dim_force_oracle_finds_the_blocks_once(self, graph_file, capsys, monkeypatch):
        import mixedmetric.graph as graph_mod

        # One search, in build_graph; the formula and the oracle reuse it.
        calls = []
        real = graph_mod._block_search
        monkeypatch.setattr(graph_mod, "_block_search", lambda a: calls.append(a) or real(a))
        assert run(["dim", graph_file(BOWTIE), "--force-oracle"]) == 0
        assert len(calls) == 1

    def test_verify_reports_failing_pair(self, graph_file, capsys):
        assert run(["verify", graph_file(P3), "--set", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_generator"] is False
        assert payload["failing_pair"] == {"x": 0, "y": 2}

    def test_verify_accepts_generators(self, graph_file, capsys):
        assert run(["verify", graph_file(P3), "--set", "0,2"]) == 0
        assert "true" in capsys.readouterr().out

    def test_oracle_size_cap(self, graph_file, capsys):
        assert run(["oracle", graph_file(K4), "--max-n", "3"]) == 2

    def test_oracle_search_budget(self, graph_file, capsys, monkeypatch):
        import mixedmetric.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_NODES", 2)
        assert run(["oracle", graph_file(K4)]) == 2
        assert capsys.readouterr().err == "error: the exact search passed its budget of 2 nodes\n"
        assert run(["dim", graph_file(BOWTIE), "--force-oracle"]) == 2

    def test_bounds_verb(self, graph_file, capsys):
        assert run(["bounds", graph_file(BOWTIE), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"bound": 4, "attained": True}

    def test_bounds_excludes_bare_rings(self, graph_file, capsys):
        ring = "4 4\n0 1\n1 2\n2 3\n3 0\n"
        assert run(["bounds", graph_file(ring)]) == 2

    def test_generator_roundtrips_through_verify(self, graph_file, capsys):
        path = graph_file(BOWTIE)
        assert run(["generator", path, "--json"]) == 0
        chosen = json.loads(capsys.readouterr().out)["set"]
        csv = ",".join(str(v) for v in chosen)
        assert run(["verify", path, "--set", csv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["is_generator"] is True

    def test_conjecture_verb_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        code = run(["conjecture", "--count", "8", "--seed", "4",
                    "--out", str(out), "--n-range", "4..7"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 8 and summary["violations"] == []
        assert len(out.read_text().splitlines()) == 8


GOLDEN_GRAPHS = {
    "bowtie": BOWTIE,
    "tadpole": "6 6\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n",
    "k4": K4,
    "c4": "4 4\n0 1\n1 2\n2 3\n3 0\n",
    # A 6-ring whose three adjacent roots admit no geodesic triple.
    "ring6": "9 9\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 6\n1 7\n2 8\n",
    "tri": "3 3\n0 1\n1 2\n2 0\n",
}
NOT_A_CACTUS = "error: exact formula applies to cacti only"
# (call, exit code, text-mode output, --json payload).  The output is stdout
# on exit 0 and stderr otherwise, when stdout stays empty in both modes.
GOLDEN = [
    ("classify bowtie", 0, "class: Cactus\ncycles: 2\n", {"tag": "Cactus", "cycle_count": 2}),
    ("classify tadpole", 0, "class: Unicyclic\ncycles: 1\n",
     {"tag": "Unicyclic", "cycle_count": 1}),
    ("classify k4", 0, "class: General\ncycles: 0\n", {"tag": "General", "cycle_count": 0}),
    ("classify c4", 0, "class: Cycle\ncycles: 1\n", {"tag": "Cycle", "cycle_count": 1}),
    ("classify ring6", 0, "class: Unicyclic\ncycles: 1\n", {"tag": "Unicyclic", "cycle_count": 1}),
    ("dim bowtie", 0,
     "l1 = 0\ncycle 0: rt = 1, term = max(3 - 1, 0) = 2\n"
     "cycle 1: rt = 1, term = max(3 - 1, 0) = 2\ndelta = 0\nmdim = 0 + 4 + 0 = 4\n",
     {"l1": 0, "cycles": [{"id": 0, "rt": 1, "term": 2, "needs_delta": False},
                          {"id": 1, "rt": 1, "term": 2, "needs_delta": False}],
      "delta": 0, "total": 4}),
    ("dim tadpole", 0,
     "l1 = 1\ncycle 0: rt = 1, term = max(3 - 1, 0) = 2\ndelta = 0\nmdim = 1 + 2 + 0 = 3\n",
     {"l1": 1, "cycles": [{"id": 0, "rt": 1, "term": 2, "needs_delta": False}],
      "delta": 0, "total": 3}),
    ("dim k4", 2, f"{NOT_A_CACTUS}; use the `oracle` command (or --force-oracle)\n", None),
    ("dim c4", 0,
     "l1 = 0\ncycle 0: rt = 0, term = max(3 - 0, 0) = 3\ndelta = 0\nmdim = 0 + 3 + 0 = 3\n",
     {"l1": 0, "cycles": [{"id": 0, "rt": 0, "term": 3, "needs_delta": False}],
      "delta": 0, "total": 3}),
    ("dim ring6", 0,
     "l1 = 3\ncycle 0: rt = 3, term = max(3 - 3, 0) = 0, no geodesic triple of roots"
     " -> +1 to delta\ndelta = 1\nmdim = 3 + 0 + 1 = 4\n",
     {"l1": 3, "cycles": [{"id": 0, "rt": 3, "term": 0, "needs_delta": True}],
      "delta": 1, "total": 4}),
    ("dim tadpole --force-oracle", 0,
     "mdim = 3 (oracle)\nwitness: 1 2 5\ncross-check: formula agrees (3)\n",
     {"source": "oracle", "total": 3, "witness": [1, 2, 5], "formula": 3}),
    ("dim ring6 --force-oracle", 0,
     "mdim = 4 (oracle)\nwitness: 3 6 7 8\ncross-check: formula agrees (4)\n",
     {"source": "oracle", "total": 4, "witness": [3, 6, 7, 8], "formula": 4}),
    ("dim k4 --force-oracle", 0, "mdim = 4 (oracle)\nwitness: 0 1 2 3\n",
     {"source": "oracle", "total": 4, "witness": [0, 1, 2, 3]}),
    ("generator bowtie", 0,
     "set: 1 2 3 4\nsa (leaves): (none)\nsb cycle 0: 1 2\nsb cycle 1: 3 4\n"
     "sc cycle 0: (none)\nsc cycle 1: (none)\nverified: true\n",
     {"set": [1, 2, 3, 4], "sa": [], "sb": [[1, 2], [3, 4]], "sc": [[], []], "verified": True}),
    ("generator tadpole", 0,
     "set: 1 2 5\nsa (leaves): 5\nsb cycle 0: 1 2\nsc cycle 0: (none)\nverified: true\n",
     {"set": [1, 2, 5], "sa": [5], "sb": [[1, 2]], "sc": [[]], "verified": True}),
    ("generator k4", 2, f"{NOT_A_CACTUS}\n", None),
    ("generator c4", 0,
     "set: 0 1 2\nsa (leaves): (none)\nsb cycle 0: 0 1 2\nsc cycle 0: (none)\nverified: true\n",
     {"set": [0, 1, 2], "sa": [], "sb": [[0, 1, 2]], "sc": [[]], "verified": True}),
    ("generator ring6", 0,
     "set: 3 6 7 8\nsa (leaves): 6 7 8\nsb cycle 0: (none)\nsc cycle 0: 3\nverified: true\n",
     {"set": [3, 6, 7, 8], "sa": [6, 7, 8], "sb": [[]], "sc": [[3]], "verified": True}),
    ("verify bowtie --set 0,1", 0,
     "mixed metric generator: false\nfailing pair: vertex 0 ~ edge (0, 2)\n",
     {"is_generator": False, "failing_pair": {"x": 0, "y": [0, 2]}}),
    ("verify tadpole --set 1,2,5", 0, "mixed metric generator: true\n",
     {"is_generator": True, "failing_pair": None}),
    ("verify k4 --set 0,1,2,3", 0, "mixed metric generator: true\n",
     {"is_generator": True, "failing_pair": None}),
    ("verify c4 --set 0,2", 0, "mixed metric generator: false\nfailing pair: vertex 1 ~ vertex 3\n",
     {"is_generator": False, "failing_pair": {"x": 1, "y": 3}}),
    ("verify ring6 --set 3,6,7,8", 0, "mixed metric generator: true\n",
     {"is_generator": True, "failing_pair": None}),
    ("verify tri --set 0,1", 0,
     "mixed metric generator: false\nfailing pair: vertex 0 ~ edge (0, 2)\n",
     {"is_generator": False, "failing_pair": {"x": 0, "y": [0, 2]}}),
    ("oracle bowtie", 0, "mdim = 4\nwitness: 1 2 3 4\n", {"total": 4, "witness": [1, 2, 3, 4]}),
    ("oracle tadpole", 0, "mdim = 3\nwitness: 1 2 5\n", {"total": 3, "witness": [1, 2, 5]}),
    ("oracle k4", 0, "mdim = 4\nwitness: 0 1 2 3\n", {"total": 4, "witness": [0, 1, 2, 3]}),
    ("oracle c4", 0, "mdim = 3\nwitness: 0 1 2\n", {"total": 3, "witness": [0, 1, 2]}),
    ("oracle ring6", 0, "mdim = 4\nwitness: 3 6 7 8\n", {"total": 4, "witness": [3, 6, 7, 8]}),
    ("bounds bowtie", 0, "bound = 4 (attained)\n", {"bound": 4, "attained": True}),
    ("bounds tadpole", 0, "bound = 3 (attained)\n", {"bound": 3, "attained": True}),
    ("bounds k4", 2, "error: bound statement applies to cacti only\n", None),
    ("bounds c4", 2, "error: the bound excludes the bare cycle C_n\n", None),
    ("bounds ring6", 0, "bound = 5 (not attained)\n", {"bound": 5, "attained": False}),
]


@pytest.mark.parametrize("call, code, text, payload", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_graph_verbs_print_exactly_these_bytes(graph_file, capsys, call, code, text, payload):
    verb, name, *flags = call.split()
    path = graph_file(GOLDEN_GRAPHS[name])
    json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n" if code == 0 else text
    for mode, output in (([], text), (["--json"], json_text)):
        assert run([verb, path, *flags, *mode]) == code
        assert tuple(capsys.readouterr()) == ((output, "") if code == 0 else ("", output))


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run(["dim"]) == 1
        assert run(["no-such-verb"]) == 1
        assert run([]) == 1

    def test_bad_set_argument_is_one(self, graph_file, capsys):
        assert run(["verify", graph_file(P3), "--set", "a,b"]) == 1

    @pytest.mark.parametrize("spelling", ["1_0", "+10", "١٠"],
                             ids=["underscore", "plus", "arabic-indic"])
    def test_set_takes_only_ascii_decimal_integers(self, graph_file, capsys, spelling):
        # int() reads each as vertex 10, which would complete the 11-vertex
        # star's generator.
        star = graph_file("11 10\n" + "".join(f"0 {v}\n" for v in range(1, 11)))
        assert run(["verify", star, "--set", f"1,2,3,4,5,6,7,8,9,{spelling}"]) == 1
        err = capsys.readouterr().err
        assert f"--set expects comma-separated integers, got '1,2,3,4,5,6,7,8,9,{spelling}'" in err

    def test_set_allows_spaces_around_its_integers(self, graph_file, capsys):
        assert run(["verify", graph_file(P3), "--set", " 0, 2 "]) == 0
        assert capsys.readouterr().out == "mixed metric generator: true\n"

    @pytest.mark.parametrize("spelling", ["1_0..1_2", "+4..6", "٤..6"],
                             ids=["underscore", "plus", "arabic-indic"])
    def test_n_range_takes_only_ascii_decimal_integers(self, tmp_path, capsys, spelling):
        out = tmp_path / "c.jsonl"
        assert run(["conjecture", "--count", "1", "--n-range", spelling, "--out", str(out)]) == 1
        assert f"--n-range expects 'a..b', got '{spelling}'" in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_n_range_is_one(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert run(["conjecture", "--count", "2", "--n-range", "9..4", "--out", str(out)]) == 1
        assert "--n-range expects a <= b, got '9..4'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["conjecture", "--count", "1_0"], ["conjecture", "--count", "٣"],
        ["conjecture", "--count", "+2"], ["conjecture", "--count", "2", "--seed", "١"],
        ["conjecture", "--count", "2", "--max-n", "1_6"],
        ["conjecture", "--count", "2", "--n-range", "6..6", "--fixed-m", "1_2"],
        ["oracle", "GRAPH", "--max-n", "1_6"], ["dim", "GRAPH", "--max-n", "١٦"],
    ], ids=["count-underscore", "count-arabic-indic", "count-plus", "seed-arabic-indic",
            "conjecture-max-n-underscore", "fixed-m-underscore", "oracle-max-n-underscore",
            "dim-max-n-arabic-indic"])
    def test_integer_flags_take_only_ascii_decimal_integers(self, graph_file, tmp_path, capsys,
                                                            flags):
        # int() reads each of these, so the call would run with exit code 0.
        out = tmp_path / "c.jsonl"
        argv = [graph_file(P3) if a == "GRAPH" else a for a in flags]
        if argv[0] == "conjecture":
            argv += ["--out", str(out)]
        assert run(argv) == 1
        flag, value = flags[-2:]
        assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--cactus", "--fixed-m", "5"], ["--cactus", "--density", "0.9"],
        ["--density", "0.9", "--fixed-m", "5"],
    ], ids=["cactus-fixed-m", "cactus-density", "density-fixed-m"])
    def test_strategy_flags_exclude_each_other(self, tmp_path, capsys, flags):
        # Each pair used to run one strategy and drop the other flag unread.
        out = tmp_path / "c.jsonl"
        assert run(["conjecture", "--count", "2", *flags, "--out", str(out)]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_range", ["0..0", "1..3"])
    def test_n_range_below_two_vertices_is_two_and_writes_nothing(self, tmp_path, capsys,
                                                                  n_range):
        out = tmp_path / "c.jsonl"
        argv = ["conjecture", "--count", "2", "--n-range", n_range, "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: need at least 2 vertices")
        assert not out.exists()
        # Under --cactus the range sets only the longest cycle.
        assert run([*argv, "--cactus"]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_seed_may_be_negative(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert run(["conjecture", "--count", "2", "--seed", "-3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_negative_fixed_m_is_one(self, tmp_path, capsys):
        # Clamped up to n - 1, -3 would run a tree campaign nobody asked for.
        out = tmp_path / "c.jsonl"
        argv = ["conjecture", "--count", "2", "--n-range", "5..6", "--out", str(out)]
        assert run(argv + ["--fixed-m", "-3"]) == 1
        assert "argument --fixed-m: must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()
        # 0 still asks for trees, as m = n - 1 after clamping.
        assert run(argv + ["--fixed-m", "0"]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2 and all(r["m"] == r["n"] - 1 for r in records)

    def test_missing_file_is_one(self, capsys):
        assert run(["classify", "/nonexistent/graph.txt"]) == 1

    def test_parse_error_is_one(self, graph_file, capsys):
        assert run(["classify", graph_file("3 2\n0 1\n")]) == 1

    def test_a_commented_file_declaring_more_edges_than_it_lists_is_one(self, graph_file, capsys):
        # The malformed file of the benchmark's CLI workload: a comment first,
        # so its one block is checked line by line.
        path = graph_file("# declares more edges than it lists\n4 3\n0 1\n1 2\n")
        assert run(["dim", path]) == 1
        assert capsys.readouterr() == ("", "error: line 5: declared 3 edges, found 2\n")

    def test_structural_error_is_two(self, graph_file, capsys):
        assert run(["classify", graph_file("4 2\n0 1\n2 3\n")]) == 2
        assert run(["dim", graph_file(K4)]) == 2

    def test_vertex_out_of_range_in_set_is_two(self, graph_file, capsys):
        assert run(["verify", graph_file(P3), "--set", "0,9"]) == 2

    def test_invariant_breach_is_three(self, graph_file, capsys, monkeypatch):
        # Forced disagreement: the breach path must map to exit code 3.
        import mixedmetric.exact as exact_mod

        monkeypatch.setattr(exact_mod, "mdim_exact",
                            lambda g: type("R", (), {"total": 99})())
        assert run(["dim", graph_file(BOWTIE), "--force-oracle"]) == 3
        assert "invariant" in capsys.readouterr().err

    def test_every_package_error_has_its_exit_code(self, graph_file, capsys, monkeypatch):
        # The codes follow the error hierarchy, so a new error class needs no list entry.
        import mixedmetric.errors as errors_mod
        import mixedmetric.structure as structure_mod

        classes = [c for c in vars(errors_mod).values() if isinstance(c, type)
                   and issubclass(c, MixedMetricError) and c is not MixedMetricError]
        path = graph_file(P3)
        codes, messages = {}, {}
        for error in classes:
            exc = error(7, "boom") if error is ParseError else error("boom")

            def raise_it(g, exc=exc):
                raise exc

            monkeypatch.setattr(structure_mod, "classify", raise_it)
            codes[error] = run(["classify", path])
            messages[error] = capsys.readouterr().err
        assert DisconnectedError in codes
        assert codes == {error: {ParseError: 1, InvariantError: 3}.get(error, 2)
                         for error in classes}
        assert all("boom" in text for text in messages.values())

    def test_refuted_certificate_is_three(self, graph_file, capsys, monkeypatch):
        # The oracle's verdict is checked where the certificate is built, so
        # a library caller cannot be handed a refuted one either.
        import mixedmetric.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "is_mixed_generator",
                            lambda g, members: (False, FailingPair(0, 1)))
        path = graph_file(BOWTIE)
        with pytest.raises(InvariantError, match="failed oracle verification"):
            build_min_generator(parse_graph_file(path))
        assert run(["generator", path]) == 3
        assert capsys.readouterr() == (
            "", "internal invariant breach: constructed generator failed oracle verification\n")

    def test_construction_mismatch_is_three_under_optimize(self, graph_file):
        # -O strips asserts; the construction check must still fire.
        code = (
            "import sys, mixedmetric.exact as e, mixedmetric.cli as c\n"
            "real = e.augment_for_triple\n"
            "e.augment_for_triple = lambda *a, **k: real(*a, **k) | {-1}\n"
            "sys.exit(c.run(['generator', sys.argv[1]]))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code, graph_file(BOWTIE)],
                              capture_output=True, text=True, env=ENV)
        assert proc.returncode == 3
        assert "invariant" in proc.stderr and "Traceback" not in proc.stderr

    def test_bad_numeric_flags_are_one(self, tmp_path, capsys):
        out = str(tmp_path / "c.jsonl")
        for flags in (["--count", "-3"], ["--count", "2", "--max-n", "1"],
                      ["--count", "2", "--density", "1.5"],
                      ["--count", "2", "--density", "-0.1"],
                      ["--count", "2", "--density", "nan"]):
            assert run(["conjecture", "--out", out, *flags]) == 1, flags
        assert not (tmp_path / "c.jsonl").exists()

    def test_wrongly_typed_campaign_record_is_two(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        argv = ["conjecture", "--count", "3", "--seed", "1", "--out", str(out)]
        assert run(argv) == 0
        for field, value in (("gap", None), ("holds", "yes")):
            lines = out.read_text().splitlines(keepends=True)
            lines[0] = json.dumps({**json.loads(lines[0]), field: value}) + "\n"
            out.write_text("".join(lines))
            written = out.read_bytes()
            capsys.readouterr()
            assert run(argv) == 2, field
            err = capsys.readouterr().err
            assert "line 1" in err and "Traceback" not in err
            assert out.read_bytes() == written

    def test_contradictory_campaign_record_is_two(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        argv = ["conjecture", "--count", "3", "--seed", "1", "--out", str(out)]
        assert run(argv) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        lines[0]["holds"] = False
        lines[1]["gap"] = -7
        out.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in lines))
        written = out.read_bytes()
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1 holds a record that contradicts" in captured.err
        assert out.read_bytes() == written
        # The source follows from the graph, so a forged one is refused too,
        # even in the writer's own format.
        forged = tmp_path / "forged.jsonl"
        argv[-1] = str(forged)
        assert run(argv) == 0
        lines = forged.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"mdim_source":"oracle"', b'"mdim_source":"banana"')
        written = b"".join(lines)
        assert b"banana" in written
        forged.write_bytes(written)
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2 holds a record that contradicts" in captured.err
        assert forged.read_bytes() == written

    def test_truncated_campaign_file_is_two(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        argv = ["conjecture", "--count", "2", "--out", str(out)]
        assert run(argv) == 0
        out.write_bytes(out.read_bytes()[:-5])
        capsys.readouterr()
        assert run(argv) == 2
        assert "line 2" in capsys.readouterr().err

    def test_resume_under_another_seed_is_two(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert run(["conjecture", "--count", "3", "--seed", "5", "--out", str(out)]) == 0
        written = out.read_bytes()
        capsys.readouterr()
        assert run(["conjecture", "--count", "5", "--seed", "6", "--out", str(out)]) == 2
        assert "line 1" in capsys.readouterr().err
        assert out.read_bytes() == written

    def test_campaign_past_the_search_cap_is_two(self, tmp_path):
        # Refused before the vertex-pair list of a dense graph exists: at
        # n = 5000 that list alone would pass the 1 GiB address-space limit.
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "mixedmetric", "conjecture", "--count", "1",
             "--n-range", "5000..5000", "--out", str(tmp_path / "c.jsonl")],
            capture_output=True, text=True, env=ENV, timeout=60, preexec_fn=limit)
        assert proc.returncode == 2
        assert proc.stderr == "error: n = 5000 exceeds the search cap 16\n"

    def test_sparse_campaign_graph_past_the_search_cap_is_two(self, tmp_path):
        # m is within a cactus's edge bound, so the graph is drawn and only
        # the oracle refuses it.  Listing its 1.1e6 vertex pairs would pass
        # the 128 MiB address-space limit; drawing ranks stays far below it.
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "mixedmetric", "conjecture", "--count", "1",
             "--n-range", "1500..1500", "--fixed-m", "1600", "--out", str(tmp_path / "c.jsonl")],
            capture_output=True, text=True, env=ENV, timeout=60, preexec_fn=limit)
        assert proc.returncode == 2
        assert proc.stderr == "error: n = 1500 exceeds the search cap 16\n"

    def test_absurd_header_is_two(self, graph_file, capsys):
        assert run(["classify", graph_file("1000000000 0\n")]) == 2

    def test_non_utf8_graph_file_is_one(self, tmp_path, capsys):
        target = tmp_path / "g.txt"
        target.write_bytes(b"# caf\xc3\xa9\n3 2\n0 1\n\xff\xfe1 2\n")
        assert run(["classify", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 4:") and "UTF-8" in err
        with pytest.raises(ParseError, match="line 4"):
            parse_graph_file(str(target))

    def test_non_utf8_campaign_file_is_two(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        argv = ["conjecture", "--count", "3", "--out", str(out)]
        assert run(argv) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(lines[0] + lines[1].replace(b'"', b"\xff", 1) + lines[2])
        capsys.readouterr()
        assert run(argv) == 2
        assert "line 2" in capsys.readouterr().err

    def test_deeply_nested_campaign_line_is_two(self, tmp_path, capsys):
        # The JSON decoder recurses once per level, so this line exhausts the
        # interpreter's stack: a malformed record all the same.
        out = tmp_path / "deep.jsonl"
        written = b"[" * 200_000 + b"]" * 200_000 + b"\n"
        out.write_bytes(written)
        assert run(["conjecture", "--count", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: line 1 is not a complete campaign record\n"
        assert out.read_bytes() == written

    def test_directory_path_is_one(self, tmp_path, capsys):
        assert run(["classify", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert run(["conjecture", "--count", "1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_files_end_without_traceback(self, tmp_path):
        target = tmp_path / "g.txt"
        target.write_bytes(b"\xff\xfe3 2\n0 1\n1 2\n")
        for path in (target, tmp_path):
            proc = subprocess.run([sys.executable, "-m", "mixedmetric", "classify", str(path)],
                                  capture_output=True, text=True, env=ENV)
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestPipedInput:
    """Graph files read from a pipe, which cannot be sought."""

    @staticmethod
    def dim(path, data=None):
        return subprocess.run([sys.executable, "-m", "mixedmetric", "dim", path],
                              input=data, capture_output=True, env=ENV)

    @pytest.mark.parametrize("data", [
        BOWTIE.encode(),
        b"# a bowtie\r\n" + BOWTIE.replace("\n", "\r\n").encode(),
    ], ids=["plain", "commented-crlf"])
    def test_a_pipe_gives_the_bytes_of_the_file(self, graph_file, data):
        piped = self.dim("/dev/stdin", data)
        from_file = self.dim(graph_file(BOWTIE))
        assert from_file.returncode == 0 and from_file.stdout.startswith(b"l1 = 0\n")
        assert (piped.returncode, piped.stdout, piped.stderr) == \
            (from_file.returncode, from_file.stdout, from_file.stderr)

    def test_a_piped_file_declaring_more_edges_than_it_lists_is_one(self):
        proc = self.dim("/dev/stdin", b"# declares more edges than it lists\n4 3\n0 1\n1 2\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, b"", b"error: line 5: declared 3 edges, found 2\n")


class TestDeterminism:
    def test_json_outputs_are_stable(self, graph_file, capsys):
        path = graph_file(BOWTIE)
        outputs = []
        for _ in range(2):
            for argv in (["classify", path, "--json"], ["dim", path, "--json"],
                         ["generator", path, "--json"], ["bounds", path, "--json"]):
                assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_module_entry_point(self, tmp_path):
        target = tmp_path / "p3.txt"
        target.write_text(P3)
        proc = subprocess.run(
            [sys.executable, "-m", "mixedmetric", "dim", str(target), "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total"] == 2

    def test_closed_stdout_is_a_clean_exit(self, tmp_path):
        # About 0.3 MB of JSON: far more than a pipe buffers, so the
        # process is still writing when the reader goes away.
        g = random_cactus(CactusSpec(3000, (3, 8), 3000, 1))
        target = tmp_path / "huge.txt"
        target.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        proc = subprocess.Popen(
            [sys.executable, "-m", "mixedmetric", "dim", str(target), "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()
