"""Command-line surface: classify, dim, generator, verify, oracle, bounds, conjecture.

Graphs come from edge-list text files: optional '#' comment lines, a
header line 'n m', then m lines 'u v' with 0-indexed endpoints.  The
file is read in blocks that end at line ends: a block of plain lines, two
digit runs and one space each, is converted in bulk, and any other block
is checked line by line in full.  Exit codes: 0 success, 1 usage or parse
error, 2 structural precondition failure (not a cactus, too large,
disconnected, ...), 3 internal invariant breach (formula disagreeing with
the oracle; never expected).

Each verb imports the modules it runs once its input is read, so a call
loads only those and a malformed file loads none of them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from itertools import islice
from typing import Sequence

from .errors import (
    DisconnectedError,
    InvariantError,
    MixedMetricError,
    NotACactusError,
    ParseError,
)
from .graph import Element, Graph, build_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRUCTURAL = 2
EXIT_INTERNAL = 3

# Characters parse_graph_file reads at a time, before it reads on to the
# line end.
_BLOCK = 16384
# Whole plain lines: two runs of ASCII digits, one space, a newline.  int()
# reads each run as _decimal would.
_PLAIN_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _decimal(text: str) -> int:
    """int(text) for ASCII digits after an optional '-'; ValueError otherwise.

    int() alone would also read '+1', '1_0' and non-ASCII digits.  Spaces
    around the digits are allowed, as int() allows them.  A doubled sign
    passes the test here and fails in int().
    """
    digits = text.strip()
    if not (digits.isascii() and digits.lstrip("-").isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(digits)


def parse_graph_file(path: str) -> Graph:
    """Read the edge-list format strictly; errors carry line numbers.

    The file is read _BLOCK characters at a time and then on to the line
    end, so no line spans two blocks.  A block of plain lines that holds
    no edge past the header's count is converted in bulk.  Any other block
    is checked line by line in full: comments, blank lines, other
    spellings and separators, a missing final newline, and each error with
    its line number.  The file is never sought, so a pipe reads as a file
    does.  The header and the endpoints go to one flat list of ints, two
    per line, and build_graph reads the edges through a view of it
    (_Pairs), so no tuple is made per edge.
    """
    flat: list[int] = []
    lineno = 0
    # Undecodable bytes become lone surrogates, so the line they sit on is known.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.read(_BLOCK) + fh.readline():
            if _PLAIN_LINES.fullmatch(block):
                taken = len(flat)
                try:
                    flat += map(int, block.split())
                except ValueError:
                    pass  # a run past int()'s digit limit: the line checks name its line
                else:
                    if len(flat) <= 2 * flat[1] + 2:
                        lineno += (len(flat) - taken) // 2
                        continue
                del flat[taken:]
            # StringIO ends lines at '\n' only, as the file object does.
            for lineno, raw in enumerate(io.StringIO(block), start=lineno + 1):
                if not raw.isascii():
                    try:
                        raw.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError(lineno, "not UTF-8 text") from None
                fields = raw.split()
                # split() and strip() cut at the same whitespace, so the first
                # field starts with '#' exactly when the stripped line does.
                if not fields or fields[0].startswith("#"):
                    continue
                if len(fields) != 2:
                    raise ParseError(lineno, f"expected two integers, got {raw.strip()!r}")
                try:
                    a, b = _decimal(fields[0]), _decimal(fields[1])
                except ValueError:
                    raise ParseError(
                        lineno, f"expected two integers, got {raw.strip()!r}") from None
                # The header, or an edge within the header's count.
                if not flat or len(flat) < 2 * flat[1] + 2:
                    flat += a, b
                else:
                    raise ParseError(lineno, f"more than the declared {flat[1]} edges")
    if not flat:
        raise ParseError(lineno + 1, "missing 'n m' header line")
    n, m = flat[0], flat[1]
    if len(flat) != 2 * m + 2:
        raise ParseError(lineno + 1, f"declared {m} edges, found {len(flat) // 2 - 1}")
    if m < n - 1:
        # Checked before build_graph allocates n adjacency lists.
        raise DisconnectedError(f"{m} edges cannot connect {n} vertices")
    return build_graph(n, _Pairs(flat))


class _Pairs:
    """The edges of a flat [n, m, u1, v1, u2, v2, ...] list, as (u, v) pairs.

    Sized and iterable more than once, as build_graph needs; each pass
    zips one iterator with itself, so no pair outlives its loop step.
    """

    __slots__ = ("flat",)

    def __init__(self, flat: list[int]) -> None:
        self.flat = flat

    def __len__(self) -> int:
        return len(self.flat) // 2 - 1

    def __iter__(self):
        it = islice(self.flat, 2, None)
        return zip(it, it)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _element_text(element: Element) -> str:
    return f"vertex {element}" if isinstance(element, int) else f"edge ({element[0]}, {element[1]})"


def _vertex_list(vertices: Sequence[int]) -> str:
    return " ".join(str(v) for v in vertices) if vertices else "(none)"


# Each graph verb maps (graph, args) to its --json payload and its text
# lines, built from one result.  JSON writes tuples as lists.
def _classify(g: Graph, args):
    from .structure import classify
    info = classify(g)
    return ({"tag": info.tag.value, "cycle_count": info.cycle_count},
            [f"class: {info.tag.value}", f"cycles: {info.cycle_count}"])


def _dim(g: Graph, args):
    from .exact import mdim_exact
    if args.force_oracle:
        payload, lines = _oracle(g, args)
        payload["source"] = "oracle"
        lines[0] += " (oracle)"
        try:
            formula = mdim_exact(g).total
        except NotACactusError:
            pass  # no formula to cross-check outside the cactus family
        else:
            if formula != payload["total"]:
                raise InvariantError(
                    f"formula gives {formula} but the oracle gives {payload['total']}"
                )
            payload["formula"] = formula
            lines.append(f"cross-check: formula agrees ({formula})")
        return payload, lines
    try:
        report = mdim_exact(g)
    except NotACactusError as exc:
        raise NotACactusError(f"{exc}; use the `oracle` command (or --force-oracle)") from None
    lines = [f"l1 = {report.l1}"]
    for t in report.per_cycle:
        line = f"cycle {t.cycle_id}: rt = {t.rt}, term = max(3 - {t.rt}, 0) = {t.max_term}"
        if t.needs_delta:
            line += ", no geodesic triple of roots -> +1 to delta"
        lines.append(line)
    terms = sum(t.max_term for t in report.per_cycle)
    lines += [f"delta = {report.delta}",
              f"mdim = {report.l1} + {terms} + {report.delta} = {report.total}"]
    cycles = [{"id": t.cycle_id, "rt": t.rt, "term": t.max_term, "needs_delta": t.needs_delta}
              for t in report.per_cycle]
    return ({"l1": report.l1, "cycles": cycles, "delta": report.delta, "total": report.total},
            lines)


def _generator(g: Graph, args):
    from .exact import build_min_generator
    cert = build_min_generator(g)
    lines = [f"set: {_vertex_list(cert.vertices)}", f"sa (leaves): {_vertex_list(cert.sa)}"]
    lines += [f"sb cycle {i}: {_vertex_list(part)}" for i, part in enumerate(cert.sb)]
    lines += [f"sc cycle {i}: {_vertex_list(part)}" for i, part in enumerate(cert.sc)]
    lines.append("verified: true")
    return ({"set": cert.vertices, "sa": cert.sa, "sb": cert.sb, "sc": cert.sc,
             "verified": cert.verified}, lines)


def _parse_vertex_csv(text: str) -> list[int]:
    try:
        return [_decimal(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"--set expects comma-separated integers, got {text!r}") from None


def _verify(g: Graph, args):
    from .oracle import is_mixed_generator
    ok, pair = is_mixed_generator(g, _parse_vertex_csv(args.set))
    lines = [f"mixed metric generator: {str(ok).lower()}"]
    if pair is not None:
        lines.append(f"failing pair: {_element_text(pair.x)} ~ {_element_text(pair.y)}")
    return ({"is_generator": ok, "failing_pair": None if pair is None else pair._asdict()},
            lines)


def _oracle(g: Graph, args):
    from .oracle import brute_force_mdim
    result = brute_force_mdim(g, max_n=args.max_n)
    return ({"total": result.value, "witness": result.witness},
            [f"mdim = {result.value}", f"witness: {_vertex_list(result.witness)}"])


def _bounds(g: Graph, args):
    from .exact import bound_report
    report = bound_report(g)
    suffix = "attained" if report.attained else "not attained"
    return ({"bound": report.bound, "attained": report.attained},
            [f"bound = {report.bound} ({suffix})"])


def _cmd_graph(args) -> int:
    g = parse_graph_file(args.graph)
    payload, lines = args.verb(g, args)
    if args.json:
        _emit(payload)
    else:
        print("\n".join(lines))
    return EXIT_OK


def _bounded(kind, low=float("-inf"), high=float("inf")):
    """Argparse type: `kind` parsed from text and kept within [low, high]."""
    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            span = f"at least {low}" if high == float("inf") else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {span}, got {text}")
        return value
    # Argparse names the type in its message for unparsable text.
    parse.__name__ = "int" if kind is _decimal else kind.__name__
    return parse


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = _decimal(lo), _decimal(hi)
    except ValueError:
        raise _UsageError(f"--n-range expects 'a..b', got {text!r}") from None
    if lo > hi:
        raise _UsageError(f"--n-range expects a <= b, got {text!r}")
    return lo, hi


def _cmd_conjecture(args) -> int:
    n_range = _parse_range(args.n_range)
    from .conjecture import CampaignConfig, run_campaign
    config = CampaignConfig(
        count=args.count,
        output_path=args.out,
        seed=args.seed,
        n_range=n_range,
        m_strategy="cactus" if args.cactus else "density",
        density=args.density,
        fixed_m=args.fixed_m,
        max_n=args.max_n,
    )
    summary = run_campaign(config)
    _emit(summary.to_dict())
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixedmetric",
                     description="Mixed metric dimension of cactus graphs, with oracle and "
                                 "conjecture tooling.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def graph_command(name: str, help_text: str, verb) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("graph", help="edge-list file: '# comments', 'n m', then m 'u v' lines")
        sp.add_argument("--json", action="store_true", help="stable JSON output")
        sp.set_defaults(handler=_cmd_graph, verb=verb)
        return sp

    def max_n(sp: argparse.ArgumentParser, help_text: str) -> None:
        sp.add_argument("--max-n", type=_bounded(_decimal, 2), default=16,
                        help=f"{help_text} (default 16)")

    graph_command("classify", "structural class and cycle count", _classify)

    dim = graph_command("dim", "exact dimension via the structural formula", _dim)
    dim.add_argument("--force-oracle", action="store_true",
                     help="use the exact oracle search (cross-checks the formula on cacti)")
    max_n(dim, "oracle size cap, read only with --force-oracle")

    graph_command("generator", "construct a certified minimum generator", _generator)

    verify = graph_command("verify", "test whether a vertex set is a generator", _verify)
    verify.add_argument("--set", required=True, metavar="CSV",
                        help="comma-separated vertex ids, e.g. 0,2,5")

    oracle = graph_command("oracle", "exact dimension of any connected graph by search", _oracle)
    max_n(oracle, "search size cap")

    graph_command("bounds", "leaf-plus-two-per-cycle bound report", _bounds)

    conj = sub.add_parser("conjecture", help="run a seeded random-graph campaign")
    conj.add_argument("--count", type=_bounded(_decimal, 0), required=True,
                      help="number of graphs")
    conj.add_argument("--out", required=True, help="append-only JSONL result file")
    conj.add_argument("--seed", type=_bounded(_decimal), default=0)
    conj.add_argument("--n-range", default="4..10", metavar="A..B")
    strategy = conj.add_mutually_exclusive_group()
    strategy.add_argument("--density", type=_bounded(float, 0, 1), default=0.4,
                          help="edge density fraction (default 0.4)")
    strategy.add_argument("--fixed-m", type=_bounded(_decimal, 0), default=None,
                          help="use a fixed edge count, clamped per graph into "
                               "[n - 1, n(n - 1)/2]")
    strategy.add_argument("--cactus", action="store_true", help="sample random cacti instead")
    max_n(conj, "oracle size cap")
    conj.set_defaults(handler=_cmd_conjecture)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.handler(args)
    except (_UsageError, ParseError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        # Not all of OSError: a BrokenPipeError must reach main.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MixedMetricError as exc:
        # Every other package error is a precondition the input failed.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`mixedmetric dim big.txt | head`): not an
        # error.  Point stdout at devnull so the exit-time flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)
