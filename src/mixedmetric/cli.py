"""Command-line surface: classify, dim, generator, verify, oracle, bounds, conjecture.

Graphs come from edge-list text files: optional '#' comment lines, a
header line 'n m', then m lines 'u v' with 0-indexed endpoints.  Exit
codes: 0 success, 1 usage or parse error, 2 structural precondition
failure (not a cactus, too large, disconnected, ...), 3 internal
invariant breach (formula disagreeing with the oracle; never expected).

Each verb imports the modules it runs once its input is read, so a call
loads only those and a malformed file loads none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DisconnectedError,
    InvariantError,
    MixedMetricError,
    NotACactusError,
    ParseError,
)
from .graph import Element, Graph, build_graph

if TYPE_CHECKING:
    from .exact import GeneratorCertificate, MdimReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STRUCTURAL = 2
EXIT_INTERNAL = 3


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
    """Read the edge-list format strictly; errors carry line numbers."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    lineno = 0
    # Undecodable bytes become lone surrogates, so the line they sit on is known.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            # The common line first: on ASCII text isdigit() accepts only
            # 0-9, so int() reads these fields as _decimal would.
            if (len(fields) == 2 and raw.isascii()
                    and fields[0].isdigit() and fields[1].isdigit()):
                a, b = int(fields[0]), int(fields[1])
            else:
                if not raw.isascii():
                    try:
                        raw.encode("utf-8")
                    except UnicodeEncodeError:
                        raise ParseError(lineno, "not UTF-8 text") from None
                # split() and strip() cut at the same whitespace, so the first
                # field starts with '#' exactly when the stripped line does.
                if not fields or fields[0].startswith("#"):
                    continue
                if len(fields) != 2:
                    raise ParseError(lineno, f"expected two integers, got {raw.strip()!r}")
                try:
                    a, b = _decimal(fields[0]), _decimal(fields[1])
                except ValueError:
                    raise ParseError(lineno, f"expected two integers, got {raw.strip()!r}") from None
            if header is None:
                header = (a, b)
            elif len(edges) < header[1]:
                edges.append((a, b))
            else:
                raise ParseError(lineno, f"more than the declared {header[1]} edges")
    if header is None:
        raise ParseError(lineno + 1, "missing 'n m' header line")
    if len(edges) != header[1]:
        raise ParseError(lineno + 1, f"declared {header[1]} edges, found {len(edges)}")
    n, m = header
    if m < n - 1:
        # Checked before build_graph allocates n adjacency lists.
        raise DisconnectedError(f"{m} edges cannot connect {n} vertices")
    return build_graph(n, edges)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _element_payload(element: Element):
    return element if isinstance(element, int) else [element[0], element[1]]


def _element_text(element: Element) -> str:
    return f"vertex {element}" if isinstance(element, int) else f"edge ({element[0]}, {element[1]})"


def _report_payload(report: MdimReport) -> dict:
    return {
        "l1": report.l1,
        "cycles": [
            {"id": t.cycle_id, "rt": t.rt, "term": t.max_term, "needs_delta": t.needs_delta}
            for t in report.per_cycle
        ],
        "delta": report.delta,
        "total": report.total,
    }


def _certificate_payload(cert: GeneratorCertificate) -> dict:
    return {
        "set": list(cert.vertices),
        "sa": list(cert.sa),
        "sb": [list(part) for part in cert.sb],
        "sc": [list(part) for part in cert.sc],
        "verified": cert.verified,
    }


def _vertex_list(vertices: Sequence[int]) -> str:
    return " ".join(str(v) for v in vertices) if vertices else "(none)"


def _cmd_classify(args) -> int:
    g = parse_graph_file(args.graph)
    from .structure import classify
    info = classify(g)
    if args.json:
        _emit({"tag": info.tag.value, "cycle_count": info.cycle_count})
    else:
        print(f"class: {info.tag.value}")
        print(f"cycles: {info.cycle_count}")
    return EXIT_OK


def _print_report(report: MdimReport) -> None:
    print(f"l1 = {report.l1}")
    for t in report.per_cycle:
        line = f"cycle {t.cycle_id}: rt = {t.rt}, term = max(3 - {t.rt}, 0) = {t.max_term}"
        if t.needs_delta:
            line += ", no geodesic triple of roots -> +1 to delta"
        print(line)
    print(f"delta = {report.delta}")
    terms = sum(t.max_term for t in report.per_cycle)
    print(f"mdim = {report.l1} + {terms} + {report.delta} = {report.total}")


def _cmd_dim(args) -> int:
    g = parse_graph_file(args.graph)
    from .exact import mdim_exact
    if args.force_oracle:
        from .oracle import brute_force_mdim
        result = brute_force_mdim(g, max_n=args.max_n)
        payload = {"source": "oracle", "total": result.value, "witness": list(result.witness)}
        try:
            formula = mdim_exact(g).total
        except NotACactusError:
            pass  # no formula to cross-check outside the cactus family
        else:
            if formula != result.value:
                raise InvariantError(
                    f"formula gives {formula} but the oracle gives {result.value}"
                )
            payload["formula"] = formula
        if args.json:
            _emit(payload)
        else:
            print(f"mdim = {result.value} (oracle)")
            print(f"witness: {_vertex_list(result.witness)}")
            if "formula" in payload:
                print(f"cross-check: formula agrees ({payload['formula']})")
        return EXIT_OK
    try:
        report = mdim_exact(g)
    except NotACactusError as exc:
        print(f"error: {exc}; use the `oracle` command (or --force-oracle)", file=sys.stderr)
        return EXIT_STRUCTURAL
    if args.json:
        _emit(_report_payload(report))
    else:
        _print_report(report)
    return EXIT_OK


def _cmd_generator(args) -> int:
    g = parse_graph_file(args.graph)
    from .exact import build_min_generator
    cert = build_min_generator(g)
    if not cert.verified:
        raise InvariantError("constructed generator failed oracle verification")
    if args.json:
        _emit(_certificate_payload(cert))
    else:
        print(f"set: {_vertex_list(cert.vertices)}")
        print(f"sa (leaves): {_vertex_list(cert.sa)}")
        for i, part in enumerate(cert.sb):
            print(f"sb cycle {i}: {_vertex_list(part)}")
        for i, part in enumerate(cert.sc):
            print(f"sc cycle {i}: {_vertex_list(part)}")
        print(f"verified: {str(cert.verified).lower()}")
    return EXIT_OK


def _parse_vertex_csv(text: str) -> list[int]:
    try:
        return [_decimal(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"--set expects comma-separated integers, got {text!r}") from None


def _cmd_verify(args) -> int:
    g = parse_graph_file(args.graph)
    from .oracle import is_mixed_generator
    ok, pair = is_mixed_generator(g, _parse_vertex_csv(args.set))
    if args.json:
        _emit({
            "is_generator": ok,
            "failing_pair": None if pair is None
            else {"x": _element_payload(pair.x), "y": _element_payload(pair.y)},
        })
    else:
        print(f"mixed metric generator: {str(ok).lower()}")
        if pair is not None:
            print(f"failing pair: {_element_text(pair.x)} ~ {_element_text(pair.y)}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = parse_graph_file(args.graph)
    from .oracle import brute_force_mdim
    result = brute_force_mdim(g, max_n=args.max_n)
    if args.json:
        _emit({"total": result.value, "witness": list(result.witness)})
    else:
        print(f"mdim = {result.value}")
        print(f"witness: {_vertex_list(result.witness)}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g = parse_graph_file(args.graph)
    from .exact import bound_report
    report = bound_report(g)
    if args.json:
        _emit({"bound": report.bound, "attained": report.attained})
    else:
        suffix = "attained" if report.attained else "not attained"
        print(f"bound = {report.bound} ({suffix})")
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
    if args.fixed_m is not None:
        strategy = "fixed"
    elif args.cactus:
        strategy = "cactus"
    else:
        strategy = "density"
    n_range = _parse_range(args.n_range)
    from .conjecture import CampaignConfig, run_campaign
    config = CampaignConfig(
        count=args.count,
        output_path=args.out,
        seed=args.seed,
        n_range=n_range,
        m_strategy=strategy,
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

    def graph_command(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("graph", help="edge-list file: '# comments', 'n m', then m 'u v' lines")
        sp.add_argument("--json", action="store_true", help="stable JSON output")
        sp.set_defaults(handler=handler)
        return sp

    graph_command("classify", "structural class and cycle count", _cmd_classify)

    dim = graph_command("dim", "exact dimension via the structural formula", _cmd_dim)
    dim.add_argument("--force-oracle", action="store_true",
                     help="use the exact oracle search (cross-checks the formula on cacti)")
    dim.add_argument("--max-n", type=_bounded(_decimal, 2), default=16,
                     help="oracle size cap (default 16)")

    graph_command("generator", "construct a certified minimum generator", _cmd_generator)

    verify = graph_command("verify", "test whether a vertex set is a generator", _cmd_verify)
    verify.add_argument("--set", required=True, metavar="CSV",
                        help="comma-separated vertex ids, e.g. 0,2,5")

    oracle = graph_command("oracle", "exact dimension of any connected graph by search",
                           _cmd_oracle)
    oracle.add_argument("--max-n", type=_bounded(_decimal, 2), default=16,
                        help="search size cap (default 16)")

    graph_command("bounds", "leaf-plus-two-per-cycle bound report", _cmd_bounds)

    conj = sub.add_parser("conjecture", help="run a seeded random-graph campaign")
    conj.add_argument("--count", type=_bounded(_decimal, 0), required=True,
                      help="number of graphs")
    conj.add_argument("--out", required=True, help="append-only JSONL result file")
    conj.add_argument("--seed", type=_bounded(_decimal), default=0)
    conj.add_argument("--n-range", default="4..10", metavar="A..B")
    conj.add_argument("--density", type=_bounded(float, 0, 1), default=0.4,
                      help="edge density fraction (default 0.4)")
    conj.add_argument("--fixed-m", type=_bounded(_decimal, 0), default=None,
                      help="use a fixed edge count, clamped per graph into "
                           "[n - 1, n(n - 1)/2]")
    conj.add_argument("--cactus", action="store_true", help="sample random cacti instead")
    conj.add_argument("--max-n", type=_bounded(_decimal, 2), default=16,
                      help="oracle size cap (default 16)")
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
