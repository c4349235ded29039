"""Command-line front end.

Subcommands: ``ring`` (structure summary), ``graph`` (DOT/JSON export),
``invariants`` (exact graph invariants), ``iso`` (graph and ring
isomorphism), ``verify``/``verify-pair`` (claim checks), ``sweep``
(family-wide claim reports).

Exit codes: 0 success, 1 claim failure or a definite non-isomorphism,
2 usage or parse error, 3 a configured cap was exceeded, 4 an internal
self-check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .claims import (
    PAIR_CLAIMS,
    SINGLE_CLAIMS,
    Caps,
    ClaimReport,
    corpus_family,
    make_report,
    product_family,
    save_report,
    sweep,
    verify_pair,
    verify_ring,
    zn_family,
)
from .construct import ring_from_text
from .errors import (
    CapacityError,
    InternalConsistencyError,
    ParseError,
    RingAxiomError,
    TableFormatError,
)
from .graphs import (
    build_comaximal_graph,
    chromatic_number,
    clique_number,
    metrics,
    multipartite_structure,
)
from .isomorphism import are_isomorphic
from .rings import RingTable, ring_isomorphic
from .version import __version__

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

# Each cap the CLI sets: its Caps field (flag --field-with-dashes), env variable and help text.
_CAP_OPTIONS = (
    ("max_ring_size", "COMAXIMAL_MAX_RING_SIZE", "largest ring the builder will materialise"),
    (
        "max_exact_vertices",
        "COMAXIMAL_MAX_EXACT_VERTICES",
        "largest graph handed to the exact clique/coloring solvers",
    ),
    (
        "max_ringiso_size",
        "COMAXIMAL_MAX_RINGISO_SIZE",
        "largest ring size attempted by the ring isomorphism search",
    ),
)

ELEMENT_LIST_LIMIT = 32


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        self.code = code
        super().__init__(message)


def _effective_caps(args: argparse.Namespace) -> Caps:
    values = {}
    names = {}  # the variable each cap came from, when it came from the environment
    for field, env_name, _ in _CAP_OPTIONS:
        raw = os.environ.get(env_name)
        if getattr(args, field, None) is not None:
            values[field] = getattr(args, field)
        elif raw is not None:
            names[field] = env_name
            try:
                values[field] = int(raw)
            except ValueError:
                raise CliError(f"{env_name} must be an integer, got {raw!r}") from None
    for field, value in values.items():
        if value < 1:
            name = names.get(field, "--" + field.replace("_", "-"))
            raise CliError(f"{name} must be positive, got {value}")
    return Caps(**values)


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    for field, _, text in _CAP_OPTIONS:
        parser.add_argument(
            "--" + field.replace("_", "-"),
            type=int,
            metavar="N",
            help=f"{text} (default {getattr(Caps(), field)})",
        )


def _build_ring(text: str, caps: Caps) -> RingTable:
    return ring_from_text(text, max_size=caps.max_ring_size)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _label_list(ring: RingTable, indices: Sequence[int]) -> str:
    return "[" + ", ".join(ring.labels[i] for i in indices) + "]"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- subcommands ---------------------------------------------------------------------


def cmd_ring(args: argparse.Namespace, caps: Caps) -> int:
    ring = _build_ring(args.spec, caps)
    lines = [
        f"spec={args.spec}",
        f"size={ring.size}",
        f"characteristic={ring.characteristic}",
        f"units={ring.unit_count}",
    ]
    radical = ring.jacobson_radical
    lines.append(f"jacobson_size={len(radical)}")
    if len(radical) <= ELEMENT_LIST_LIMIT:
        lines.append(f"jacobson={_label_list(ring, radical.members())}")
    ideals = ring.maximal_ideals
    lines.append(f"max_ideals={len(ideals)}")
    lines.append("max_ideal_sizes=[" + ", ".join(str(len(m)) for m in ideals) + "]")
    lines.append(
        "residue_field_sizes=["
        + ", ".join(str(q) for q in ring.residue_field_sizes)
        + "]"
    )
    idempotents = ring.idempotent_elements
    lines.append(f"idempotents={len(idempotents)}")
    if len(idempotents) <= ELEMENT_LIST_LIMIT:
        lines.append(f"idempotent_elements={_label_list(ring, idempotents)}")
    lines.append(f"clean={_bool_text(ring.clean_decomposition().clean)}")
    print("\n".join(lines))
    return EXIT_OK


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def cmd_graph(args: argparse.Namespace, caps: Caps) -> int:
    ring = _build_ring(args.spec, caps)
    g = build_comaximal_graph(ring, args.select)
    if args.format == "dot":
        lines = ["graph comaximal {"]
        for v in range(g.n):
            lines.append(f'  v{v} [label="{_dot_escape(g.labels[v])}"];')
        for u, v in g.edges():
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "n": g.n,
            "labels": list(g.labels),
            "edges": [[u, v] for u, v in g.edges()],
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_invariants(args: argparse.Namespace, caps: Caps) -> int:
    ring = _build_ring(args.spec, caps)
    g = build_comaximal_graph(ring, args.select)
    m = metrics(g)
    clique = clique_number(g, caps.max_exact_vertices)
    chromatic = chromatic_number(g, caps.max_exact_vertices)
    print(
        f"connected={_bool_text(m.connected)}"
        f" diameter={m.diameter_text()}"
        f" clique={clique}"
        f" chromatic={chromatic}"
    )
    print(f"vertices={m.vertex_count}")
    print(f"edges={m.edge_count}")
    structure = multipartite_structure(g)
    print(f"bipartite={_bool_text(structure.bipartition is not None)}")
    if structure.multipartite_parts is not None:
        print("complete_multipartite=true")
        sizes = ", ".join(str(len(p)) for p in structure.multipartite_parts)
        print(f"parts=[{sizes}]")
    else:
        print("complete_multipartite=false")
    return EXIT_OK


def cmd_iso(args: argparse.Namespace, caps: Caps) -> int:
    ring_a = _build_ring(args.spec_a, caps)
    ring_b = _build_ring(args.spec_b, caps)
    g1 = build_comaximal_graph(ring_a, args.graph)
    g2 = build_comaximal_graph(ring_b, args.graph)

    verdicts = []
    try:
        mapping = are_isomorphic(g1, g2, cap=caps.max_graphiso_vertices)
        graph_verdict = "isomorphic" if mapping is not None else "not isomorphic"
    except CapacityError:
        mapping = None
        graph_verdict = "undecided"
    verdicts.append(graph_verdict)
    print(graph_verdict)

    if args.witness is not None and mapping is not None:
        payload = {
            "graph": args.graph,
            "rings": [args.spec_a, args.spec_b],
            "labels_a": list(g1.labels),
            "labels_b": list(g2.labels),
            "mapping": list(mapping),
        }
        with open(args.witness, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    if args.rings:
        try:
            ring_map = ring_isomorphic(ring_a, ring_b, cap=caps.max_ringiso_size)
            ring_verdict = "isomorphic" if ring_map is not None else "not isomorphic"
        except CapacityError:
            ring_verdict = "undecided"
        verdicts.append(ring_verdict)
        print(f"rings: {ring_verdict}")

    if "not isomorphic" in verdicts:
        return EXIT_FAIL
    if "undecided" in verdicts:
        return EXIT_CAPACITY
    return EXIT_OK


def _report_table(reports: Sequence[ClaimReport], summary: dict) -> str:
    lines = []
    for r in reports:
        detail = ""
        if r.outcome == "skip" and r.skip_reason:
            detail = r.skip_reason
        elif r.outcome == "fail" and r.witness is not None:
            detail = json.dumps(r.witness, sort_keys=True)
        lines.append(f"{r.claim:<8}{r.outcome:<6}{detail}".rstrip())
    lines.append(f"summary: pass={summary['pass']} fail={summary['fail']} skip={summary['skip']}")
    return "\n".join(lines)


def _print_reports(
    header: str, reports: Sequence[ClaimReport], out_path: str | None, caps: Caps
) -> int:
    """The tail of verify and verify-pair: header, table, optional report file, exit code."""
    report = make_report([r.to_json() for r in reports], caps)
    print(header)
    print(_report_table(reports, report["summary"]))
    if out_path is not None:
        save_report(report, out_path)
    return EXIT_FAIL if report["summary"]["fail"] else EXIT_OK


def _parse_claim_ids(raw: str | None, registry: dict, what: str) -> list[str] | None:
    if raw is None:
        return None
    ids = [c.strip() for c in raw.split(",") if c.strip()]
    if not ids:
        raise CliError(f"--claims needs at least one {what} claim id")
    for cid in ids:
        if cid not in registry:
            known = ", ".join(registry)
            raise CliError(f"unknown {what} claim id {cid!r} (known: {known})")
    return ids


def cmd_verify(args: argparse.Namespace, caps: Caps) -> int:
    ids = _parse_claim_ids(args.claims, SINGLE_CLAIMS, "single-ring")
    ring = _build_ring(args.spec, caps)
    reports = verify_ring(ring, ids, text=args.spec, caps=caps)
    return _print_reports(f"ring: {args.spec}", reports, args.out, caps)


def cmd_verify_pair(args: argparse.Namespace, caps: Caps) -> int:
    ids = _parse_claim_ids(args.claims, PAIR_CLAIMS, "pair")
    ring_a = _build_ring(args.spec_a, caps)
    ring_b = _build_ring(args.spec_b, caps)
    reports = verify_pair(
        ring_a, ring_b, ids, texts=(args.spec_a, args.spec_b), caps=caps
    )
    return _print_reports(f"rings: {args.spec_a} | {args.spec_b}", reports, args.out, caps)


def cmd_sweep(args: argparse.Namespace, caps: Caps) -> int:
    ids = _parse_claim_ids(args.claims, SINGLE_CLAIMS, "single-ring")
    if args.family == "zn":
        if args.max is None:
            raise CliError("--family zn needs --max N")
        texts = zn_family(args.max)
    elif args.family == "products":
        if not args.specs:
            raise CliError("--family products needs --specs 'A;B;C'")
        base = [s.strip() for s in args.specs.split(";") if s.strip()]
        if not base:
            raise CliError("--specs contained no ring expressions")
        texts = product_family(base, max_factors=args.max_factors, max_size=args.max_size)
    else:
        if not args.corpus:
            raise CliError("--family corpus needs --corpus FILE")
        texts = corpus_family(args.corpus)

    report = sweep(texts, ids, caps=caps, jobs=args.jobs)
    summary = report["summary"]
    if args.out is not None:
        save_report(report, args.out)
        print(
            f"rings={len(texts)} entries={len(report['entries'])}"
            f" pass={summary['pass']} fail={summary['fail']} skip={summary['skip']}"
        )
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_FAIL if summary["fail"] > 0 else EXIT_OK


# -- parser --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comaximal",
        description="Comaximal graphs of finite commutative rings.",
    )
    parser.add_argument("--version", action="version", version=f"comaximal {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_ring = sub.add_parser("ring", help="summarise a ring's structure")
    p_ring.add_argument("spec", help='ring expression, e.g. "Z/12" or "Z/2 x GF(4)"')
    p_ring.set_defaults(handler=cmd_ring)

    p_graph = sub.add_parser("graph", help="export a comaximal graph")
    p_graph.add_argument("spec")
    p_graph.add_argument(
        "--select",
        choices=["full", "units", "nonunits", "core"],
        default="full",
        help="which vertex set to keep (default full)",
    )
    p_graph.add_argument("--format", choices=["dot", "json"], default="dot")
    p_graph.add_argument("--out", metavar="FILE", help="write here instead of stdout")
    p_graph.set_defaults(handler=cmd_graph)

    p_inv = sub.add_parser("invariants", help="exact graph invariants")
    p_inv.add_argument("spec")
    p_inv.add_argument(
        "--select",
        choices=["full", "units", "nonunits", "core"],
        default="full",
    )
    p_inv.set_defaults(handler=cmd_invariants)

    p_iso = sub.add_parser("iso", help="graph (and optionally ring) isomorphism")
    p_iso.add_argument("spec_a")
    p_iso.add_argument("spec_b")
    p_iso.add_argument("--graph", choices=["full", "core"], default="full")
    p_iso.add_argument("--rings", action="store_true", help="also decide ring isomorphism")
    p_iso.add_argument("--witness", metavar="FILE", help="write the vertex bijection as JSON")
    p_iso.set_defaults(handler=cmd_iso)

    p_verify = sub.add_parser("verify", help="check single-ring claims")
    p_verify.add_argument("spec")
    p_verify.add_argument("--claims", metavar="ID,ID,...", help="subset of claim ids")
    p_verify.add_argument("--out", metavar="FILE", help="also write a JSON report")
    p_verify.set_defaults(handler=cmd_verify)

    p_pair = sub.add_parser("verify-pair", help="check two-ring claims")
    p_pair.add_argument("spec_a")
    p_pair.add_argument("spec_b")
    p_pair.add_argument("--claims", metavar="ID,ID,...")
    p_pair.add_argument("--out", metavar="FILE")
    p_pair.set_defaults(handler=cmd_verify_pair)

    p_sweep = sub.add_parser("sweep", help="check claims across a ring family")
    p_sweep.add_argument("--family", choices=["zn", "products", "corpus"], required=True)
    p_sweep.add_argument("--max", type=int, metavar="N", help="modulus bound for --family zn")
    p_sweep.add_argument(
        "--specs",
        metavar="'A;B;C'",
        help="semicolon-separated base rings for --family products",
    )
    p_sweep.add_argument(
        "--max-factors", type=int, default=3, metavar="K", help="product length bound"
    )
    p_sweep.add_argument(
        "--max-size", type=int, default=512, metavar="N", help="product size bound"
    )
    p_sweep.add_argument("--corpus", metavar="FILE", help="one ring expression per line")
    p_sweep.add_argument("--claims", metavar="ID,ID,...")
    p_sweep.add_argument("--out", metavar="FILE", help="write the JSON report here")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N")
    p_sweep.set_defaults(handler=cmd_sweep)

    for p in (p_ring, p_graph, p_inv, p_iso, p_verify, p_pair, p_sweep):
        _add_cap_flags(p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = _effective_caps(args)
        return args.handler(args, caps)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except ParseError as exc:
        detail = f" in {exc.text!r}" if exc.text else ""
        sys.stderr.write(f"error: {exc}{detail}\n")
        return EXIT_USAGE
    except (TableFormatError, RingAxiomError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CapacityError as exc:
        sys.stderr.write(f"capability: {exc}\n")
        return EXIT_CAPACITY
    except InternalConsistencyError as exc:
        sys.stderr.write(f"error: internal consistency check failed: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
