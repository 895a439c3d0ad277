"""Command line front end: run experiments, inspect decompositions, report bounds."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import InfoRow, csv_text, info_report
from .decompose import decompose
from .harness import SETTINGS, ExperimentConfig, emit, run_experiment
from .estimators import METHODS
from .topology import TopologyError, UnsupportedTopologyError, parse_topology

EXIT_CONFIG = 1
EXIT_UNSUPPORTED = 2


def _add_topology_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--topology", type=Path, help="topology file")
    g.add_argument("--setting", choices=sorted(SETTINGS), help="built-in setting")


def _topology_text(args) -> str:
    if args.setting:
        return SETTINGS[args.setting]
    return args.topology.read_text(encoding="utf-8-sig")  # with or without a BOM


def _int_list(text: str):
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="losstomo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a replication experiment")
    _add_topology_args(run)
    run.add_argument("--probes", type=_int_list, default=ExperimentConfig.probe_counts,
                     help="comma-separated per-source probe counts (default 100,500,1000)")
    run.add_argument("--reps", type=int, default=ExperimentConfig.reps)
    run.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    run.add_argument("--estimators", type=lambda s: tuple(s.split(",")), default=ExperimentConfig.estimators,
                     help=f"comma-separated subset of {','.join(METHODS)}")
    run.add_argument("--format", choices=("csv", "markdown"), default="csv")
    run.add_argument("--out", type=Path, help="output path (default stdout)")

    dec = sub.add_parser("decompose", help="print the d-tree plan")
    _add_topology_args(dec)

    ana = sub.add_parser("analyze", help="print true-parameter information bounds")
    _add_topology_args(ana)
    ana.add_argument("--probes", type=int, default=1000)
    return ap


def cmd_run(args) -> int:
    # a path the table cannot be written to fails before any replication runs
    if args.out and args.out.is_dir():
        raise ValueError(f"--out {args.out} is a directory")
    if args.out and not args.out.parent.is_dir():
        raise ValueError(f"--out {args.out}: no directory {args.out.parent}")
    cfg = ExperimentConfig(
        topology_text=_topology_text(args),
        probe_counts=args.probes,
        reps=args.reps,
        seed=args.seed,
        estimators=args.estimators,
    )
    table = run_experiment(cfg)
    for msg in table.messages:
        print(f"note: {msg}", file=sys.stderr)
    text = emit(table, args.format)
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_decompose(args) -> int:
    plan = decompose(parse_topology(_topology_text(args)))
    print(f"joint nodes: {list(plan.joint_nodes) or 'none'}")
    for mt in plan.msource_trees:
        print(f"multi-source tree at node {mt.joint}:")
        print(f"  sources S({mt.joint}) = {list(mt.sources)}")
        print(f"  nodes = {list(mt.nodes)}")
        print(f"  links = {[l.label for l in sorted(mt.links, key=lambda l: l.link_ids)]}")
        print(f"  virtual links = {[f'{s}->{mt.joint}' for s in mt.sources]}")
    walks = {s: [n for n, _ in w[0]] for s, w in plan.walks.items()}  # mle's walks
    for s, walk in walks.items():
        # a source's fragment: the links out of the source and out of each node its walk solves
        links = sorted((l for n in (s, *walk) for l in plan.children[n]), key=lambda l: l.link_ids)
        print(f"fragment of source {s}:")
        print(f"  nodes = {sorted({s, *(l.tail for l in links)})}")
        print(f"  links = {[l.label for l in links]}")
    serial = [l.label for l in plan.logical_links if len(l.link_ids) > 1]
    if serial:
        print(f"merged serial links: {serial}")
    print("estimation order:")
    for mt in plan.msource_trees:
        print(f"  solve multi-source tree at node {mt.joint}")
    for s, walk in walks.items():
        for node in walk:
            print(f"  solve upstream path of source {s} at node {node}")
    return 0


def cmd_analyze(args) -> int:
    plan = decompose(parse_topology(_topology_text(args)))
    rows = info_report(plan, args.probes)
    sys.stdout.write(csv_text(InfoRow, rows))
    return 0


def main(argv=None) -> int:
    handlers = {"run": cmd_run, "decompose": cmd_decompose, "analyze": cmd_analyze}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # argparse printed the help (code 0) or a usage error (code 2)
        return EXIT_CONFIG if exc.code else 0
    except UnsupportedTopologyError as exc:
        print(f"unsupported topology: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (TopologyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
