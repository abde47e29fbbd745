"""Command-line interface: mine, check, bench, encode, gen.

Exit codes: 0 success, 1 usage/config/parse errors or failed validation,
2 internal invariant violations and I/O errors. Every input or argument the
library rejects raises a ``ValueError``; ``main`` turns each into exit 1
with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .dataio import (
    SynthParams,
    build_dataset,
    edge_lines,
    gen_synthetic,
    parse_graphs,
    parse_patterns,
    write_bench_csv,
    write_graphs,
    write_patterns,
)
from .graphs import Dataset, ExampleClass, build_graph, induced_subgraph, is_connected
from .miner import MiningConfig, Strategy, mine
from .morphism import coverage

PRESETS = {
    "yoshida": SynthParams(265, (15, 25), 23, 9, 1.0, 0),
    "yoshida-50": SynthParams(50, (15, 25), 23, 9, 1.0, 0),
    "yoshida-small": SynthParams(30, (15, 25), 23, 9, 1.0, 0),
}


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _effective_seed(seed: int) -> int:
    env = os.environ.get("PATMINE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"PATMINE_SEED is not an integer: {env!r}")
    return seed


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", code=2)
    except UnicodeDecodeError as exc:
        # Bytes that are not UTF-8 text are a parse error, not an I/O one.
        raise CliError(f"cannot read {path}: {exc}")


def _write(path: str | None, text: str) -> None:
    """Write to stdout without a path. Otherwise write through a temporary
    file beside the target, then rename it over the target: a failed write
    leaves no truncated output and no temp file. An existing target that is
    not a regular file (a device such as /dev/stdout, a FIFO, a directory)
    is written in place, because a rename would replace it."""
    if not path:
        sys.stdout.write(text)
        return
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
    try:
        if target.exists() and not target.is_file():
            target.write_text(text, encoding="utf-8")
            return
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise CliError(f"cannot write {path}: {exc}", code=2)


def _load_dataset(args: argparse.Namespace) -> Dataset:
    blocks = parse_graphs(_read(args.examples))
    if args.template:
        template = parse_graphs(_read(args.template))
        for block_id, tag, _ in template:
            if tag != "template":
                raise CliError(f"{args.template}: block {block_id} is tagged {tag!r}, "
                               "but a --template file holds only template blocks")
        blocks = template + blocks
    n_pos = args.npos
    positives = sum(1 for _, tag, _ in blocks if tag == "pos")
    if getattr(args, "npos_frac", None) is not None:
        if n_pos is not None:
            raise CliError(f"--npos-frac must not be given with --npos, got --npos {n_pos}")
        if not 0 <= args.npos_frac <= 1:  # also rejects nan and inf
            raise CliError(f"--npos-frac must be between 0 and 1, got {args.npos_frac}")
        n_pos = math.ceil(args.npos_frac * positives)
    if n_pos is None:
        n_pos = 1
    return build_dataset(blocks, n_pos, args.nneg)


def _mining_config(
    args: argparse.Namespace, dataset: Dataset, strategy: Strategy
) -> MiningConfig:
    return MiningConfig(
        n_pos_threshold=dataset.n_pos_threshold,
        n_neg_threshold=dataset.n_neg_threshold,
        min_pattern_size=args.min_size,
        max_pattern_size=args.max_size,
        max_patterns=args.max_patterns,
        strategy=strategy,
    )


def _preset(name: str, seed: int, others: str = "") -> Dataset:
    """The synthetic dataset of preset ``name`` at ``seed``; ``others`` ends
    the list of valid names in the error for an unknown one."""
    if name not in PRESETS:
        raise CliError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}{others}"
        )
    return gen_synthetic(dataclasses.replace(PRESETS[name], seed=seed))


def _print_dataset_summary(dataset: Dataset) -> None:
    n_pos = len(dataset.positives())
    n_neg = len(dataset.negatives())
    t = dataset.template
    print(
        f"dataset: {len(dataset.examples)} examples ({n_pos} positive, "
        f"{n_neg} negative), template {t.n} vertices / {len(edge_lines(t))} edges, "
        f"{len(dataset.label_universe())} label(s)"
    )


def cmd_mine(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    config = _mining_config(args, dataset, Strategy(args.strategy))
    _print_dataset_summary(dataset)
    sizes_hi = config.max_pattern_size if config.max_pattern_size else dataset.template.n
    print(
        f"config: n_pos>={config.n_pos_threshold} n_neg<={config.n_neg_threshold} "
        f"sizes {config.min_pattern_size}..{sizes_hi} strategy={config.strategy.value}"
    )
    t0 = time.perf_counter()
    results = mine(dataset, config)
    total_s = time.perf_counter() - t0

    for res in results:
        if res.positive_covered < config.n_pos_threshold:
            raise CliError(f"pattern {res.index}: positive coverage invariant broken", 2)
        if res.negative_covered > config.n_neg_threshold:
            raise CliError(f"pattern {res.index}: negative coverage invariant broken", 2)
        if not is_connected(res.pattern):
            raise CliError(f"pattern {res.index}: not connected", 2)
        if res.pattern != induced_subgraph(dataset.template, res.subset):
            raise CliError(f"pattern {res.index}: not the induced subgraph", 2)
        print(
            f"pattern {res.index}: size={res.pattern.n} pos={res.positive_covered} "
            f"neg={res.negative_covered} time_ms={res.elapsed_ms:.3f} "
            f"subset={list(res.subset)}"
        )
    print(f"total: {len(results)} pattern(s) in {total_s:.3f} s")

    if args.out:
        _write(args.out, write_patterns(results))
    if args.csv:
        tag = Path(args.examples).name
        rows = [(config.strategy.value, r.index, r.elapsed_ms, tag, 0) for r in results]
        _write(args.csv, write_bench_csv(rows))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    template = dataset.template
    pattern_blocks = parse_patterns(_read(args.pattern))
    if not pattern_blocks:
        raise CliError("pattern file contains no pattern blocks")

    for blk in pattern_blocks:
        subset = blk.subset
        print(f"pattern {blk.index}: subset={list(subset)}")
        for v in subset:
            if not (0 <= v < template.n):
                print(f"invalid: vertex {v} not a template vertex")
                return 1
            if blk.labels[v] != template.labels[v]:
                print(f"invalid: label mismatch at template vertex {v}")
                return 1
        pattern = induced_subgraph(template, subset)
        remap = {orig: dense for dense, orig in enumerate(pattern.orig_ids)}
        for u, v in blk.edges:
            if u not in remap or v not in remap:
                print(f"invalid: edge ({u}, {v}) uses an undeclared vertex")
                return 1
        claimed = build_graph(
            pattern.n, [(remap[u], remap[v]) for u, v in blk.edges],
            pattern.labels, template.undirected_input,
        )
        if claimed != pattern:
            print("invalid: not induced (edge set differs from the induced subgraph)")
            return 1
        if not is_connected(pattern):
            print("invalid: pattern not connected")
            return 1
        pos_rep = coverage(pattern, dataset, ExampleClass.POSITIVE)
        neg_rep = coverage(pattern, dataset, ExampleClass.NEGATIVE)
        for tag, rep in (("pos", pos_rep), ("neg", neg_rep)):
            for gid, hit in rep.per_example:
                print(f"  example {gid} ({tag}): homomorphism {'yes' if hit else 'no'}")
        if pos_rep.positive_covered < dataset.n_pos_threshold:
            print(
                f"invalid: positive coverage {pos_rep.positive_covered} < "
                f"{dataset.n_pos_threshold}"
            )
            return 1
        if neg_rep.negative_covered > dataset.n_neg_threshold:
            print(
                f"invalid: negative coverage {neg_rep.negative_covered} > "
                f"{dataset.n_neg_threshold}"
            )
            return 1
        print(
            f"  valid: pos={pos_rep.positive_covered}>={dataset.n_pos_threshold} "
            f"neg={neg_rep.negative_covered}<={dataset.n_neg_threshold}"
        )
    return 0


def _bench_dataset(args: argparse.Namespace) -> tuple[Dataset, str, int]:
    if args.synth:
        from .demo import demo_dataset

        seed = _effective_seed(args.seed)
        synth = args.synth
        dataset = demo_dataset() if synth == "demo" else _preset(synth, seed, " or demo")
        npos = dataset.n_pos_threshold if args.npos is None else args.npos
        dataset = dataclasses.replace(
            dataset, n_pos_threshold=npos, n_neg_threshold=args.nneg
        )
        return dataset, args.synth, seed
    if not args.examples:
        raise CliError("either --synth or --examples is required")
    return _load_dataset(args), Path(args.examples).name, _effective_seed(args.seed)


def cmd_bench(args: argparse.Namespace) -> int:
    import statistics

    if args.repeats < 1:
        raise CliError("--repeats must be >= 1")
    dataset, tag, seed = _bench_dataset(args)
    both = args.strategies == "both"
    strategies = list(Strategy) if both else [Strategy(args.strategies)]
    configs = [_mining_config(args, dataset, strategy) for strategy in strategies]

    _print_dataset_summary(dataset)
    print(
        f"bench: repeats={args.repeats} max_patterns={args.max_patterns} "
        f"n_pos>={dataset.n_pos_threshold} seed={seed}"
    )

    rows: list[tuple[str, int, float, str, int]] = []
    times: dict[str, dict[int, list[float]]] = {}
    emitted: dict[str, list[list[tuple[int, ...]]]] = {}
    for config in configs:
        name = config.strategy.value
        per_index = times.setdefault(name, {})
        mine(dataset, config)  # warmup: candidate caches and example indexes
        for _ in range(args.repeats):
            results = mine(dataset, config)
            emitted.setdefault(name, []).append([res.subset for res in results])
            for res in results:
                rows.append((name, res.index, res.elapsed_ms, tag, seed))
                per_index.setdefault(res.index, []).append(res.elapsed_ms)

    if both and emitted["decomposed"] != emitted["monolithic"]:
        raise CliError("strategies disagree on the emitted patterns", code=2)

    for name, per_index in times.items():
        medians = {i: statistics.median(v) for i, v in sorted(per_index.items())}
        rendered = " ".join(f"{i}:{m:.1f}ms" for i, m in medians.items())
        print(f"{name} median per-index: {rendered}")

    if both:
        dec = [r[2] for r in rows if r[0] == "decomposed"]
        mono = [r[2] for r in rows if r[0] == "monolithic"]
        if dec and mono:
            speedup = statistics.median(mono) / max(statistics.median(dec), 1e-9)
            print(f"decomposed/monolithic median speedup: {speedup:.2f}x")

    if args.csv:
        _write(args.csv, write_bench_csv(rows))
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    from .encoder import emit_asp, emit_idp

    dataset = _load_dataset(args)
    _write(args.out, emit_asp(dataset) if args.target == "asp" else emit_idp(dataset))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    seed = _effective_seed(args.seed)
    if args.preset:
        dataset = _preset(args.preset, seed)
    elif args.vertex_range is None:
        raise CliError("--vertex-range is required without --preset")
    else:
        dataset = gen_synthetic(SynthParams(
            args.n_graphs,
            (args.vertex_range[0], args.vertex_range[1]),
            args.avg_edges,
            args.n_labels,
            args.positive_fraction,
            seed,
        ))
    _write(args.out, write_graphs(dataset))
    return 0


def _add_dataset_flags(p: argparse.ArgumentParser, with_frac: bool = True) -> None:
    p.add_argument("--examples", help="graph file with example blocks")
    p.add_argument("--template", help="graph file holding the template block "
                   "(optional if the examples file has one)")
    p.add_argument("--npos", type=int, default=None,
                   help="minimum positive coverage N+ (default 1)")
    if with_frac:
        p.add_argument("--npos-frac", dest="npos_frac", type=float, default=None,
                       help="set N+ as ceil(R * number of positives)")
    p.add_argument("--nneg", type=int, default=0,
                   help="maximum negative coverage N- (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patmine",
        description="Frequent subgraph mining over a template graph.",
    )
    parser.add_argument("--version", action="version", version=f"patmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine canonical frequent patterns")
    _add_dataset_flags(p)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--max-patterns", type=int, default=None)
    p.add_argument("--strategy", choices=["decomposed", "monolithic"],
                   default="decomposed")
    p.add_argument("--out", help="write mined patterns to this file")
    p.add_argument("--csv", help="write per-pattern timings to this CSV")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("check", help="re-validate a mined pattern file")
    p.add_argument("--pattern", required=True)
    _add_dataset_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="compare solving strategies")
    p.add_argument("--synth", help="synthetic preset: demo, yoshida, "
                   "yoshida-50, yoshida-small")
    _add_dataset_flags(p, with_frac=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategies", choices=["both", "decomposed", "monolithic"],
                   default="both")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--max-patterns", type=int, default=5)
    p.add_argument("--csv", help="write one row per (strategy, repeat, index)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("encode", help="emit an ASP or IDP encoding")
    p.add_argument("--target", required=True, choices=["asp", "idp"])
    _add_dataset_flags(p)
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--preset", help="yoshida, yoshida-50, or yoshida-small")
    p.add_argument("--n-graphs", type=int, default=30)
    p.add_argument("--vertex-range", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--avg-edges", type=int, default=23)
    p.add_argument("--n-labels", type=int, default=9)
    p.add_argument("--positive-fraction", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("mine", "check", "encode") and not args.examples:
            parser.error("--examples is required")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map those to exit 1, keep --help at 0.
        return 0 if exc.code == 0 else 1
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 1
    except BrokenPipeError as exc:
        # The reader of stdout is gone: point stdout at the null device so
        # the interpreter's flush at exit fails no second time.
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
