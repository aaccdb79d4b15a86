"""Command-line front end for the feature/fit/attack/overlap pipeline.

Subcommands:

  features  extract the 14-column feature CSV for one cloud
  fit       pool top-N samples from a corpus and fit the score model
  attack    drop the N highest-predicted-score points (or a random N)
  overlap   top-N overlap percentages between two score files

Every command is deterministic given its flags; all randomness flows
through --seed. ``fit`` featurizes its corpus across up to one process per
usable CPU and fits once on the pooled blocks in sorted order, so its bytes
do not depend on the CPU count.

Input rule: ``_read`` reads every input file as UTF-8, skipping a BOM, and
parses it; any error in a file names it. ``main`` alone sets the exit status.

Output rule, the same for every command: the result (CSV, coefficient
JSON, cloud or overlap table) goes to --output, else to stdout; the report
of fit and attack goes to stdout when the result went to a file, else to
stderr. So ``pointdrop fit C S > model.json`` writes a loadable model.
"""

from __future__ import annotations

import argparse
import contextvars
import os
import sys
from functools import cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .attack import AttackResult, drop_attack, normalize_scores, overlap, random_drop, rank_top_n
from .features import extract_features, features_to_csv
from .graph import _single_threaded, _usable_cpus
from .io import (
    CoefficientSet,
    format_number,
    load_coefficients,
    normalize_cloud,
    parse_scores,
    parse_xyz,
    write_coefficients,
    write_xyz,
)
from .presets import get_preset, preset_names
from .regression import _check_alpha, fit_mlr, fit_report, select_top_targets

# Clouds per process from which `fit` featurizes across processes. On a
# 2-vCPU x86 host a forked second process against one gave 1.07x at 2 clouds
# and 0.94x at 3 (quartiles either side of 1x), then 1.34x at 4, 1.59x at 8
# and 1.82x at 64 (1024-point clouds, pool start included, medians of 6-20
# interleaved fits).
_MIN_CLOUDS_PER_PROCESS = 2


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _at_least(least: int, many: bool = False):
    """An argparse type: an integer >= least, or with ``many`` a comma list of one or more."""

    def parse(text: str):
        try:
            values = [int(t) for t in text.split(",") if t.strip()] if many else [int(text)]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer{' list' * many}, got {text!r}")
        if not values:
            raise argparse.ArgumentTypeError("no values given")
        if min(values) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return values if many else values[0]

    return parse


def _sigma_value(text: str):
    return None if text == "auto" else _positive(text)


def _feature_options(args: argparse.Namespace) -> dict:
    """The shared graph and feature flags, as keyword arguments of extract_features."""
    return dict(k=args.k, sigma=args.sigma, gamma=args.gamma, ball_radius=args.ball_radius)


def _read(path, parse, *args):
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"), *args)
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ValueError(f"{path}: {exc}") from None


def _parse_cloud(text: str, normalize: bool):
    return normalize_cloud(parse_xyz(text)) if normalize else parse_xyz(text)


def _emit(result: str, output: str | None, report: str = "") -> None:
    """The result to ``output``, else stdout; the report to stdout after a file, else stderr."""
    if output is None:
        sys.stdout.write(result)
        sys.stderr.write(report)
    else:
        Path(output).write_text(result, encoding="utf-8")
        sys.stdout.write(report)


def _resolve_coefficients(source: str) -> CoefficientSet:
    if source in preset_names():
        return get_preset(source)
    if Path(source).exists():
        return _read(source, load_coefficients)
    known = ", ".join(preset_names())
    raise ValueError(
        f"{source!r} is neither a bundled preset nor an existing file; presets: {known}"
    )


def _cmd_features(args: argparse.Namespace) -> None:
    cloud = _read(args.cloud, _parse_cloud, args.normalize)
    _emit(features_to_csv(extract_features(cloud, **_feature_options(args))), args.output)


def _pair_corpus(cloud_dir: str, scores_dir: str):
    """(cloud path, score path) pairs, matched by a basename stem unique in each directory."""
    clouds, scores = {}, {}
    for directory, files in ((cloud_dir, clouds), (scores_dir, scores)):
        for path in sorted(Path(directory).iterdir()):
            if path.is_file() and files.setdefault(path.stem, path) != path:
                raise ValueError(f"{files[path.stem]} and {path} share the stem {path.stem!r}")
    if not clouds:
        raise ValueError(f"no cloud files found in {cloud_dir}")
    unmatched = sorted(set(clouds) ^ set(scores))
    if unmatched:
        raise ValueError(f"unmatched cloud/score basenames: {', '.join(unmatched)}")
    return [(clouds[stem], scores[stem]) for stem in sorted(clouds)]


def _featurize(pairs, args: argparse.Namespace) -> list:
    """Each (cloud, score) pair's top-N (x, y) block, in order; an error names the pair."""
    blocks = []
    for cloud_path, score_path in pairs:
        try:
            cloud = _read(cloud_path, _parse_cloud, args.normalize)
            z = normalize_scores(_read(score_path, parse_scores, cloud.n))
            feats = extract_features(cloud, **_feature_options(args))
            blocks.append(select_top_targets(z, feats, args.top_n))
        except ValueError as exc:
            raise ValueError(f"{cloud_path}, {score_path}: {exc}") from None
    return blocks


def _featurize_share(pairs, args: argparse.Namespace) -> list:
    """One process's share, its tree queries on one thread: every other share holds a CPU too."""
    _single_threaded.set(True)
    return _featurize(pairs, args)


def _featurize_corpus(pairs, args: argparse.Namespace) -> list:
    """Every pair's block in sorted order, over up to one process per usable CPU.

    The pairs split into contiguous shares. Forked processes work shares 2..w while this one
    works share 1 in a copied context, so the caller keeps threaded queries; then the blocks
    are joined in order. The first failing pair in sorted order raises at once, as in one process.
    """
    n = len(pairs)
    workers = min(_usable_cpus(), n // _MIN_CLOUDS_PER_PROCESS)
    # fork, not spawn: a spawned process would import numpy and scipy afresh
    # on every fit, and the shares run only numeric code.
    if workers <= 1 or not hasattr(os, "fork"):
        return _featurize(pairs, args)
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    shares = [pairs[i * n // workers : (i + 1) * n // workers] for i in range(workers)]
    before = set(multiprocessing.active_children())
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            children = pool.map(_featurize_share, shares[1:], repeat(args))
            own = contextvars.copy_context().run(_featurize_share, shares[0], args)
            return list(chain(own, *children))
        except BaseException as exc:  # leaving the pool would wait for every running share
            for child in set(multiprocessing.active_children()) - before:
                child.terminate()
            if isinstance(exc, BrokenProcessPool):  # a RuntimeError; main reports an OSError
                raise ChildProcessError(
                    "a forked share of the corpus ended without its result"
                ) from exc
            raise


def _cmd_fit(args: argparse.Namespace) -> None:
    _check_alpha(args.alpha)
    pairs = _pair_corpus(args.cloud_dir, args.scores_dir)
    xs, ys = zip(*_featurize_corpus(pairs, args))
    fit = fit_mlr(np.concatenate(xs), np.concatenate(ys), alpha=args.alpha)
    provenance = (
        f"fitted: {len(pairs)} clouds, per-cloud min-max score normalization, "
        f"top-{args.top_n} pooling, alpha={args.alpha:g}"
    )
    coefficients = write_coefficients(fit.to_coefficient_set(provenance))
    _emit(coefficients, args.output, f"{provenance}\n{fit_report(fit)}")


def _attack_report(result: AttackResult, provenance: str) -> str:
    lines = [
        f"N = {result.n_dropped}",
        f"coefficients = {provenance}",
        f"retained points = {result.retained_cloud.n}",
    ]
    if result.scores is not None:
        lines.append("dropped index, predicted score")
        vals = result.scores.values
        lines.extend(f"{i}, {format_number(vals[i])}" for i in result.dropped_indices)
    else:
        lines.append("dropped index")
        lines.extend(str(i) for i in result.dropped_indices)
    return "\n".join(lines) + "\n"


def _cmd_attack(args: argparse.Namespace) -> None:
    cloud = _read(args.cloud, _parse_cloud, args.normalize)
    if args.random:
        result = random_drop(cloud, args.top_n, args.seed)
        provenance = f"none (random baseline, seed {args.seed})"
    else:
        coeffs = _resolve_coefficients(args.preset)
        result = drop_attack(cloud, coeffs, args.top_n, **_feature_options(args))
        provenance = coeffs.provenance
    _emit(write_xyz(result.retained_cloud), args.output, _attack_report(result, provenance))


def _cmd_overlap(args: argparse.Namespace) -> None:
    a, b = args.scores_a, args.scores_b
    scores_a, scores_b = _read(a, parse_scores), _read(b, parse_scores)
    if scores_a.n != scores_b.n:
        raise ValueError(f"score files differ in length: {a} {scores_a.n}, {b} {scores_b.n}")
    lines = ["N,overlap_percent"]
    for n_top in args.top_n:
        pct = overlap(rank_top_n(scores_a, n_top), rank_top_n(scores_b, n_top))
        lines.append(f"{n_top},{pct:.12g}")
    _emit("\n".join(lines) + "\n", args.output)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pointdrop",
        description="Graph-signal point features, saliency regression, and drop-N attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_opts = argparse.ArgumentParser(add_help=False)
    graph_opts.add_argument(
        "--k", type=_at_least(1), default=10, help="neighbors per point (default 10)"
    )
    graph_opts.add_argument(
        "--sigma",
        type=_sigma_value,
        help="Gaussian kernel width, or 'auto' for mean edge length (default auto)",
    )
    graph_opts.add_argument(
        "--gamma", type=_positive, default=0.5, help="low-pass regularization weight (default 0.5)"
    )
    graph_opts.add_argument(
        "--ball-radius", type=_positive, default=0.1, help="counting-ball radius (default 0.1)"
    )
    graph_opts.add_argument(
        "--normalize", action="store_true", help="center the cloud and scale it to max norm 1 first"
    )

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument("--output", help="write the primary result here instead of stdout")

    p = sub.add_parser(
        "features", parents=[graph_opts, out_opts], help="extract the 14-feature CSV"
    )
    p.add_argument("cloud", help="xyz cloud file")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser(
        "fit", parents=[graph_opts, out_opts], help="fit the score model on a cloud/score corpus"
    )
    p.add_argument("cloud_dir", help="directory of xyz cloud files")
    p.add_argument("scores_dir", help="directory of score files matched by basename")
    p.add_argument(
        "--top-n", type=_at_least(1), default=100, help="top points pooled per cloud (default 100)"
    )
    p.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "attack", parents=[graph_opts, out_opts], help="drop the top-N predicted points"
    )
    p.add_argument("cloud", help="xyz cloud file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--preset", help="bundled coefficient preset name or a coefficient JSON file path"
    )
    source.add_argument(
        "--random", action="store_true", help="drop uniformly random points instead of predicted"
    )
    p.add_argument("--top-n", type=_at_least(0), default=100, help="points to drop (default 100)")
    p.add_argument("--seed", type=int, default=0, help="random-drop seed (default 0)")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser(
        "overlap", parents=[out_opts], help="top-N overlap between two score files"
    )
    p.add_argument("scores_a", help="first score file")
    p.add_argument("scores_b", help="second score file")
    p.add_argument(
        "--top-n",
        type=_at_least(1, many=True),
        default="50,100,150,200",
        help="comma-separated N values (default 50,100,150,200)",
    )
    p.set_defaults(func=_cmd_overlap)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
