"""Command-line surface. Each subcommand reads and writes the documented
file formats so the stages can be scripted independently; ``pipeline`` runs
them end to end in one process. The stage subcommands call the same stage
functions as ``pipeline``.

Exit codes: 0 success, 2 bad config, 3 data error, 4 solver non-convergence.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict

import click
import numpy as np

from . import corrclust
from .baselines import SpectralConfig, kmeans, spectral
from .core import (SampleSet, parse_lines, read_lines, report_json, score,
                   validate_partition, write_lines)
from .datagen import (SYNTHETIC_KINDS, SyntheticSpec, gen_synthetic, load_csv,
                      load_labeled_pairs, save_csv, save_labeled_pairs)
from .density import build_signed_graph, read_graph_tsv, write_graph_tsv
from .edge_features import (SIMILARITY_ALIASES, all_pairs, build_edge_features,
                            edge_vectors, sample_pairs)
from .errors import ConfigError, DataError, EdgeclustError, SolverError
from .pipeline import (ALGORITHMS, RunConfig, cluster_graph, fit_model,
                       load_model, run_pipeline, save_model)
from .plotting import render_svg

_KINDS = click.Choice(SYNTHETIC_KINDS)
_SIMILARITIES = click.Choice(list(SIMILARITY_ALIASES))
_ALGORITHMS = click.Choice(ALGORITHMS)
_SEED = click.IntRange(min=0)


def _parse_pca(value):
    """--pca as a variance target; RunConfig and pca_fit check its range."""
    if value is None or value == "off":
        return None
    try:
        return float(value)
    except ValueError:
        raise ConfigError("--pca expects a float in (0,1] or 'off'") from None


def _emit(report: dict, out):
    """Write a report's JSON plus a newline to the file ``out``, or echo
    it."""
    text = report_json(report)
    if out:
        write_lines(out, [text])
    else:
        click.echo(text)


def _read_labels(path):
    return parse_lines(path, read_lines(path, ","), (np.int64,))[0]


@click.group(context_settings={"show_default": True})
def cli():
    """Edge-feature structured clustering toolkit."""


@cli.command()
@click.option("--kind", type=_KINDS, required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=None)
@click.option("--noise", type=float, default=RunConfig.noise)
@click.option("--seed", type=_SEED, required=True)
@click.option("--out", type=click.Path(), required=True)
def gen(kind, n, k, noise, seed, out):
    """Generate a labeled synthetic dataset as CSV."""
    spec = SyntheticSpec(kind=kind, n=n, k=k, noise=noise)
    save_csv(gen_synthetic(spec, np.random.default_rng(seed)), out)


@cli.command()
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--pairs", "m", type=click.IntRange(min=1), default=RunConfig.pairs)
@click.option("--seed", type=_SEED, required=True)
@click.option("--out", type=click.Path(), required=True)
def pairs(data, m, seed, out):
    """Sample labeled training pairs (i,j,same) from a labeled CSV."""
    s = load_csv(data, has_labels=True)
    idx, same = sample_pairs(s, m, np.random.default_rng(seed))
    save_labeled_pairs(idx, same, out)


@cli.command()
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--pairs-file", type=click.Path(exists=True), required=True)
@click.option("--similarity", type=_SIMILARITIES, default="absdiff")
@click.option("--pca", default="off", help="variance target in (0,1], or 'off'")
@click.option("--out", type=click.Path(), required=True)
def fit(data, pairs_file, similarity, pca, out):
    """Fit the P1/P0 kernel density models from labeled pairs."""
    target = _parse_pca(pca)
    s = load_csv(data, has_labels=True)
    idx, same = load_labeled_pairs(pairs_file)
    vecs = edge_vectors(s.features, idx, similarity)
    save_model(fit_model(vecs, same, similarity, target), out)


@cli.command()
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--model", type=click.Path(exists=True), required=True)
@click.option("--sparsify", type=float, default=RunConfig.sparsify)
@click.option("--has-labels/--no-labels", default=True)
@click.option("--out", type=click.Path(), required=True)
def graph(data, model, sparsify, has_labels, out):
    """Build the signed log-odds graph over every pair of samples in DATA."""
    s = load_csv(data, has_labels=has_labels)
    m = load_model(model)
    feats = m.project(build_edge_features(s, all_pairs(s.n), m.similarity))
    g = build_signed_graph(feats, m.p1, m.p0, sparsify_below=sparsify, n=s.n)
    write_graph_tsv(g, out)


@cli.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--algo", type=_ALGORITHMS, default=RunConfig.algo)
@click.option("--seed", type=_SEED, default=0)
@click.option("--n", type=int, default=None, help="node count override")
@click.option("--out", type=click.Path(), required=True)
@click.option("--certificate", type=click.Path(), default=None)
def cluster(graph_path, algo, seed, n, out, certificate):
    """Cluster a signed graph and write one label per node, and optionally
    the certificate of those labels (the one ``certify`` gives)."""
    g = read_graph_tsv(graph_path, n=n)
    part, cert = cluster_graph(g, algo, np.random.default_rng(seed))
    if certificate:
        if cert is None:
            cert = corrclust.certify(g, part)
        _emit(asdict(cert), certificate)
    write_lines(out, map(str, part.labels))


@cli.command()
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--method", type=click.Choice(["kmeans", "spectral"]), required=True)
@click.option("--k", type=int, required=True)
@click.option("--knn", type=int, default=RunConfig.knn)
@click.option("--seed", type=_SEED, required=True)
@click.option("--out", type=click.Path(), required=True)
def baseline(data, method, k, knn, seed, out):
    """Run a baseline clustering on the node features of DATA."""
    s = load_csv(data, has_labels=True)
    rng = np.random.default_rng(seed)
    if method == "kmeans":
        part = kmeans(s, k, rng)
    else:
        part = spectral(s, SpectralConfig(k=k, knn=knn), rng)
    write_lines(out, map(str, part.labels))


@cli.command("eval")
@click.option("--pred", type=click.Path(exists=True), required=True)
@click.option("--truth", type=click.Path(exists=True), required=True,
              help="labels file or labeled CSV")
@click.option("--out", type=click.Path(), default=None)
def eval_cmd(pred, truth, out):
    """Score predicted labels against ground truth."""
    predicted = validate_partition(_read_labels(pred))
    if truth.endswith(".csv"):
        truth_labels = load_csv(truth, has_labels=True).labels
    else:
        truth_labels = _read_labels(truth)
    report = score(predicted, validate_partition(truth_labels))
    _emit(asdict(report), out)


@cli.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--labels", type=click.Path(exists=True), required=True)
@click.option("--n", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def certify(graph_path, labels, n, out):
    """LP lower bound and disagreement cost of a given labeling."""
    g = read_graph_tsv(graph_path, n=n)
    part = validate_partition(_read_labels(labels))
    _emit(asdict(corrclust.certify(g, part)), out)


@cli.command()
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--labels", type=click.Path(exists=True), default=None,
              help="labels file; defaults to the CSV's own labels")
@click.option("--has-labels/--no-labels", default=True)
@click.option("--out", type=click.Path(), required=True)
def plot(data, labels, has_labels, out):
    """Render a cluster scatter plot as a standalone SVG."""
    s = load_csv(data, has_labels=has_labels)
    if labels is None and not has_labels:
        raise ConfigError("--no-labels needs a --labels file")
    part = validate_partition(s.labels if labels is None
                              else _read_labels(labels))
    render_svg(SampleSet(features=s.features), part, out)


@cli.command()
@click.option("--kind", type=_KINDS, default=None)
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--edge-spec", type=click.Path(exists=True), default=None,
              help="JSON file with sizes, p1, p0 density descriptors")
@click.option("--seed", type=_SEED, required=True)
@click.option("--similarity", type=_SIMILARITIES, default="absdiff")
@click.option("--sparsify", type=float, default=RunConfig.sparsify)
@click.option("--pca", default="off")
@click.option("--algo", type=_ALGORITHMS, default=RunConfig.algo)
@click.option("--pairs", type=int, default=RunConfig.pairs)
@click.option("--holdout", type=int, default=RunConfig.holdout)
@click.option("--train-pool", type=int, default=RunConfig.train_pool)
@click.option("--k", type=int, default=None)
@click.option("--noise", type=float, default=RunConfig.noise)
@click.option("--baselines/--no-baselines", default=False)
@click.option("--knn", type=int, default=RunConfig.knn)
@click.option("--out", type=click.Path(), default=None)
def pipeline(kind, data, edge_spec, pca, out, **fields):
    """Run the full pipeline and emit a JSON report."""
    sources = [s for s in (kind, data, edge_spec) if s is not None]
    if len(sources) != 1:
        raise ConfigError("choose exactly one of --kind, --data, --edge-spec")
    edge_spec_dict = None
    if edge_spec is not None:
        with open(edge_spec, "r", encoding="utf-8") as fh:
            try:
                edge_spec_dict = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{edge_spec}: invalid JSON: {exc}") from None
        dataset = "edge_level"
    else:
        dataset = kind if kind is not None else data
    cfg = RunConfig(dataset=dataset, pca=_parse_pca(pca),
                    edge_spec=edge_spec_dict, **fields)
    _emit(run_pipeline(cfg).to_dict(), out)


def main():
    try:
        cli.main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.Abort:
        sys.exit(2)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except SolverError as exc:
        click.echo(f"solver error: {exc}", err=True)
        sys.exit(4)
    except (DataError, EdgeclustError, OSError, MemoryError) as exc:
        click.echo(f"data error: {str(exc) or 'out of memory'}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
