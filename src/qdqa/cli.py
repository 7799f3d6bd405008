"""Command-line entry point: validation, evaluation, training, ablation,
gradient checking, and question decomposition."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import decompose as dc, metrics, qdg
from .qdg import QdgError
from .synth import ConfigError


def _set_workers(tr) -> None:
    threads = click.get_current_context().obj["threads"]
    if threads is not None:
        tr.WORKERS = threads


def _fail(error: Exception, **extra):
    """Machine-readable data-error JSON on stderr, exit 1."""
    payload = {"error": type(error).__name__, "message": str(error)}
    payload.update(extra)
    click.echo(json.dumps(payload), err=True)
    sys.exit(1)


@click.group()
@click.option("--threads", type=click.IntRange(min=1),
              help="Threads that train and ablate run evaluation's clip "
                   "blocks on; outputs do not depend on it.  [default: "
                   "CPUs available to this process]  BLAS threads follow "
                   "OPENBLAS_NUM_THREADS / OMP_NUM_THREADS.")
@click.pass_context
def main(ctx, threads):
    """Decomposition-graph VidQA toolkit."""
    ctx.obj = {"threads": threads}


def _write(path: str, text: str):
    """Write `text` to `path`; an OSError (a missing directory, a path
    through a file) exits 1 with its message, which names the path."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _fail(exc)


def _load(loader, path: str):
    """`loader` on the lines of `path`, read one at a time and split at
    "\\n" only; its line errors name the file."""
    with open(path, newline="\n") as lines:
        try:
            return loader(lines)
        except ValueError as exc:  # json's own errors are ValueErrors too
            if not isinstance(exc, QdgError):
                exc.args = (f"{path}: {exc}",)
            raise


@main.command()
@click.argument("graphs", type=click.Path(exists=True, dir_okay=False))
def validate(graphs):
    """Parse and validate a JSONL file of decomposition graphs."""
    try:
        parsed = _load(qdg.load_jsonl, graphs)
    except QdgError as exc:
        _fail(exc, graph_id=getattr(exc, "graph_id", None))
    except (json.JSONDecodeError, ValueError) as exc:
        _fail(exc)
    click.echo(json.dumps({"status": "ok", "graphs": len(parsed)}))


def _apply_gold(graph, gold_map):
    doc = qdg.to_dict(graph)
    for node in doc["nodes"]:
        if node["id"] in gold_map:
            node["answer"] = gold_map[node["id"]]
    return qdg.from_dict(doc)


def _check_ids_unique(graph_list) -> dict:
    """Metrics key answers by node id, so two graphs sharing an id would
    share one prediction and one gold answer.  Returns node id -> index of
    its graph in graph_list."""
    owner = {}
    for i, g in enumerate(graph_list):
        for node in g.nodes:
            first = owner.setdefault(node.id, i)
            if first != i:
                raise QdgError(
                    f"node id {node.id!r} appears in graphs "
                    f"{graph_list[first].graph_id!r} and {g.graph_id!r}",
                    g.graph_id,
                )
    return owner


def _check_ids_known(owner: dict, answers: dict, path: str):
    """An answer whose id names no node would be silently ignored."""
    if not answers.keys() <= owner.keys():
        unknown = next(nid for nid in answers if nid not in owner)
        raise ValueError(
            f"{path}: id {unknown!r} names no node of --graphs"
        )


@main.command("eval")
@click.option("--graphs", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--gold", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--pred", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def eval_cmd(graphs, gold, pred, beta, out):
    """Consistency metrics for predictions against gold answers."""
    try:
        graph_list = _load(qdg.load_jsonl, graphs)
        owner = _check_ids_unique(graph_list)
        gold_map = _load(metrics.load_predictions_jsonl, gold)
        _check_ids_known(owner, gold_map, gold)
        predictions = _load(metrics.load_predictions_jsonl, pred)
        _check_ids_known(owner, predictions, pred)
        # in place, so each parsed graph is freed as its copy replaces it
        for i, g in enumerate(graph_list):
            graph_list[i] = _apply_gold(g, gold_map)
        report = metrics.full_report(graph_list, predictions, beta)
    except (QdgError, KeyError, ValueError, json.JSONDecodeError) as exc:
        _fail(exc)
    _write(out, metrics.emit_report(report))
    click.echo(json.dumps({"status": "ok", "out": out}))


@main.command("train")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False))
def train_cmd(config_path, out_dir):
    """Train the joint model; writes report, epoch CSV, and checkpoint."""
    from . import train as tr

    _set_workers(tr)
    try:
        cfg = tr.RunConfig.from_json(Path(config_path).read_text())
        report, _ = tr.train(cfg, out_dir=out_dir)
    except (ConfigError, tr.NonFiniteLossError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        _fail(exc, dump=getattr(exc, "dump", None))
    click.echo(json.dumps({
        "status": "ok", "out": out_dir, "best_step": report.best_step,
        "val_c_f": report.best_validation["val_c_f"],
    }))


@main.command("ablate")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def ablate_cmd(config_path, out):
    """Train every component-flag variant and tabulate the metrics."""
    from . import train as tr

    _set_workers(tr)
    try:
        cfg = tr.RunConfig.from_json(Path(config_path).read_text())
        if not Path(out).parent.is_dir():  # before training, not after
            raise FileNotFoundError(
                f"--out {out}: its directory does not exist")
        table = tr.ablate(cfg)
    except (ConfigError, tr.NonFiniteLossError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        _fail(exc)
    _write(out, tr.ablation_csv(table))
    click.echo(json.dumps({"status": "ok", "out": out, "rows": list(table)}))


@main.command()
@click.option("--module", default="all", show_default=True,
              type=click.Choice(["all", "autodiff", "aligner", "aggregator",
                                 "train"]))
@click.option("--instances", type=click.IntRange(min=1), default=3,
              show_default=True)
def gradcheck(module, instances):
    """Finite-difference checks over the composite operations."""
    from . import verify

    results = verify.run_suite(module, instances)
    ok = all(err < verify.TOLERANCE for err in results.values())
    click.echo(json.dumps({
        "status": "ok" if ok else "fail",
        "tolerance": verify.TOLERANCE,
        "max_errors": results,
    }, indent=2))
    if not ok:
        sys.exit(1)


@main.command("decompose")
@click.option("--bank", type=click.Path(exists=True, dir_okay=False),
              help="Exemplar bank JSON; defaults to the built-in demo bank.")
@click.option("--questions", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="One question per line.")
@click.option("--k", type=click.IntRange(min=1), default=3,
              show_default=True)
@click.option("--stub", type=click.Path(exists=True, dir_okay=False),
              help="Deterministic completion fixture instead of the HTTP "
                   "endpoint (QDQA_LLM_ENDPOINT / QDQA_LLM_API_KEY).")
@click.option("--out", type=click.Path(dir_okay=False),
              help="Write graphs JSONL here instead of stdout.")
def decompose_cmd(bank, questions, k, stub, out):
    """Decompose questions into validated graphs via a completion model."""
    try:
        bank_obj = (dc.ExampleBank.from_json(Path(bank).read_text())
                    if bank else dc.demo_bank())
        client = (dc.StubClient.from_fixture(stub) if stub
                  else dc.HttpCompletionClient())
        lines = Path(questions).read_text().splitlines()
        question_list = [q.strip() for q in lines if q.strip()]
        report = dc.extend_dataset(question_list, bank_obj, k, client)
    except (QdgError, dc.DecompositionError, ValueError,
            json.JSONDecodeError) as exc:
        _fail(exc)
    if out:
        _write(out, report.to_jsonl())
    else:
        click.echo(report.to_jsonl(), nl=False)
    click.echo(json.dumps(report.failure_report()), err=True)
    if report.failures and not report.graphs:
        sys.exit(1)


if __name__ == "__main__":
    main()
