"""The benchmark's tracer (perfbench/spans.py) wraps package functions by name.

A refactor that renames or removes one of them breaks ``perfbench/run.py
--trace 1``; this test catches that without running the benchmark.
"""

import ast
import inspect
from pathlib import Path

from gradcomm import adaptive, cli, estimator, netprobe, optimizer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

HOOKED = [
    (cli, "main"),
    (estimator, "read_samples_csv"),
    (estimator, "update"),
    (estimator, "advance"),
    (estimator, "fit"),
    (adaptive, "adaptive_controller"),
    (adaptive, "select_power"),
    (adaptive, "predicted_cost"),
    (optimizer, "run_compressed_gd"),
    (optimizer, "compress"),
    (optimizer, "decompress"),
    (optimizer, "sample_time"),
    (netprobe, "probe"),
]


def test_tracer_wraps_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = [getattr(module, attr) for module, attr in HOOKED]
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(module, attr) for module, attr in HOOKED]
    finally:
        tracer.uninstall()
    assert all(now is not before for now, before in zip(wrapped, originals))
    assert [getattr(module, attr) for module, attr in HOOKED] == originals


# The calls perfbench/workloads.py makes into the package: the callable, its
# number of positional arguments and the keyword names it passes.
WORKLOAD_CALLS = [
    (adaptive.adaptive_controller, 3, ["forgetting"]),
    (netprobe.probe, 3, ["reps", "warmup", "payload_seed"]),
    (netprobe.probe, 3, ["reps", "payload_seed"]),
    (optimizer.SimConfig, 0, ["steps", "time_model", "seed", "compressor"]),
    (optimizer.Problem.mean, 1, []),
    (optimizer.SimTrace.to_csv, 2, []),  # the trace and a text buffer
]


def test_workload_calls_bind_to_the_package_signatures():
    for func, positional, keywords in WORKLOAD_CALLS:
        inspect.signature(func).bind(*range(positional), **dict.fromkeys(keywords))


def test_every_unread_import_is_a_hook():
    # No linter runs on the package, so this stands in for its unused-import
    # check: a name a module imports but never reads is dead, unless it is
    # kept there for the tracer to patch.  __init__.py re-exports on purpose.
    hooked = {(module.__name__, attr) for module, attr in HOOKED}
    unread = set()
    for path in sorted(Path(optimizer.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread |= {(f"gradcomm.{path.stem}", name) for name in imported - read - {"annotations"}}
    assert unread <= hooked, sorted(unread - hooked)


def test_only_compression_names_the_batch_budgets():
    # compression.row_batches is the one rule that turns a value budget into
    # a row count, so no other module reads the budgets themselves.
    budgets = {"BATCH_VALUES", "NATURAL_BATCH_VALUES"}
    naming = []
    for path in sorted(Path(optimizer.__file__).parent.glob("*.py")):
        if path.name == "compression.py":
            continue
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
        naming += [(path.name, name) for name in sorted(names & budgets)]
    assert not naming


def test_only_optimizer_names_seed_sequence():
    # optimizer.stream_rng builds every seeded stream from the one table of
    # spawn keys, so no other module can reuse a stream's key for its own.
    naming = []
    for path in sorted(Path(optimizer.__file__).parent.glob("*.py")):
        if path.name == "optimizer.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None), getattr(node, "attr", None)]
            naming += [path.name] * names.count("SeedSequence")
    assert not naming
