"""The benchmark's tracer (perfbench/spans.py) wraps package functions by name.

A refactor that renames or removes one of them breaks ``perfbench/run.py
--trace 1``; this test catches that without running the benchmark.
"""

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
