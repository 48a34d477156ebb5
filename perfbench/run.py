"""gradcomm benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload {pipeline,train_sim,probe_loopback} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``.  ``--trace 0`` reports the end-to-end metrics listed in
BENCHMARK.json, measured with no wrappers installed; ``--trace 1`` reports the
per-layer metrics from a separate traced run.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
outputs and the recorded spans go to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "train_sim", "probe_loopback"))
    parser.add_argument("--seed", type=int, required=True, help="workload input seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat sessions (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_gradcomm():
    """Put the checkout's src/ first on sys.path and import gradcomm from it."""
    if not (SRC / "gradcomm" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradcomm package under {SRC}; "
                         "run from a gradcomm source checkout")
    sys.path.insert(0, str(SRC))
    import gradcomm

    if SRC not in Path(gradcomm.__file__).resolve().parents:
        raise SystemExit(f"error: imported gradcomm from {gradcomm.__file__}, not {SRC}")
    return gradcomm


def machine_info() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} {platform.system()}-{platform.machine()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "notes.json").read_text())
    import_gradcomm()
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC, WORK)
    tally = result["tally"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(result["metrics"]):
        missing = sorted(set(declared) ^ set(result["metrics"]))
        raise SystemExit(f"error: computed metrics differ from BENCHMARK.json: {missing}")

    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} sessions={result['sessions']}"
          + (f"+{result['traced_sessions']} traced" if args.trace else ""))
    print(f"machine: {machine_info()}; network: {notes['network']}")
    print(f"why: {why}")
    for name, (value, unit) in result["report"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {tally.failed / max(tally.attempted, 1):g} ratio "
          f"({tally.failed} of {tally.attempted} checks failed)")
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    for row in notes["interaction_map"]:
        if args.workload in row["on"]:
            print(f"  map: {row['layer']} -> {row['moves']}; "
                  f"predicted no change on {row['no_change_on']}")
    if args.trace:
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans_{args.workload}.npz"
        result["tracer"].save(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
