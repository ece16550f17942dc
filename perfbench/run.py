"""Benchmark of the BOND k-NN reproduction: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload corel-exact --seed 1 --seconds 25 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` runs the traced variant and
prints the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer
is reported as ``"correct": false`` with exit code 1.  Spans and a run
record (hardware fingerprint, sample counts, per-mode medians, per-layer
self times) are written to ``.bench_out/``.

The program is imported from ``src/``; without it the benchmark exits with
code 2 before measuring anything.  ``perfbench/steadiness.py`` repeats runs
over seeds and records their spread.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("corel-exact", "clustered-modes", "live-updates")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source.name}/repro; nothing to measure", file=sys.stderr)
        return 2
    # Leave no bytecode caches behind, in this process or its shard workers.
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(source))
    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        import harness
        import selftest
        import workloads

        selftest.run()
        run = workloads.Run(
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scratch=scratch,
            roof=harness.roofline(),
        )
        run.record["fingerprint"] = harness.fingerprint(scratch)
        run.record["roofline"] = run.roof
        correct = True
        try:
            workloads.WORKLOADS[args.workload](run)
        except harness.WrongAnswer as exc:
            print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
            correct = False
    finally:
        if "harness" in sys.modules:
            sys.modules["harness"].stop_child_processes()
        shutil.rmtree(scratch, ignore_errors=True)

    out = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.trace:
        run.tracer.write(out / f"{stem}.spans.jsonl")
    measured = run.layers if run.trace else run.metrics
    metrics = {}
    if correct:
        for entry in declared_metrics(run.trace):
            metrics[entry["name"]] = {"value": float(measured[entry["name"]]), "unit": entry["unit"]}
    out.mkdir(exist_ok=True)
    (out / f"{stem}.record.json").write_text(
        json.dumps({"record": run.record, "measured": measured}, indent=1, default=str), encoding="utf-8"
    )
    print(json.dumps(run.record["fingerprint"]), file=sys.stderr)
    print(
        json.dumps(
            {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
