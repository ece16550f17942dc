"""Repeat the benchmark over seeds and record each metric's spread.

Run from the repository root::

    python3 perfbench/steadiness.py --sets proof:101-110,proof-repeat:201-210

Every run is ``perfbench/run.py`` in a fresh process with the declared
``run_seconds``.  For each set of seeds, workload and end-to-end metric the
script reports the median and the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound.
Each later set's median is compared with the first set's: the share by
which it is worse must stay within the bound, as a rerun of unchanged code
must.  The sets' runs alternate seed by seed, so a slow spell of the host
falls on both sets alike.  Before the sets, each workload runs once
traced.  Every run starts in a session of its own, and a process of that
session still alive after the run ends fails the script.  Results are
merged into ``perfbench/STEADINESS.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, (q3 - q1) / middle


def worsening(first: float, later: float, better: str) -> float:
    """The share by which ``later`` is worse than ``first`` (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def session_members(session: int) -> list[str]:
    """Command lines of the live processes in ``session`` (from ``/proc``)."""
    members = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            command = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session ...
        fields = stat.rpartition(")")[2].split()
        if int(fields[3]) == session:
            members.append(f"{entry.name} {fields[0]} {command.strip()}")
    return members


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=600)
    left = session_members(process.pid)
    if left:
        raise SystemExit(f"{workload} seed {seed} trace {trace} left processes running:\n" + "\n".join(left))
    if process.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{stderr[-3000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarise(spec: dict, runs: list[dict]) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        med, iqr = spread(values)
        summary[metric["name"]] = {
            "median": med,
            "iqr_over_median": iqr,
            "bound": metric["bound"],
            "within_third_of_bound": iqr <= metric["bound"] / 3,
            "values": values,
        }
    return summary


def flag(share: float, bound: float) -> str:
    if share <= bound / 3:
        return ""
    return "  <-- over bound/3" if share <= bound else "  <-- OVER BOUND"


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--sets", default="proof:101-110,proof-repeat:201-210",
                        help="LABEL:SEEDS[,LABEL:SEEDS...]; the first set is the reference")
    args = parser.parse_args()
    sets = [(label, seed_range(seeds)) for label, seeds in (item.split(":") for item in args.sets.split(","))]
    path = HERE / "STEADINESS.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    described = workloads.describe()
    record["workloads"] = {
        entry["name"]: {"why": entry["why"], **described[entry["name"]]} for entry in spec["workloads"]
    }
    record["write_probe"] = described["write_probe"]
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        run_once(workload, sets[0][1][0], spec["run_seconds"], trace=1)
        runs: dict[str, list[dict]] = {label: [] for label, _ in sets}
        for position in range(max(len(seeds) for _, seeds in sets)):
            for label, seeds in sets:
                if position < len(seeds):
                    runs[label].append(run_once(workload, seeds[position], spec["run_seconds"]))
        reference = None
        for label, seeds in sets:
            summary = summarise(spec, runs[label])
            for name, entry in summary.items():
                line = f"{label:13s} {workload:16s} {name:27s} median {entry['median']:11.5g}  "
                line += f"spread {entry['iqr_over_median']:7.4f}  bound {entry['bound']}"
                line += flag(entry["iqr_over_median"], entry["bound"])
                if reference is not None:
                    shift = worsening(reference[name]["median"], entry["median"], better[name])
                    entry["worse_than_first_set_by"] = shift
                    entry["shift_within_bound"] = shift <= entry["bound"]
                    line += f"  worse by {shift:+.4f}" + flag(max(shift, 0.0), entry["bound"])
                print(line)
            print(f"{label:13s} {workload:16s} wall seconds per run: {[round(run['wall_s'], 1) for run in runs[label]]}")
            record.setdefault(label, {})[workload] = {
                "seeds": seeds,
                "run_seconds": spec["run_seconds"],
                "wall_seconds": [run["wall_s"] for run in runs[label]],
                "metrics": summary,
            }
            reference = reference or summary
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
