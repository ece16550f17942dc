"""Shared configuration of the benchmark suite.

Every benchmark regenerates one table or figure of the paper through the
experiment harness in :mod:`repro.experiments`.  The default scale is the
"bench" scale below (small enough for the whole suite to run in minutes);
pass ``--repro-scale=paper`` to run at the published collection sizes and
``--repro-scale=small``/``medium`` for the intermediate presets.

The resulting tables are printed to the terminal (run pytest with ``-s`` to
see them) and also written to ``.bench_out/results/<experiment id>.txt`` at
the repository root.  That directory is not tracked: the tables carry
wall-clock timings that change on every run.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.base import ExperimentScale, resolve_scale

#: Default benchmark scale: small enough for CI, large enough to show the shapes.
BENCH_SCALE = ExperimentScale(
    name="bench", corel_cardinality=4_000, clustered_cardinality=4_000, num_queries=8
)

RESULTS_DIRECTORY = pathlib.Path(__file__).resolve().parent.parent / ".bench_out" / "results"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--repro-scale",
        action="store",
        default="bench",
        help="experiment scale: bench (default), small, medium or paper",
    )


@pytest.fixture(scope="session")
def experiment_scale(request: pytest.FixtureRequest) -> ExperimentScale:
    """The scale every benchmark runs its experiment at."""
    name = request.config.getoption("--repro-scale")
    if name == "bench":
        return BENCH_SCALE
    return resolve_scale(name)


@pytest.fixture(scope="session")
def record_report():
    """Persist a report to .bench_out/results/ and echo it to the terminal."""
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)

    def _record(report) -> None:
        text = report.format_table()
        print("\n" + text)
        (RESULTS_DIRECTORY / f"{report.experiment_id}.txt").write_text(text + "\n")

    return _record
