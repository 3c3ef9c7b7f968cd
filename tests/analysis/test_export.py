"""CSV export of exhibit data (for external plotting).

CSV comes from the report registry: ``render_csv`` over an exhibit's
built data, and ``repro report --format csv`` for files on disk.
"""

import csv
import io

import pytest

from repro.errors import ConfigurationError
from repro.report.pipeline import ReportPipeline
from repro.report.render import render_csv
from repro.report.spec import get_exhibit
from repro.sim.system import ScaledRun

RUN = ScaledRun(instructions=25_000)


def exhibit_csv(name: str) -> str:
    return render_csv(get_exhibit(name).build(RUN))


class TestCsv:
    def test_table1_csv_parses(self):
        text = exhibit_csv("table1")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 7
        assert rows[6]["ecc_t"] == "6"
        assert float(rows[6]["system_failure"]) < 1e-8

    def test_fig2_csv(self):
        text = exhibit_csv("fig2")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) > 20
        assert float(rows[0]["bit_failure_probability"]) < float(
            rows[-1]["bit_failure_probability"]
        )

    def test_fig7_csv(self):
        from repro.analysis.experiments import clear_caches

        clear_caches()
        text = exhibit_csv("fig7")
        rows = list(csv.DictReader(io.StringIO(text)))
        # 28 benchmarks + 3 per-class geomeans + the ALL geomean.
        assert len(rows) == 32
        assert rows[-1]["benchmark"] == "ALL"
        for row in rows:
            assert 0.5 < float(row["mecc"]) <= 1.01

    def test_unknown_exhibit(self):
        with pytest.raises(ConfigurationError):
            exhibit_csv("fig99")

    def test_export_to_file(self, tmp_path):
        tree = ReportPipeline(
            out_dir=tmp_path, run_id="t1", formats="csv", run=RUN
        ).generate("table1")
        assert (tree / "table1.csv").read_text().startswith("ecc_t,")

    def test_export_all(self, tmp_path):
        names = ("table1", "fig2", "fig8")
        tree = ReportPipeline(
            out_dir=tmp_path, run_id="all", formats="csv", run=RUN
        ).generate(",".join(names))
        for name in names:
            with open(tree / f"{name}.csv") as stream:
                assert stream.readline().strip()
