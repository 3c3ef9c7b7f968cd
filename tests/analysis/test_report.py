"""CLI contract of the ``report`` verb."""


class TestCliReport:
    def test_report_rejects_unknown_exhibit(self, capsys):
        from repro.cli import main

        # Unified CLI error contract: exit 2 + "choose from", no traceback.
        assert main(["report", "--exhibits", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("report: ")
        assert "choose from" in err
