"""Exhibit registry round-trip: every id listable, spec-complete, unique."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.report.spec import (
    DEFAULT_FORMATS,
    KINDS,
    ExhibitData,
    ExhibitSpec,
    all_exhibits,
    exhibit_ids,
    get_exhibit,
    register_exhibit,
    resolve_exhibits,
)
from repro.sim.system import ScaledRun


class TestRegistryRoundTrip:
    def test_every_id_listable_unique_and_resolvable(self):
        ids = exhibit_ids()
        assert len(ids) == len(set(ids))
        assert len(ids) >= 14
        for exhibit_id in ids:
            assert get_exhibit(exhibit_id).id == exhibit_id

    def test_expected_exhibits_present(self):
        assert set(exhibit_ids()) >= {
            "fig1", "fig2", "fig3", "fig7", "fig8", "fig9", "fig10",
            "fig11", "fig12", "fig13", "fig14", "table1", "table3",
            "related-work", "personas", "functional", "device",
        }

    def test_every_spec_is_complete_and_manifest_ready(self):
        for spec in all_exhibits():
            described = spec.describe()
            assert described["id"] == spec.id
            assert described["title"]
            assert described["paper_anchor"]
            assert described["kind"] in KINDS
            assert described["paper_note"]
            assert set(described["formats"]) <= set(DEFAULT_FORMATS)
            assert described["diff_rtol"] > 0
            json.dumps(described)  # no callables or exotic types

    def test_duplicate_id_rejected_without_clobbering(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            @register_exhibit(
                "fig7", title="imposter", paper_anchor="Fig. 7", kind="figure"
            )
            def _imposter(run):
                raise AssertionError("never built")

        assert get_exhibit("fig7").title != "imposter"

    def test_unknown_exhibit_names_the_choices(self):
        with pytest.raises(ConfigurationError, match="choose from"):
            get_exhibit("fig99")

    def test_resolve_preserves_order_and_dedups(self):
        specs = resolve_exhibits("fig10, fig7,fig10")
        assert [spec.id for spec in specs] == ["fig10", "fig7"]

    def test_resolve_none_or_empty_means_all(self):
        everything = [spec.id for spec in all_exhibits()]
        assert [s.id for s in resolve_exhibits(None)] == everything
        assert [s.id for s in resolve_exhibits("")] == everything

    def test_resolve_rejects_unknown_ids(self):
        with pytest.raises(ConfigurationError, match="unknown exhibits"):
            resolve_exhibits("fig7,bogus")

    def test_analytic_builder_round_trips(self):
        data = get_exhibit("table1").build(ScaledRun(instructions=10_000))
        assert data.exhibit_id == "table1"
        assert data.columns[0] == "ecc_t"
        assert data.rows


class TestSpecValidation:
    def _spec(self, **overrides):
        fields = dict(
            id="x-test",
            title="t",
            paper_anchor="a",
            kind="figure",
            builder=lambda run, **p: ExhibitData("x-test", ("k",), ((1,),)),
        )
        fields.update(overrides)
        return ExhibitSpec(**fields)

    def test_bad_ids_rejected(self):
        for bad in ("", "has space", "has,comma"):
            with pytest.raises(ConfigurationError):
                self._spec(id=bad)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            self._spec(kind="poster")

    def test_bad_formats_rejected(self):
        with pytest.raises(ConfigurationError):
            self._spec(formats=("csv", "pdf"))
        with pytest.raises(ConfigurationError):
            self._spec(formats=())

    def test_negative_rtol_rejected(self):
        with pytest.raises(ConfigurationError, match="diff_rtol"):
            self._spec(diff_rtol=-1e-9)

    def test_mislabeled_builder_output_rejected(self):
        spec = self._spec(
            builder=lambda run, **p: ExhibitData("wrong-id", ("k",), ((1,),))
        )
        with pytest.raises(ConfigurationError, match="labeled"):
            spec.build()

    def test_build_merges_params_with_overrides(self):
        seen = {}

        def builder(run, a=0, b=0):
            seen.update(a=a, b=b)
            return ExhibitData("x-test", ("k",), ((1,),))

        spec = self._spec(builder=builder, params={"a": 1, "b": 2})
        spec.build(b=7)
        assert seen == {"a": 1, "b": 7}


class TestExhibitData:
    DATA = ExhibitData(
        "x-test",
        ("scheme", "value", "ok"),
        (("mecc", 1.5, True), ("secded", 2.5, False)),
    )

    def test_lookups(self):
        assert self.DATA.row_keys() == ["mecc", "secded"]
        assert self.DATA.cell("mecc", "value") == 1.5
        assert self.DATA.row("secded") == {
            "scheme": "secded", "value": 2.5, "ok": False,
        }
        assert self.DATA.column("value") == [1.5, 2.5]

    def test_tuple_key_matches_leading_cells(self):
        data = ExhibitData(
            "x-test",
            ("metric", "scheme", "value"),
            (("rate", "a", 1.0), ("rate", "b", 2.0), ("lines", "b", 3.0)),
        )
        assert data.cell("rate", "value") == 1.0
        assert data.cell(("rate", "b"), "value") == 2.0
        assert data.cell(("lines", "b", 3.0), "value") == 3.0
        with pytest.raises(ConfigurationError, match="'lines', 'a'"):
            data.row(("lines", "a"))

    def test_unknown_row_and_column_name_the_exhibit(self):
        with pytest.raises(ConfigurationError, match="x-test"):
            self.DATA.row("bogus")
        with pytest.raises(ConfigurationError, match="columns"):
            self.DATA.column("bogus")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="cells"):
            ExhibitData("x-test", ("a", "b"), ((1,),))

    def test_non_scalar_cells_rejected(self):
        with pytest.raises(ConfigurationError, match="non-scalar"):
            ExhibitData("x-test", ("a",), (([1, 2],),))

    def test_as_dict_is_json_native(self):
        payload = self.DATA.as_dict()
        json.dumps(payload)
        assert payload["exhibit"] == "x-test"
        assert payload["columns"] == ["scheme", "value", "ok"]
        assert payload["rows"][0] == ["mecc", 1.5, True]
