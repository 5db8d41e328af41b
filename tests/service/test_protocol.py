"""Wire-schema validation: SweepRequest parsing and point resolution."""

import pytest

from repro.explore.space import DesignSpace
from repro.service.protocol import (
    ProtocolError,
    SweepRequest,
    SweepSummary,
    chunked,
    end_event,
    failure_event,
    record_event,
    start_event,
)


@pytest.fixture(scope="module")
def cavity_space():
    return DesignSpace.for_app("cavity")


class TestFromPayload:
    def test_minimal_payload(self):
        request = SweepRequest.from_payload({"app": "cavity"})
        assert request.app == "cavity"
        assert request.points is None
        assert request.batch_size is None

    def test_full_payload(self):
        request = SweepRequest.from_payload(
            {
                "app": "cavity",
                "variants": ["baseline"],
                "budget_fractions": [1.0, 0.9],
                "onchip_counts": [None, 6],
                "libraries": ["default"],
                "batch_size": 8,
            }
        )
        assert request.variants == ["baseline"]
        assert request.budget_fractions == [1.0, 0.9]
        assert request.onchip_counts == [None, 6]
        assert request.batch_size == 8

    def test_explicit_points(self):
        request = SweepRequest.from_payload(
            {
                "app": "cavity",
                "points": [
                    {"variant": "baseline", "budget_fraction": 1.0},
                    {"variant": "baseline", "n_onchip": 6},
                ],
            }
        )
        assert len(request.points) == 2
        assert request.points[1].n_onchip == 6

    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {},
            {"app": ""},
            {"app": 7},
            {"app": "cavity", "points": []},
            {"app": "cavity", "points": ["nope"]},
            {"app": "cavity", "points": [{"no_variant": 1}]},
            {"app": "cavity", "variants": "baseline"},
            {"app": "cavity", "variants": []},
            {"app": "cavity", "budget_fractions": ["1.0"]},
            {"app": "cavity", "onchip_counts": [1.5]},
            {"app": "cavity", "onchip_counts": [True]},
            {"app": "cavity", "batch_size": 0},
            {"app": "cavity", "batch_size": True},
            {"app": "cavity", "batch_size": "big"},
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            SweepRequest.from_payload(payload)
        assert excinfo.value.status == 400

    def test_error_payload_shape(self):
        error = ProtocolError("too big", status=413, code="over_budget")
        payload = error.to_payload()
        assert payload == {"error": {"code": "over_budget", "message": "too big"}}


class TestResolvePoints:
    def test_default_space(self, cavity_space):
        request = SweepRequest.from_payload({"app": "cavity"})
        assert len(request.resolve_points(cavity_space)) == 20

    def test_axis_restriction(self, cavity_space):
        request = SweepRequest.from_payload(
            {"app": "cavity", "variants": ["baseline"], "onchip_counts": [None]}
        )
        points = request.resolve_points(cavity_space)
        assert {p.variant for p in points} == {"baseline"}
        assert {p.n_onchip for p in points} == {None}

    def test_explicit_points_validated(self, cavity_space):
        request = SweepRequest.from_payload(
            {"app": "cavity", "points": [{"variant": "baseline"}]}
        )
        points = request.resolve_points(cavity_space)
        assert len(points) == 1
        assert points[0].variant == "baseline"

    def test_unknown_variant_axis(self, cavity_space):
        request = SweepRequest.from_payload(
            {"app": "cavity", "variants": ["no-such-variant"]}
        )
        with pytest.raises(ProtocolError) as excinfo:
            request.resolve_points(cavity_space)
        assert excinfo.value.code == "unknown_axis"

    def test_unknown_explicit_point(self, cavity_space):
        request = SweepRequest.from_payload(
            {"app": "cavity", "points": [{"variant": "no-such-variant"}]}
        )
        with pytest.raises(ProtocolError) as excinfo:
            request.resolve_points(cavity_space)
        assert excinfo.value.code == "unknown_axis"

    def test_point_valueerror_maps_to_400(self, cavity_space):
        # Non-KeyError validation failures (malformed axis values,
        # variant/library resolution errors) are still the client's
        # fault: a 400 ProtocolError, never a 500.
        request = SweepRequest.from_payload(
            {"app": "cavity", "points": [{"variant": "baseline"}]}
        )

        class VetoSpace:
            libraries = cavity_space.libraries

            def point(self, *args, **kwargs):
                raise ValueError("budget_fraction out of range")

        with pytest.raises(ProtocolError) as excinfo:
            request.resolve_points(VetoSpace())
        assert excinfo.value.status == 400
        assert "budget_fraction" in str(excinfo.value)

    def test_axis_product_valueerror_maps_to_400(self, cavity_space):
        request = SweepRequest.from_payload({"app": "cavity"})

        class VetoSpace:
            variant_names = cavity_space.variant_names
            libraries = cavity_space.libraries

            def points(self, **kwargs):
                raise ValueError("axes out of range")

        with pytest.raises(ProtocolError) as excinfo:
            request.resolve_points(VetoSpace())
        assert excinfo.value.status == 400

    def test_omitted_library_resolves_to_app_axis(self):
        # motion's libraries carry real names ("frames on-chip"); a
        # point payload that never mentions a library must resolve to
        # the app's first axis entry, not the literal "default".
        space = DesignSpace.for_app("motion")
        request = SweepRequest.from_payload(
            {"app": "motion", "points": [{"variant": space.variant_names[0]}]}
        )
        points = request.resolve_points(space)
        assert points[0].library == next(iter(space.libraries))

    def test_explicit_bad_library_still_rejected(self):
        space = DesignSpace.for_app("motion")
        request = SweepRequest.from_payload(
            {
                "app": "motion",
                "points": [
                    {"variant": space.variant_names[0], "library": "default"}
                ],
            }
        )
        with pytest.raises(ProtocolError) as excinfo:
            request.resolve_points(space)
        assert excinfo.value.code == "unknown_axis"


class TestEvents:
    def test_event_shapes(self, cavity_space):
        point = cavity_space.points()[0]
        assert start_event("cavity", 3, 20) == {
            "type": "start",
            "app": "cavity",
            "request_id": 3,
            "points": 20,
        }
        failure = failure_event(point, "boom")
        assert failure["type"] == "failure"
        assert failure["point"] == point.to_dict()
        summary = SweepSummary(records=2, failures=1, coalesced=4, batches=1)
        end = end_event(summary.to_dict())
        assert end["type"] == "end"
        assert end["summary"]["coalesced"] == 4

    def test_record_event_round_trips(self, cavity_space):
        from repro.api import Explorer
        from repro.explore.engine import ExplorationRecord

        explorer = Explorer.for_app("cavity")
        record = explorer.evaluate_many(cavity_space.points()[:1], "test")[0]
        event = record_event(record)
        decoded = ExplorationRecord.from_dict(event["record"])
        assert decoded.fingerprint == record.fingerprint
        assert decoded.report.total_power_mw == record.report.total_power_mw


class TestChunked:
    def test_chunking(self, cavity_space):
        points = cavity_space.points()
        batches = chunked(points, 8)
        assert [len(batch) for batch in batches] == [8, 8, 4]
        assert [p for batch in batches for p in batch] == points

    def test_bad_size(self, cavity_space):
        with pytest.raises(ValueError):
            chunked(cavity_space.points(), 0)
