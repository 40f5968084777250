"""Fleet specs: deterministic point identity and spec persistence."""

import dataclasses
import json
import os

import pytest

from repro.config import GpuConfig
from repro.errors import FleetError
from repro.fleet.points import (
    FleetSpec,
    fleet_root,
    list_fleets,
    load_spec,
    point_id,
    validate_fleet_id,
)

PARAMS = {"tile_size": [8, 16, 32], "ot_queue_entries": [32, 64]}


def make_spec(**kwargs) -> FleetSpec:
    base = dict(fleet_id="f1", alias="ccs", technique="re", num_frames=2,
                parameters=dict(PARAMS))
    base.update(kwargs)
    return FleetSpec(**base)


class TestPointId:
    def test_deterministic(self):
        config = GpuConfig.small()
        assert point_id("ccs", "re", 4, config) == \
            point_id("ccs", "re", 4, config)

    def test_sensitive_to_every_input(self):
        config = GpuConfig.small()
        base = point_id("ccs", "re", 4, config)
        assert point_id("cde", "re", 4, config) != base
        assert point_id("ccs", "baseline", 4, config) != base
        assert point_id("ccs", "re", 5, config) != base
        changed = dataclasses.replace(config, tile_size=32)
        assert point_id("ccs", "re", 4, changed) != base

    def test_matches_single_host_expansion(self):
        # A fleet's point ids must equal what a single-host sweep over
        # the same grid would stamp — the basis of `diff --fleet`.
        from repro.harness.sweeps import expand_grid

        spec = make_spec()
        grid = expand_grid("ccs", "re", spec.parameters,
                           base_config=spec.base_config(), num_frames=2)
        assert spec.point_ids() == [
            point_id("ccs", "re", 2, config) for _, config, _ in grid
        ]


class TestFleetSpec:
    def test_expansion_is_full_grid(self):
        spec = make_spec()
        points = spec.points()
        assert len(points) == 6
        assert len({p.point_id for p in points}) == 6
        for p in points:
            assert p.config.tile_size == p.assignment["tile_size"]

    def test_parameters_canonicalized(self):
        # Grid order must survive the sorted-keys JSON round trip, so
        # the constructor canonicalizes key order up front.
        a = make_spec(parameters={"tile_size": [8, 16],
                                  "ot_queue_entries": [32]})
        b = make_spec(parameters={"ot_queue_entries": [32],
                                  "tile_size": [8, 16]})
        assert a.point_ids() == b.point_ids()
        assert list(a.parameters) == list(b.parameters)

    def test_overrides_change_points(self):
        # Override a field the grid does not sweep: it survives
        # expansion and shifts every point's identity.
        assert make_spec().point_ids() != \
            make_spec(overrides={"signature_compare_distance": 1}).point_ids()

    def test_bad_override_rejected(self):
        with pytest.raises(FleetError, match="bad config override"):
            make_spec(overrides={"no_such_field": 1}).base_config()
        # A field GpuConfig no longer has: refused, not run without it.
        with pytest.raises(FleetError, match="occlusion_culling"):
            make_spec(overrides={"occlusion_culling": True}).base_config()

    def test_validation(self):
        with pytest.raises(FleetError, match="invalid fleet id"):
            make_spec(fleet_id="../escape")
        with pytest.raises(FleetError, match="unknown scale"):
            make_spec(scale="huge")
        with pytest.raises(FleetError, match="non-empty parameter"):
            make_spec(parameters={})
        with pytest.raises(FleetError, match="lease_s"):
            make_spec(lease_s=0.0)

    @pytest.mark.parametrize("lease_s", [float("nan"), float("inf")])
    def test_non_finite_lease_rejected(self, lease_s):
        # A NaN lease is never renewed (``now - last >= nan / 3`` is
        # False) and never expires (``nan <= now`` is False), so a
        # crashed worker's point would never requeue; an infinite one
        # never expires either.
        with pytest.raises(FleetError, match="lease_s"):
            make_spec(lease_s=lease_s)

    def test_non_finite_lease_in_a_spec_file_rejected(self, tmp_path):
        path = make_spec().save(tmp_path)
        raw = json.load(open(path, encoding="utf-8"))
        raw["lease_s"] = float("nan")
        json.dump(raw, open(path, "w", encoding="utf-8"))
        with pytest.raises(FleetError, match="lease_s"):
            load_spec(tmp_path, "f1")


class TestValidateFleetId:
    def test_accepts_reasonable_ids(self):
        for good in ("fleet-20260809-0001", "a", "A.b_c-d", "0" * 64):
            assert validate_fleet_id(good) == good

    def test_rejects_hostile_ids(self):
        for bad in ("", ".", "..", "-x", ".hidden", "a/b", "a" * 65,
                    None, 7, "sp ace"):
            with pytest.raises(FleetError):
                validate_fleet_id(bad)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        spec = make_spec()
        path = spec.save(tmp_path)
        assert os.path.exists(path)
        loaded = load_spec(tmp_path, "f1")
        assert loaded.point_ids() == spec.point_ids()
        assert loaded.parameters == spec.parameters
        assert loaded.lease_s == spec.lease_s
        assert loaded.created_at == spec.created_at

    def test_save_twice_is_an_error(self, tmp_path):
        make_spec().save(tmp_path)
        with pytest.raises(FleetError, match="already exists"):
            make_spec().save(tmp_path)

    def test_load_missing(self, tmp_path):
        with pytest.raises(FleetError, match="no fleet"):
            load_spec(tmp_path, "nope")

    def test_load_corrupt(self, tmp_path):
        spec = make_spec()
        path = spec.save(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        with pytest.raises(FleetError, match="corrupt"):
            load_spec(tmp_path, "f1")

    def test_load_wrong_schema(self, tmp_path):
        spec = make_spec()
        path = spec.save(tmp_path)
        raw = json.load(open(path, encoding="utf-8"))
        raw["schema"] = "repro-fleet-v999"
        json.dump(raw, open(path, "w", encoding="utf-8"))
        with pytest.raises(FleetError, match="unsupported fleet schema"):
            load_spec(tmp_path, "f1")

    def test_point_expansion_skew_detected(self, tmp_path):
        # A build whose expansion disagrees with the recorded point set
        # must refuse to act on the fleet.
        spec = make_spec()
        path = spec.save(tmp_path)
        raw = json.load(open(path, encoding="utf-8"))
        raw["point_ids"][0] = "0" * 16
        json.dump(raw, open(path, "w", encoding="utf-8"))
        with pytest.raises(FleetError, match="expansion mismatch"):
            load_spec(tmp_path, "f1")

    def test_list_fleets(self, tmp_path):
        assert list_fleets(tmp_path) == []
        make_spec(fleet_id="b").save(tmp_path)
        make_spec(fleet_id="a").save(tmp_path)
        # A directory without a spec file is not a fleet.
        os.makedirs(fleet_root(tmp_path, "stray"))
        assert list_fleets(tmp_path) == ["a", "b"]
