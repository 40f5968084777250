"""JobSpec validation, wire round-trips and payload expansion."""

import pytest

from repro.errors import ServiceError, TenantError
from repro.service.jobs import DEFAULT_TENANT, JobSpec, expand_payload


class TestValidation:
    def test_valid_spec_passes(self):
        spec = JobSpec("ccs", technique="re", num_frames=3)
        assert spec.validated() is spec

    @pytest.mark.parametrize("field,value", [
        ("alias", "nope"),
        ("technique", "quantum"),
        ("scale", "huge"),
        ("num_frames", 0),
        ("num_frames", -1),
    ])
    def test_bad_fields_raise(self, field, value):
        spec = JobSpec(**{"alias": "ccs", field: value})
        with pytest.raises(ServiceError):
            spec.validated()

    @pytest.mark.parametrize("tenant", [
        "", "..", "a/b", "a\\b", "runs", "index.jsonl", "t" * 65,
        "spaced out",
    ])
    def test_bad_tenants_raise_tenant_error(self, tenant):
        with pytest.raises(TenantError):
            JobSpec("ccs", tenant=tenant).validated()

    def test_bad_override_name_raises(self):
        spec = JobSpec("ccs", overrides=(("no_such_field", 1),))
        with pytest.raises(ServiceError):
            spec.validated()
        # What older clients sent to turn occlusion culling on: the
        # field is gone, so the job is refused, not run without it.
        spec = JobSpec.from_dict(
            {"game": "ccs", "overrides": {"occlusion_culling": True}})
        with pytest.raises(ServiceError, match="occlusion_culling"):
            spec.validated()

    def test_bad_override_value_raises(self):
        spec = JobSpec("ccs", overrides=(("tile_size", -4),))
        with pytest.raises(ServiceError):
            spec.validated()

    def test_overrides_change_digest(self):
        base = JobSpec("ccs")
        tweaked = JobSpec("ccs", overrides=(("tile_size", 8),))
        assert base.digest() != tweaked.digest()
        assert tweaked.config().tile_size == 8


class TestWireFormat:
    def test_round_trip(self):
        spec = JobSpec(
            "cde", technique="re+te", num_frames=7,
            exact_signatures=True, scale="benchmark",
            overrides=(("tile_size", 8),), tenant="alice",
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_accepts_game_key_and_defaults(self):
        spec = JobSpec.from_dict({"game": "ccs"})
        assert spec.alias == "ccs"
        assert spec.technique == "re"
        assert spec.tenant == DEFAULT_TENANT

    def test_from_dict_missing_game_raises(self):
        with pytest.raises(ServiceError):
            JobSpec.from_dict({"technique": "re"})

    def test_from_dict_non_mapping_raises(self):
        with pytest.raises(ServiceError):
            JobSpec.from_dict(["ccs"])


class TestExpansion:
    def test_render_is_one_spec(self):
        specs = expand_payload({"game": "ccs", "num_frames": 3})
        assert [s.alias for s in specs] == ["ccs"]

    def test_sweep_expands_grid(self):
        specs = expand_payload({
            "kind": "sweep", "game": "ccs", "num_frames": 3,
            "parameters": {"tile_size": [8, 16],
                           "num_fragment_processors": [1, 2]},
        })
        assert len(specs) == 4
        assignments = {
            (dict(s.overrides)["tile_size"],
             dict(s.overrides)["num_fragment_processors"])
            for s in specs
        }
        assert assignments == {(8, 1), (8, 2), (16, 1), (16, 2)}

    def test_sweep_without_parameters_raises(self):
        with pytest.raises(ServiceError):
            expand_payload({"kind": "sweep", "game": "ccs"})

    def test_experiment_expands_prefetch_matrix(self):
        specs = expand_payload({
            "kind": "experiment", "id": "fig14a", "num_frames": 3,
            "games": ["ccs", "mst"],
        })
        cells = {(s.alias, s.technique) for s in specs}
        assert cells == {
            ("ccs", "baseline"), ("ccs", "re"),
            ("mst", "baseline"), ("mst", "re"),
        }

    def test_unknown_experiment_raises(self):
        with pytest.raises(ServiceError):
            expand_payload({"kind": "experiment", "id": "fig99"})

    def test_unknown_kind_raises(self):
        with pytest.raises(ServiceError):
            expand_payload({"kind": "dance", "game": "ccs"})

    def test_one_bad_point_rejects_whole_payload(self):
        with pytest.raises(ServiceError):
            expand_payload({
                "kind": "sweep", "game": "ccs",
                "parameters": {"tile_size": [16, -1]},
            })
