"""The ``fleet`` CLI refuses bad counts at the boundary, before it
writes anything under the registry."""

import os

import pytest

from repro.__main__ import main
from repro.fleet.points import FleetSpec


def files_under(root) -> list:
    return sorted(
        os.path.relpath(os.path.join(path, name), root)
        for path, _, names in os.walk(root) for name in names
    )


@pytest.mark.parametrize("extra, message", [
    (["--workers", "0"], "--workers must be at least 1, got 0"),
    (["--workers", "-2"], "--workers must be at least 1, got -2"),
    (["--crash-worker", "w0:0"], "the claim count must be at least 1"),
])
def test_launch_refuses_bad_counts_writing_nothing(tmp_path, capsys,
                                                   extra, message):
    argv = ["--frames", "2", "fleet", "launch", "ccs",
            "--set", "tile_size=8,16", "--fleet-id", "f1",
            "--registry", str(tmp_path)]
    assert main(argv + extra) == 2
    assert message in capsys.readouterr().err
    assert files_under(tmp_path) == []
    # The fleet id is not burnt: the same spec can still be created.
    FleetSpec(fleet_id="f1", alias="ccs", technique="re", num_frames=2,
              parameters={"tile_size": [8, 16]}).save(tmp_path)


def test_work_refuses_a_zero_crash_count(tmp_path, capsys):
    FleetSpec(fleet_id="f1", alias="ccs", technique="re", num_frames=2,
              parameters={"tile_size": [8, 16]}).save(tmp_path)
    before = files_under(tmp_path)
    assert main(["fleet", "work", "--fleet-id", "f1", "--worker", "w0",
                 "--crash-after-claims", "0",
                 "--registry", str(tmp_path)]) == 2
    assert ("--crash-after-claims must be at least 1, got 0"
            in capsys.readouterr().err)
    assert files_under(tmp_path) == before


def test_work_has_no_poll_interval(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["fleet", "work", "--fleet-id", "f1", "--worker", "w0",
              "--poll", "1", "--registry", str(tmp_path)])
    assert exit_info.value.code == 2
