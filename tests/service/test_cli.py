"""CLI surface of the service layer."""

import pytest

from repro.__main__ import main
from repro.config import GpuConfig
from repro.engine.session import RenderSession
from repro.obs.live import LiveAggregator
from repro.service.daemon import EngineDaemon, ServiceConfig
from repro.service.server import ServiceServer

FRAMES = 2


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """A directory holding a small ccs/re checkpoint at frame 2 of 4 and
    a file that is not a checkpoint."""
    root = tmp_path_factory.mktemp("checkpoints")
    session = RenderSession("ccs", "re", config=GpuConfig.small(),
                            num_frames=4)
    session.run(until=2)
    session.save(root / "small.ckpt")
    (root / "junk.ckpt").write_text("not a checkpoint")
    return root


class TestRunRoutesThroughService:
    @pytest.mark.parametrize("global_flags, run_flags", [
        ([], []),
        (["--profile"], []),
        ([], ["--manifest", "run.json"]),
    ], ids=["plain", "profile", "manifest"])
    @pytest.mark.parametrize("frames, bad_globals, bad_flags, message", [
        ("0", [], [], "--frames"),
        ("4", [], ["--checkpoint-at", "2"], "--checkpoint-out"),
        ("4", [], ["--tenant", "a/b"], "tenant"),
        ("4", ["--profile", "--retries", "1"], [], "--profile"),
        ("4", [], ["--resume", "{ckpt}/missing.ckpt"], "missing.ckpt"),
        ("4", [], ["--resume", "{ckpt}/junk.ckpt"], "junk.ckpt"),
        ("4", ["--scale", "benchmark"], ["--resume", "{ckpt}/small.ckpt"],
         "screen_width 96 -> 384"),
        ("4", ["--retries", "1"], ["--resume", "{ckpt}/small.ckpt"],
         "--resume"),
    ], ids=["zero-frames", "checkpoint-without-path", "bad-tenant",
            "profile-supervised", "resume-missing", "resume-unreadable",
            "resume-other-config", "resume-supervised"])
    def test_run_refuses_bad_input_before_rendering(
            self, frames, bad_globals, bad_flags, message, global_flags,
            run_flags, checkpoints, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def render_one(*_args, **_kwargs):
            raise AssertionError("a frame rendered before validation")

        monkeypatch.setattr(RenderSession, "_render_one", render_one)
        bad_flags = [flag.format(ckpt=checkpoints) for flag in bad_flags]
        argv = (["--frames", frames] + global_flags + bad_globals
                + ["run", "ccs", "--no-registry"] + bad_flags + run_flags)
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("run failed: ") and message in line
        assert list(tmp_path.iterdir()) == []

    def test_run_rejects_bad_tenant_before_rendering(self, capsys):
        assert main(["--frames", "2", "run", "ccs",
                     "--tenant", "a/b"]) == 2
        assert "tenant" in capsys.readouterr().err

    def test_run_records_into_tenant_namespace(self, tmp_path, capsys):
        registry = str(tmp_path / "reg")
        assert main(["--frames", "2", "run", "ccs",
                     "--registry", registry, "--tenant", "alice"]) == 0
        assert "registered as" in capsys.readouterr().out
        assert main(["runs", "--registry", registry]) == 0
        out = capsys.readouterr().out
        assert "tenants: alice" in out
        assert main(["runs", "--registry", registry,
                     "--tenant", "alice"]) == 0
        assert "ccs" in capsys.readouterr().out


class TestSubmitAndStatus:
    @pytest.fixture()
    def served(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        daemon = EngineDaemon(ServiceConfig(workers=1)).start()
        server = ServiceServer(daemon, sock).start_in_thread()
        try:
            yield sock
        finally:
            server.stop()
            daemon.close()

    def test_submit_wait_then_status(self, served, capsys):
        assert main(["--frames", str(FRAMES), "submit", "ccs",
                     "--socket", served, "--wait"]) == 0
        out = capsys.readouterr().out
        assert "submitted 1 job(s)" in out
        assert "ccs/re done (cold" in out
        assert main(["status", "--socket", served]) == 0
        out = capsys.readouterr().out
        assert "daemon pid" in out
        assert "1 submitted / 1 done" in out

    def test_submit_sweep_batches(self, served, capsys):
        assert main(["--frames", str(FRAMES), "submit", "ccs",
                     "--socket", served,
                     "--set", "tile_size=8,16", "--wait"]) == 0
        out = capsys.readouterr().out
        assert "submitted 2 job(s)" in out

    def test_submit_unreachable_socket_fails_cleanly(self, tmp_path,
                                                     capsys):
        missing = str(tmp_path / "nope.sock")
        assert main(["submit", "ccs", "--socket", missing]) == 1
        assert "cannot reach service socket" in capsys.readouterr().err


class TestStatusHeartbeatFallback:
    def test_falls_back_to_heartbeat_file(self, tmp_path, capsys):
        heartbeat = tmp_path / "live.json"
        live = LiveAggregator(path=str(heartbeat), stream=None,
                              owner="repro-serve:12345")
        live.tick(force=True)
        live.close()
        assert main(["status", "--socket", str(tmp_path / "nope.sock"),
                     "--heartbeat", str(heartbeat)]) == 0
        out = capsys.readouterr().out
        assert "daemon unreachable" in out
        assert "repro-serve:12345" in out

    def test_no_daemon_and_no_heartbeat_fails(self, tmp_path, capsys):
        assert main(["status", "--socket", str(tmp_path / "nope.sock"),
                     "--heartbeat", str(tmp_path / "none.json")]) == 1
        assert "status failed" in capsys.readouterr().err
