"""Command-line interface."""

import pytest

from repro.cli import _PROFILE_TOP_N, main


class TestWorkloads:
    def test_lists_all_apps(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for abbr in ("CFM", "HoK", "PM"):
            assert abbr in out


class TestGenerate:
    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        assert main(["generate", "CFM", str(path), "--length", "100"]) == 0
        assert "wrote 100 records" in capsys.readouterr().out
        assert path.exists()

    def test_binary(self, tmp_path):
        path = tmp_path / "t.bin"
        assert main(["generate", "HoK", str(path), "--length", "50"]) == 0
        from repro.trace.io import read_trace_binary

        assert len(read_trace_binary(path)) == 50


class TestSimulate:
    def test_by_app(self, capsys):
        assert main(["simulate", "--app", "CFM", "--length", "3000",
                     "--prefetchers", "none,nextline"]) == 0
        out = capsys.readouterr().out
        assert "nextline" in out and "hit rate" in out

    def test_from_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        main(["generate", "KO", str(path), "--length", "2000"])
        capsys.readouterr()
        assert main(["simulate", "--trace", str(path),
                     "--prefetchers", "none"]) == 0
        assert "none" in capsys.readouterr().out

    def test_profile_leaves_output_unchanged(self, tmp_path, capsys):
        import pstats

        trace = tmp_path / "t.bin"
        main(["generate", "CFM", str(trace), "--length", "2000"])
        capsys.readouterr()
        argv = ["simulate", "--trace", str(trace),
                "--prefetchers", "none,planaria"]
        plain_code = main(argv)
        plain_out = capsys.readouterr().out
        report = tmp_path / "profile.txt"
        dump = tmp_path / "profile.pstats"
        profiled_code = main(argv + ["--profile", str(report),
                                     "--profile-out", str(dump)])
        assert profiled_code == plain_code == 0
        assert capsys.readouterr().out == plain_out
        text = report.read_text()
        assert "Ordered by: cumulative time" in text
        assert f"due to restriction <{_PROFILE_TOP_N}>" in text
        assert pstats.Stats(str(dump)).total_calls > 0

    def test_unknown_prefetcher(self, capsys):
        assert main(["simulate", "--prefetchers", "oracle"]) == 2
        assert "unknown prefetchers" in capsys.readouterr().err


class TestFigure:
    def test_fig4_subset(self, capsys):
        assert main(["figure", "fig4", "--length", "5000",
                     "--apps", "CFM"]) == 0
        out = capsys.readouterr().out
        assert "overlap" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err


class TestOthers:
    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "8.4%" in out

    def test_footprint(self, capsys):
        assert main(["footprint", "--app", "CFM", "--length", "8000"]) == 0
        assert "time" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestKeyboardInterrupt:
    """Ctrl-C must exit with the conventional 128+SIGINT code, not a
    traceback, whichever command was running."""

    def _assert_130(self, argv, capsys):
        assert main(argv) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_simulate(self, monkeypatch, capsys):
        import repro.sim.runner as runner

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "compare_prefetchers", interrupt)
        self._assert_130(["simulate", "--app", "CFM", "--length", "100"],
                         capsys)

    def test_figure(self, monkeypatch, capsys):
        from repro.experiments import ALL_EXPERIMENTS

        def interrupt(settings):
            raise KeyboardInterrupt

        monkeypatch.setitem(ALL_EXPERIMENTS, "fig4", interrupt)
        self._assert_130(["figure", "fig4", "--length", "100"], capsys)

    def test_serve(self, monkeypatch, capsys):
        import repro.service.server as server

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(server, "run_server", interrupt)
        self._assert_130(["serve", "--port", "0"], capsys)


class TestServe:
    def test_spans_verb_dumps_chrome_trace(self, tmp_path, capsys):
        from repro.config import SimConfig
        from repro.obs.trace_spans import read_chrome_trace
        from repro.service.bench import _ServerThread
        from repro.service.client import ServiceClient
        from repro.service.session import SessionManager
        from repro.trace.generator import generate_trace_buffer, get_profile

        config = SimConfig.experiment_scale()
        trace = generate_trace_buffer(get_profile("CFM"), 300, seed=3,
                                      layout=config.layout)
        manager = SessionManager(checkpoint_dir=tmp_path / "ckpt",
                                 default_config=config, tracing=True)
        out = tmp_path / "trace.json"
        with _ServerThread(manager) as running:
            with ServiceClient.connect(port=running.port) as client:
                client.open("s", "stride", workload="cli")
                client.feed("s", trace)
                client.snapshot("s")
            assert main(["spans", str(out), "--port",
                         str(running.port)]) == 0
        manager.shutdown(checkpoint=False)
        captured = capsys.readouterr().out
        assert "perfetto" in captured.lower()
        assert "session.feed_chunk" in captured
        spans = read_chrome_trace(out)
        assert any(span.name == "engine.feed" for span in spans)


class TestSimConfigFile:
    def test_simulate_with_config_file(self, tmp_path, capsys):
        from repro.config import SimConfig
        from repro.config_io import save_config

        path = save_config(SimConfig.experiment_scale(), tmp_path / "c.json")
        assert main(["simulate", "--app", "CFM", "--length", "2000",
                     "--prefetchers", "none", "--sim-config", str(path)]) == 0
        assert "none" in capsys.readouterr().out


class TestCampaignVerbs:
    SPEC_YAML = """\
name: cli-campaign
length: 1500
workloads:
  - app: CFM
prefetchers: [none, planaria]
"""

    def _write_spec(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(self.SPEC_YAML)
        return str(path)

    def test_run_status_resume(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        state_dir = str(tmp_path / "st")
        assert main(["campaign", "run", spec, "--state-dir", state_dir,
                     "--export", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "2 cells (2 executed" in out
        assert "campaign-cli-campaign.csv" in out

        assert main(["campaign", "status", spec,
                     "--state-dir", state_dir]) == 0
        assert "2/2 cells completed" in capsys.readouterr().out

        # run again without resume -> error exit 1 via CampaignError
        assert main(["campaign", "run", spec,
                     "--state-dir", state_dir]) == 1
        assert "resume" in capsys.readouterr().err

        assert main(["campaign", "resume", spec, "--state-dir", state_dir,
                     "--export", str(tmp_path / "out2")]) == 0
        assert "0 executed, 2 resumed" in capsys.readouterr().out
        first = (tmp_path / "out" / "campaign-cli-campaign.csv").read_bytes()
        second = (tmp_path / "out2" / "campaign-cli-campaign.csv").read_bytes()
        assert first == second

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nbogus: true\n")
        assert main(["campaign", "run", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        import repro.campaign.runner as campaign_runner

        def interrupt(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_runner.CampaignRunner, "run", interrupt)
        spec = self._write_spec(tmp_path)
        assert main(["campaign", "run", spec,
                     "--state-dir", str(tmp_path / "st")]) == 130
        assert "interrupted" in capsys.readouterr().err
