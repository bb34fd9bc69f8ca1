"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Netflix" in out
        assert "T-Mobile" in out
        assert "table3" in out

    def test_collect_then_train_then_classify(self, tmp_path, capsys):
        data = tmp_path / "traces"
        assert main(["collect", "--out", str(data), "--apps", "YouTube",
                     "Skype", "--traces", "2", "--duration", "12",
                     "--seed", "3"]) == 0
        assert len(list(data.glob("trace_*.csv"))) == 4

        assert main(["train", "--data", str(data), "--trees", "8"]) == 0
        out = capsys.readouterr().out
        assert "f-score" in out

        target = sorted(data.glob("trace_*.csv"))[0]
        assert main(["classify", "--data", str(data), "--trace",
                     str(target), "--trees", "8"]) == 0
        out = capsys.readouterr().out
        assert "ground truth" in out

    def test_collect_with_operator(self, tmp_path):
        data = tmp_path / "tm"
        assert main(["collect", "--out", str(data), "--apps", "Skype",
                     "--traces", "1", "--duration", "8",
                     "--operator", "T-Mobile"]) == 0
        assert len(list(data.glob("trace_*.csv"))) == 1

    # Bad input exits 2 (the --faults convention); 1 is reserved for
    # runtime failures after inputs validated.

    def test_train_empty_dir_fails(self, tmp_path):
        assert main(["train", "--data", str(tmp_path)]) == 2

    def test_train_names_the_file_with_a_bad_record(self, tmp_path,
                                                     capsys):
        from repro.sniffer.trace import Trace

        for index, rnti in enumerate([0x100, 0x101]):
            Trace.from_arrays([0.0, 0.5], [rnti] * 2, [0, 1], [10, 10],
                              label="YouTube").to_csv(
                tmp_path / f"trace_{index:06d}.csv")
        bad = tmp_path / "trace_000001.csv"
        bad.write_text(bad.read_text().replace(",257,", ",-5,"))
        assert main(["train", "--data", str(tmp_path), "--trees", "2"]) == 2
        err = capsys.readouterr().err
        assert "trace_000001.csv" in err and "rnti" in err
        assert "trace_000000.csv" not in err

    def test_classify_empty_dir_fails(self, tmp_path):
        missing = tmp_path / "none"
        missing.mkdir()
        assert main(["classify", "--data", str(missing), "--trace",
                     str(tmp_path / "x.csv")]) == 2

    def test_classify_missing_trace_fails(self, tmp_path):
        data = tmp_path / "traces"
        assert main(["collect", "--out", str(data), "--apps", "Skype",
                     "--traces", "1", "--duration", "8"]) == 0
        assert main(["classify", "--data", str(data), "--trace",
                     str(tmp_path / "missing.csv"), "--trees", "4"]) == 2

    def test_unknown_experiment_fails(self):
        assert main(["experiment", "tableX"]) == 2

    def test_report_missing_manifest_fails(self, tmp_path):
        assert main(["report", str(tmp_path / "none.jsonl")]) == 2

    def test_bad_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The README flow's first two steps: ``collect --format npz`` of
    2 apps × 2 traces, then ``train --save-model`` on the archive."""
    root = tmp_path_factory.mktemp("serve")
    data = root / "traces"
    assert main(["collect", "--out", str(data), "--format", "npz",
                 "--apps", "YouTube", "Skype", "--traces", "2",
                 "--duration", "10", "--seed", "7"]) == 0
    model = root / "model.json"
    assert main(["train", "--data", str(data / "traces.npz"),
                 "--trees", "8", "--save-model", str(model)]) == 0
    return root


def _one_trace_archive(campaign, path):
    """The first trace of the campaign archive as a one-trace set."""
    from repro.sniffer.trace import TraceSet

    traces = TraceSet.from_npz(campaign / "traces" / "traces.npz")
    TraceSet(traces.traces[:1]).to_npz(path)
    return path


def _write_bad_archive(path, defect):
    """A set archive with one defect that every reader must reject."""
    from repro.sniffer.trace import Trace, TraceSet

    times, rntis, dirs = [0.0, 0.5], [0x100, 0x100], [0, 1]
    if defect == "rnti":
        rntis[1] = 0x10000
    elif defect == "direction":
        dirs[1] = 2
    elif defect == "time-order":
        times = [0.5, 0.0]
    trace = Trace.from_arrays(times, rntis, dirs, [10, 10], validate=False,
                              label="YouTube")
    TraceSet([trace]).to_npz(path)
    data = bytearray(path.read_bytes())
    # The first central directory entry: general-purpose flag bits at
    # byte 8, compression method at byte 10.
    entry = data.find(b"PK\x01\x02")
    if defect == "truncated":
        data = data[:300]
    elif defect == "compression":
        data[entry + 10:entry + 12] = (99).to_bytes(2, "little")
    elif defect == "encrypted":
        data[entry + 8] |= 0x01
    path.write_bytes(bytes(data))
    return path


class TestServeCLI:
    def test_serve_recorded_sources(self, campaign, tmp_path, capsys):
        import json

        source = _one_trace_archive(campaign, tmp_path / "feed.npz")
        out = tmp_path / "verdicts.jsonl"
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(source), "--out", str(out),
                     "--chunk-records", "64"]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = [line["type"] for line in lines]
        assert "window" in kinds and "trace" in kinds and "fused" in kinds
        summary = capsys.readouterr().out
        assert "windows closed" in summary

    def test_serve_reads_the_collect_archive(self, campaign, capsys):
        # The README flow end to end: serve the set archive collect
        # wrote, one source per trace.
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data",
                     str(campaign / "traces" / "traces.npz")]) == 0
        out = capsys.readouterr().out
        assert "sources:        4" in out
        for index in range(4):
            assert f"  traces[{index}]: " in out
        # Each capture is its own victim: one fused verdict per source,
        # each from its one cell, none merging the four captures.
        fused = [line for line in out.splitlines()
                 if line.startswith("  fused ")]
        assert len(fused) == 4
        for index in range(4):
            assert sum(line.startswith(f"  fused traces[{index}]: ")
                       for line in fused) == 1
        assert all(line.endswith("across 1 cells)") for line in fused)

    def test_serve_separate_captures_are_separate_victims(
            self, campaign, tmp_path, capsys):
        from repro.sniffer.trace import TraceSet

        traces = TraceSet.from_npz(campaign / "traces" / "traces.npz")
        feeds = [tmp_path / f"trace_{index:06d}.csv" for index in range(2)]
        for trace, feed in zip(traces.traces, feeds):
            trace.to_csv(feed)
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", *map(str, feeds)]) == 0
        fused = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  fused ")]
        assert len(fused) == 2
        for feed in feeds:
            assert sum(line.startswith(f"  fused {feed.stem}: ")
                       and line.endswith("across 1 cells)")
                       for line in fused) == 1

        # A user other than collect's default still fuses across cells.
        for trace, feed in zip(traces.traces, feeds):
            trace.user = "alice"
            trace.to_csv(feed)
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", *map(str, feeds)]) == 0
        fused = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  fused ")]
        assert len(fused) == 1
        assert fused[0].startswith("  fused alice: ")
        assert fused[0].endswith("across 2 cells)")

    def test_serve_one_trace_archive_keeps_the_stem(self, campaign,
                                                    tmp_path, capsys):
        source = _one_trace_archive(campaign, tmp_path / "feed.npz")
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(source)]) == 0
        assert "  feed: " in capsys.readouterr().out

    @pytest.mark.parametrize("defect", ["rnti", "direction", "time-order",
                                        "truncated", "compression",
                                        "encrypted"])
    def test_bad_archive_is_bad_input(self, campaign, tmp_path, capsys,
                                      defect):
        bad = _write_bad_archive(tmp_path / "bad.npz", defect)
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(bad)]) == 2
        assert main(["train", "--data", str(bad), "--trees", "2"]) == 2
        err = capsys.readouterr().err
        assert "bad.npz" in err and "Traceback" not in err

    def test_serve_sim_feed(self, campaign, capsys):
        assert main(["serve", "--sim", "--sim-cells", "2",
                     "--sim-epochs", "1",
                     "--model", str(campaign / "model.json")]) == 0
        assert "fused" in capsys.readouterr().out

    def test_serve_missing_source_is_bad_input(self, campaign, tmp_path):
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(tmp_path / "none.npz")]) == 2

    def test_serve_bad_record_values_is_bad_input(self, campaign, tmp_path):
        from repro.sniffer.trace import Trace

        feed = tmp_path / "feed.jsonl"
        Trace.from_arrays([-1.0, 0.5], [0x100] * 2, [0] * 2, [10, 10],
                          validate=False).to_jsonl(feed)
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(feed)]) == 2

    def test_serve_names_the_feed_with_a_bad_record(self, campaign,
                                                    tmp_path, capsys):
        feed = tmp_path / "bad_feed.jsonl"
        feed.write_text('{"t": 0.0, "rnti": -5, "dir": 0, "tbs": 10}\n')
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(feed)]) == 2
        err = capsys.readouterr().err
        assert "bad_feed.jsonl" in err and "rnti" in err

    def test_serve_out_of_range_rnti_is_bad_input(self, campaign, tmp_path):
        feed = tmp_path / "feed.jsonl"
        feed.write_text('{"t": 0.0, "rnti": -1, "dir": 0, "tbs": 10}\n')
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(feed)]) == 2

    def test_serve_unrepresentable_record_is_bad_input(self, campaign,
                                                       tmp_path):
        # Non-integral or int64-overflowing fields, never truncated.
        feeds = {
            "big_tbs.jsonl": '{"t": 0.0, "rnti": 256, "dir": 0, '
                             '"tbs": 100000000000000000000}\n',
            "float_tbs.jsonl": '{"t": 0.0, "rnti": 256, "dir": 0, '
                               '"tbs": 2.7}\n',
            "big_rnti.csv": "time_s,rnti,direction,tbs_bytes\n"
                            "0.0,100000000000000000000,0,10\n",
        }
        for name, text in feeds.items():
            feed = tmp_path / name
            feed.write_text(text)
            assert main(["serve", "--model", str(campaign / "model.json"),
                         "--data", str(feed)]) == 2, name

    def test_serve_malformed_model_is_bad_input(self, campaign, tmp_path):
        import json

        payload = json.loads((campaign / "model.json").read_text())
        root = payload["category_model"]["trees"][0]["root"]
        root["f"] = 99                   # no such feature
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        source = _one_trace_archive(campaign, tmp_path / "feed.npz")
        assert main(["serve", "--model", str(bad),
                     "--data", str(source)]) == 2

    def _serve_with_header(self, campaign, tmp_path, key, value=None):
        """Exit code of ``serve`` on the campaign model with header
        ``key`` set to ``value``, or deleted when ``value`` is None."""
        import json

        payload = json.loads((campaign / "model.json").read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        source = _one_trace_archive(campaign, tmp_path / "feed.npz")
        return main(["serve", "--model", str(bad), "--data", str(source)])

    @pytest.mark.parametrize("key", ["direction", "window_ms", "stride_ms",
                                     "apps", "categories", "category_model",
                                     "app_models"])
    def test_serve_model_missing_header_key_is_bad_input(self, campaign,
                                                         tmp_path, key):
        assert self._serve_with_header(campaign, tmp_path, key) == 2

    @pytest.mark.parametrize("key, value", [
        ("window_ms", "100"), ("stride_ms", "25"), ("window_ms", True),
        ("direction", True), ("apps", 3), ("categories", [1, 2]),
        ("category_model", []), ("app_models", []),
        ("app_models", {"0": []})])
    def test_serve_model_wrong_header_type_is_bad_input(self, campaign,
                                                        tmp_path, key,
                                                        value):
        assert self._serve_with_header(campaign, tmp_path, key, value) == 2

    def test_serve_bad_model_is_bad_input(self, tmp_path):
        bogus = tmp_path / "model.json"
        feed = tmp_path / "feed.csv"
        feed.write_text("time_s,rnti,direction,tbs_bytes\n")
        for text in ("{}", "[]", '{"kind": "hierarchical-fingerprinter"}'):
            bogus.write_text(text)
            assert main(["serve", "--model", str(bogus),
                         "--data", str(feed)]) == 2, text

    def test_serve_bad_chunk_records(self, campaign, tmp_path):
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(tmp_path / "feed.npz"),
                     "--chunk-records", "0"]) == 2


def _bad_csv_dataset(root):
    """A trace directory whose one CSV row has an RNTI of -5."""
    data = root / "data"
    data.mkdir()
    (data / "trace_000000.csv").write_text(
        "time_s,rnti,direction,tbs_bytes\n0.0,-5,0,10\n")
    return data


def _bad_plan(root):
    plan = root / "plan.json"
    plan.write_text('{"faults": [{"kind": "no-such-fault"}]}')
    return plan


#: Every subcommand that reads a user file (or, for scan, a user id
#: list), fed one malformed input: argv built under a scratch dir.
BAD_INPUT = {
    "collect --faults": lambda root, campaign: [
        "collect", "--out", str(root / "out"), "--apps", "Skype",
        "--traces", "1", "--duration", "2", "--faults",
        str(_bad_plan(root))],
    "train": lambda root, campaign: [
        "train", "--data", str(_bad_csv_dataset(root))],
    "classify": lambda root, campaign: [
        "classify", "--data", str(_bad_csv_dataset(root)), "--trace",
        str(root / "data" / "trace_000000.csv")],
    "serve": lambda root, campaign: [
        "serve", "--model", str(campaign / "model.json"), "--data",
        str(_write_bad_archive(root / "cut.npz", "truncated"))],
    "experiment --faults": lambda root, campaign: [
        "experiment", "table3", "--faults", str(_bad_plan(root))],
    "scan --detectors": lambda root, campaign: [
        "scan", "--detectors", "no-such-detector", "--scale", "smoke"],
    "lint --baseline": lambda root, campaign: [
        "lint", "--baseline", str(_bad_plan(root)), str(root)],
    "report": lambda root, campaign: [
        "report", str(_bad_plan(root))],
}


@pytest.mark.parametrize("command", sorted(BAD_INPUT))
def test_bad_input_exits_2(command, campaign, tmp_path, capsys):
    # Bad input exits 2 with a message, never a traceback (exit 1 is
    # for runtime failures after the inputs validated).
    assert main(BAD_INPUT[command](tmp_path, campaign)) == 2
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


class TestCacheCLI:
    def test_report_then_clear(self, tmp_path, capsys):
        from repro import runtime

        cache_dir = tmp_path / "cache"
        with runtime.overrides(cache_enabled=True):
            assert main(["collect", "--out", str(tmp_path / "traces"),
                         "--apps", "Skype", "--traces", "1",
                         "--duration", "4", "--cache-dir",
                         str(cache_dir)]) == 0
            stored = len(list(cache_dir.glob("*.npz")))
            assert stored >= 1
            capsys.readouterr()
            assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
            out = capsys.readouterr().out
            assert f"directory:   {cache_dir}" in out
            assert f"entries:     {stored}" in out
            assert "MiB (bound" in out and "fingerprint:" in out
            assert main(["cache", "--clear", "--cache-dir",
                         str(cache_dir)]) == 0
            assert capsys.readouterr().out.strip() == \
                f"cleared {stored} entries from {cache_dir}"
            assert not list(cache_dir.glob("*.npz"))
            assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
            assert "entries:     0" in capsys.readouterr().out

    def test_disabled_cache(self, tmp_path, capsys):
        from repro import runtime

        with runtime.overrides(cache_enabled=False):
            assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == \
            "trace cache is disabled (REPRO_TRACE_CACHE=0)"


def _runtime_settings():
    from repro import runtime

    cache = runtime.trace_cache()
    return (runtime.resolve_workers(), runtime.fault_plan(),
            None if cache is None else cache.directory)


def test_pipeline_command_leaves_the_callers_runtime_settings(tmp_path):
    # --workers, --no-cache, --cache-dir and --faults end with the call.
    from repro.faults import FaultPlan, FaultSpec

    plan = tmp_path / "plan.json"
    FaultPlan.build(FaultSpec.make("burst_loss", rate=0.3, burst_s=0.5),
                    seed=7).to_file(plan)
    before = _runtime_settings()
    assert main(["collect", "--out", str(tmp_path / "out"), "--apps",
                 "Skype", "--traces", "1", "--duration", "2",
                 "--no-cache", "--workers", "2", "--cache-dir",
                 str(tmp_path / "cache"), "--faults", str(plan)]) == 0
    assert _runtime_settings() == before


def test_obs_out_leaves_the_callers_observability_setting(tmp_path):
    # --obs-out collects for the one call, then observability reads as
    # it did before main.
    import json

    from repro import obs

    out = tmp_path / "runs.jsonl"
    with obs.override(False):
        assert main(["collect", "--out", str(tmp_path / "out"), "--apps",
                     "Skype", "--traces", "1", "--duration", "2",
                     "--no-cache", "--obs-out", str(out)]) == 0
        assert not obs.enabled()
    (line,) = [json.loads(raw) for raw in out.read_text().splitlines()]
    assert line["spans"], "--obs-out collected nothing during the call"


class TestExperimentManifest:
    def test_result_summary_lands_in_the_manifest(self, tmp_path,
                                                  monkeypatch):
        # The manifest's result holds a result dataclass's str, int,
        # float and bool fields plus mean_f(); other fields stay out.
        import dataclasses

        from repro import obs
        from repro.experiments import table6_similarity
        from repro.obs.manifest import read_manifests

        @dataclasses.dataclass
        class Result:
            name: str = "stub"
            runs: int = 3
            score: float = 0.75
            passed: bool = True
            rows: tuple = (1, 2)

            def table(self):
                return "stub table"

            def mean_f(self):
                return 0.5

        monkeypatch.setattr(table6_similarity, "run",
                            lambda scale: Result())
        out = tmp_path / "runs.jsonl"
        with obs.override(False):
            assert main(["experiment", "table6", "--obs-out",
                         str(out)]) == 0
        (line,) = read_manifests(out)
        assert line["command"] == "experiment"
        assert line["result"] == {"name": "stub", "runs": 3,
                                  "score": 0.75, "passed": True,
                                  "mean_f": 0.5}
