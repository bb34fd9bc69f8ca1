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


class TestServeCLI:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve")
        data = root / "traces"
        assert main(["collect", "--out", str(data), "--format", "npz",
                     "--apps", "YouTube", "Skype", "--traces", "2",
                     "--duration", "10", "--seed", "7"]) == 0
        model = root / "model.json"
        assert main(["train", "--data", str(data / "traces.npz"),
                     "--trees", "8", "--save-model", str(model)]) == 0
        return root

    def test_serve_recorded_sources(self, campaign, tmp_path, capsys):
        import json

        from repro.sniffer.trace import TraceSet

        traces = TraceSet.from_npz(campaign / "traces" / "traces.npz")
        source = tmp_path / "feed.npz"
        traces.traces[0].to_npz(source)
        out = tmp_path / "verdicts.jsonl"
        assert main(["serve", "--model", str(campaign / "model.json"),
                     "--data", str(source), "--out", str(out),
                     "--chunk-records", "64"]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = [line["type"] for line in lines]
        assert "window" in kinds and "trace" in kinds and "fused" in kinds
        summary = capsys.readouterr().out
        assert "windows closed" in summary

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

        from repro.sniffer.trace import TraceSet

        payload = json.loads((campaign / "model.json").read_text())
        root = payload["category_model"]["trees"][0]["root"]
        root["f"] = 99                   # no such feature
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        source = tmp_path / "feed.npz"
        TraceSet.from_npz(campaign / "traces" / "traces.npz") \
            .traces[0].to_npz(source)
        assert main(["serve", "--model", str(bad),
                     "--data", str(source)]) == 2

    def _serve_with_header(self, campaign, tmp_path, key, value=None):
        """Exit code of ``serve`` on the campaign model with header
        ``key`` set to ``value``, or deleted when ``value`` is None."""
        import json

        from repro.sniffer.trace import TraceSet

        payload = json.loads((campaign / "model.json").read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload))
        source = tmp_path / "feed.npz"
        TraceSet.from_npz(campaign / "traces" / "traces.npz") \
            .traces[0].to_npz(source)
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
