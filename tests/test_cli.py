"""CLI tests (argument parsing and end-to-end subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.scale == "default"
        assert args.experiments == ["table1"]

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "huge"])

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "t.csv",
                                       "--policy", "quantum"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "table1" in out

    def test_policies_lists_every_registry_entry_with_kwargs(self, capsys):
        from repro.core import policy_names
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in policy_names():
            assert name in out
        # registered kwargs are discoverable without reading source
        assert "precision=5" in out          # camp
        assert "shards=4" in out             # camp-sharded
        assert "CampPolicy(" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "101100000" in out

    def test_run_csv(self, capsys):
        assert main(["run", "table1", "--scale", "tiny", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "value,regular rounding,CAMP rounding" in out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99", "--scale", "tiny"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_gen_and_simulate(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        assert main(["gen-trace", "three-cost", path,
                     "--keys", "100", "--requests", "1000"]) == 0
        out = capsys.readouterr().out
        assert "wrote 1000 requests" in out
        assert main(["simulate", path, "--policy", "camp",
                     "--ratio", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "cost-miss ratio" in out
        assert "miss rate" in out

    def test_simulate_all_registered_policies(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        main(["gen-trace", "three-cost", path,
              "--keys", "50", "--requests", "400"])
        capsys.readouterr()
        for policy in ("lru", "gds", "pooled-lru", "gdsf"):
            assert main(["simulate", path, "--policy", policy]) == 0
            capsys.readouterr()

    def test_tenancy_prints_three_tables(self, capsys):
        assert main(["tenancy", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "total miss cost by scheme" in out
        assert "arbitrated per-tenant breakdown" in out
        assert "allocation timeline" in out
        assert "shared-camp" in out and "static-50/50" in out

    def test_tenancy_csv(self, capsys):
        assert main(["tenancy", "--scale", "tiny", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "scheme,total_miss_cost" in out

    @pytest.mark.parametrize("kind", ["var-size", "equi-size", "bg",
                                      "phased"])
    def test_gen_trace_kinds(self, tmp_path, capsys, kind):
        path = str(tmp_path / f"{kind}.csv.gz")
        assert main(["gen-trace", kind, path,
                     "--keys", "50", "--requests", "500"]) == 0
        assert "wrote" in capsys.readouterr().out


class TestPersistCommands:
    def _trace(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        assert main(["gen-trace", "three-cost", path,
                     "--keys", "80", "--requests", "2000"]) == 0
        return path

    def test_persist_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["persist"])

    def test_save_inspect_restore_compact_round_trip(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        state = str(tmp_path / "state")
        assert main(["persist", "save", trace, state, "--ratio", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "snapshot generation" in out

        assert main(["persist", "inspect", state]) == 0
        out = capsys.readouterr().out
        assert "policy camp" in out and "clean" in out

        assert main(["persist", "restore", state]) == 0
        out = capsys.readouterr().out
        assert "recovered generation" in out and "policy            : camp" in out

        assert main(["persist", "compact", state]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "fresh log has 0 operations" in out

    def test_save_warm_continues_by_default_and_cold_on_request(
            self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        state = str(tmp_path / "state")
        assert main(["persist", "save", trace, state]) == 0
        capsys.readouterr()
        assert main(["persist", "save", trace, state]) == 0
        assert "warm-continuing" in capsys.readouterr().out
        assert main(["persist", "save", trace, state, "--cold"]) == 0
        assert "warm-continuing" not in capsys.readouterr().out

    def test_restore_empty_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["persist", "restore", str(tmp_path / "nothing")]) == 1
        assert "no loadable snapshot" in capsys.readouterr().err

    def test_inspect_reports_corruption(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        state = tmp_path / "state"
        assert main(["persist", "save", trace, str(state)]) == 0
        capsys.readouterr()
        snapshots = sorted(state.glob("snapshot-*.snap"))
        snapshots[-1].write_bytes(b"\x00" * 32)
        assert main(["persist", "inspect", str(state)]) == 0
        assert "CORRUPT" in capsys.readouterr().out
