"""Tests for the command-line tools."""

import json

import pytest

from repro.cli.gprof_cli import main as gprof_main
from repro.cli.kgmon_cli import main as kgmon_main
from repro.cli.prof_cli import main as prof_main
from repro.gmon import read_gmon, write_gmon
from repro.machine import assemble, run_profiled
from repro.machine.programs import abstraction, netcycle


@pytest.fixture()
def netcycle_files(tmp_path):
    src = netcycle()
    exe = assemble(src, name="netcycle", profile=True)
    image = tmp_path / "netcycle.vmexe"
    exe.save(image)
    gmons = []
    for i in range(2):
        _, data = run_profiled(src, name="netcycle")
        path = tmp_path / f"run{i}.gmon"
        write_gmon(data, path)
        gmons.append(path)
    return image, gmons


class TestGprofCli:
    def test_basic_listing(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        assert gprof_main([str(image), str(gmons[0])]) == 0
        out = capsys.readouterr().out
        assert "call graph profile:" in out
        assert "flat profile:" in out
        assert "ip_input" in out

    def test_multiple_gmons_are_summed(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        gprof_main([str(image), str(gmons[0])])
        one = capsys.readouterr().out
        gprof_main([str(image)] + [str(g) for g in gmons])
        two = capsys.readouterr().out
        t1 = float(one.split("total: ")[1].split(" ")[0])
        t2 = float(two.split("total: ")[1].split(" ")[0])
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_sum_file(self, netcycle_files, tmp_path, capsys):
        image, gmons = netcycle_files
        out_path = tmp_path / "gmon.sum"
        assert gprof_main(
            [str(image), str(gmons[0]), str(gmons[1]), "-s", str(out_path)]
        ) == 0
        summed = read_gmon(out_path)
        assert summed.runs == 2

    def test_arc_deletion_flag(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        assert gprof_main(
            [str(image), str(gmons[0]), "-k", "ip_output/ip_input"]
        ) == 0
        out = capsys.readouterr().out
        assert "arcs removed from the analysis" in out

    def test_bad_k_spec_errors(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        assert gprof_main([str(image), str(gmons[0]), "-k", "nope"]) == 1
        assert "FROM/TO" in capsys.readouterr().err

    def test_break_cycles_flag(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        assert gprof_main([str(image), str(gmons[0]), "-C", "3"]) == 0
        out = capsys.readouterr().out
        assert "ip_output -> ip_input" in out

    def test_exclude_flag(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        assert gprof_main(
            [str(image), str(gmons[0]), "-E", "disk_io", "--flat-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "disk_io" not in out

    def test_static_flag_needs_executable(self, netcycle_files, tmp_path, capsys):
        image, gmons = netcycle_files
        exe_syms = assemble(netcycle(), profile=True).symbol_table()
        syms_path = tmp_path / "syms.json"
        exe_syms.save(syms_path)
        assert gprof_main([str(syms_path), str(gmons[0]), "--static"]) == 1
        assert "VM executable" in capsys.readouterr().err

    def test_symbol_table_image_works(self, netcycle_files, tmp_path, capsys):
        _, gmons = netcycle_files
        syms = assemble(netcycle(), profile=True).symbol_table()
        syms_path = tmp_path / "syms.json"
        syms.save(syms_path)
        assert gprof_main([str(syms_path), str(gmons[0])]) == 0
        assert "ip_input" in capsys.readouterr().out

    def test_focus_flag(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        assert gprof_main(
            [str(image), str(gmons[0]), "-f", "disk_io", "--graph-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "disk_io" in out
        # entries unrelated to disk_io's descendants are not shown
        assert "sock_send [" not in out

    def test_json_output(self, netcycle_files, tmp_path, capsys):
        import json as json_mod

        image, gmons = netcycle_files
        json_path = tmp_path / "profile.json"
        assert gprof_main(
            [str(image), str(gmons[0]), "--json", str(json_path)]
        ) == 0
        data = json_mod.loads(json_path.read_text())
        assert data["format"] == "repro-profile-1"
        assert any(e["name"] == "ip_input" for e in data["entries"])
        assert data["cycles"]  # the netstack cycle exported

    def test_dot_output(self, netcycle_files, tmp_path, capsys):
        image, gmons = netcycle_files
        dot_path = tmp_path / "graph.dot"
        assert gprof_main(
            [str(image), str(gmons[0]), "--dot", str(dot_path)]
        ) == 0
        text = dot_path.read_text()
        assert text.startswith("digraph profile")
        assert '"main"' in text
        assert "cluster_cycle1" in text

    def test_missing_file_errors(self, tmp_path, capsys):
        assert gprof_main([str(tmp_path / "no.vmexe"), "nope.gmon"]) == 1
        assert "repro-gprof:" in capsys.readouterr().err

    def test_corrupt_image_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"something": 1}))
        gmon = tmp_path / "x.gmon"
        from repro.core import Histogram, ProfileData

        write_gmon(ProfileData(Histogram(0, 0, [])), gmon)
        assert gprof_main([str(bad), str(gmon)]) == 1


class TestProfCli:
    def test_flat_table(self, netcycle_files, capsys):
        image, gmons = netcycle_files
        assert prof_main([str(image), str(gmons[0])]) == 0
        out = capsys.readouterr().out
        assert "%time" in out
        assert "disk_io" in out

    def test_missing_file(self, capsys):
        assert prof_main(["ghost.vmexe", "ghost.gmon"]) == 1


class TestKgmonCli:
    def test_stops_early_when_kernel_finishes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # a tiny kernel cannot fill 50 windows; the CLI must stop at
        # the halt, having written however many it managed.
        assert kgmon_main(
            ["--iterations", "40", "--windows", "50",
             "--warmup-slices", "0", "--out-prefix", "tiny"]
        ) == 0
        out = capsys.readouterr().out
        written = out.count("window ")
        assert 1 <= written < 50

    def test_records_windows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert kgmon_main(
            ["--iterations", "300", "--windows", "2", "--out-prefix", "kern"]
        ) == 0
        out = capsys.readouterr().out
        assert "window 0:" in out
        assert (tmp_path / "kern.syms").exists()
        assert (tmp_path / "kern.window0.gmon").exists()
        assert (tmp_path / "kern.window1.gmon").exists()

    def test_windows_analyzable_by_gprof_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        kgmon_main(["--iterations", "300", "--windows", "1", "--out-prefix", "k"])
        capsys.readouterr()
        assert gprof_main(
            [
                "k.syms",
                "k.window0.gmon",
                "-k", "if_output/netisr",
                "-k", "tcp_input/tcp_output",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "tcp_output" in out
