"""Tests for the repro-check CLI and the gprof --lint integration."""

import json

import pytest

from repro.cli.check_cli import main as check_main
from repro.cli.gprof_cli import main as gprof_main
from repro.gmon import read_gmon, write_gmon
from repro.machine import assemble, run_profiled, static_call_graph
from repro.machine.programs import PROGRAMS

BROKEN = ".func main\n CALL f\n HALT\n.end\n.func f\n WORK 1\n.end\n"
WARN_ONLY = ".func main\n HALT\n.end\n.func orphan\n RET\n.end\n"


@pytest.fixture()
def profiled_fib(tmp_path):
    """fib's image and a fresh, matching gmon file."""
    src = PROGRAMS["fib"]()
    _, data = run_profiled(src, name="fib")
    gmon = tmp_path / "fib.gmon"
    write_gmon(data, str(gmon))
    return gmon


class TestExitCodes:
    def test_clean_program_exits_zero(self, capsys):
        assert check_main(["fib"]) == 0
        out = capsys.readouterr().out
        assert "no problems found" in out
        assert "0 error(s), 0 warning(s)" in out

    def test_errors_exit_one(self, tmp_path, capsys):
        src = tmp_path / "broken.s"
        src.write_text(BROKEN)
        assert check_main([str(src)]) == 1
        assert "GP103" in capsys.readouterr().out

    def test_warnings_exit_zero_without_strict(self, tmp_path, capsys):
        src = tmp_path / "warn.s"
        src.write_text(WARN_ONLY)
        assert check_main([str(src)]) == 0
        assert "GP102" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        src = tmp_path / "warn.s"
        src.write_text(WARN_ONLY)
        assert check_main(["--strict", str(src)]) == 1

    def test_missing_target_is_usage_error(self, capsys):
        assert check_main([]) == 2
        assert "TARGET" in capsys.readouterr().err

    def test_unknown_target_is_usage_error(self, tmp_path, capsys):
        assert check_main([str(tmp_path / "nope.s")]) == 2
        assert "repro-check:" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_is_deterministic(self, tmp_path, capsys):
        src = tmp_path / "broken.s"
        src.write_text(BROKEN)
        check_main(["--json", str(src)])
        first = capsys.readouterr().out
        check_main(["--json", str(src)])
        second = capsys.readouterr().out
        assert first == second

    def test_json_shape(self, tmp_path, capsys):
        src = tmp_path / "broken.s"
        src.write_text(BROKEN)
        check_main(["--json", str(src)])
        blob = json.loads(capsys.readouterr().out)
        assert blob["format"] == "repro-check-1"
        assert blob["summary"]["errors"] >= 1
        codes = [d["code"] for d in blob["diagnostics"]]
        assert codes == sorted(codes) or len(codes) > 1  # stable order
        assert "GP103" in codes

    def test_list_codes_covers_registry(self, capsys):
        assert check_main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in ("GP101", "GP201", "GP306"):
            assert code in out


class TestGmonValidation:
    def test_matching_gmon_is_clean(self, profiled_fib, capsys):
        assert check_main(["fib", str(profiled_fib)]) == 0
        assert "no problems found" in capsys.readouterr().out

    def test_corrupted_gmon_is_rejected(self, profiled_fib, tmp_path, capsys):
        data = read_gmon(str(profiled_fib))
        data.arcs[-1] = type(data.arcs[-1])(6, data.arcs[-1].self_pc, 1)
        bad = tmp_path / "bad.gmon"
        write_gmon(data, str(bad))
        assert check_main(["fib", str(bad)]) == 1
        assert "GP303" in capsys.readouterr().out

    def test_wrong_program_gmon_is_rejected(self, profiled_fib, capsys):
        # deep's gmon validated against fib's (smaller) image.
        src = PROGRAMS["deep"]()
        _, data = run_profiled(src, name="deep")
        gmon = profiled_fib.parent / "deep.gmon"
        write_gmon(data, str(gmon))
        rc = check_main(["fib", str(gmon)])
        assert rc == 1
        assert "GP3" in capsys.readouterr().out


class TestGprofLintFlag:
    def _materialize(self, tmp_path, src, name):
        exe = assemble(src, name=name, profile=True)
        _, data = run_profiled(src, name=name)
        image = tmp_path / f"{name}.vmexe"
        exe.save(str(image))
        gmon = tmp_path / f"{name}.gmon"
        write_gmon(data, str(gmon))
        return image, gmon

    def test_clean_profile_lints_silently(self, tmp_path, capsys):
        image, gmon = self._materialize(
            tmp_path, PROGRAMS["fib"](), "fib"
        )
        assert gprof_main(["--lint", str(image), str(gmon)]) == 0
        captured = capsys.readouterr()
        assert "repro-check" not in captured.err
        assert "call graph profile" in captured.out  # normal report ran

    def test_findings_go_to_stderr_and_report_continues(
        self, tmp_path, capsys
    ):
        image, gmon = self._materialize(
            tmp_path, PROGRAMS["fib"](), "fib"
        )
        data = read_gmon(str(gmon))
        data.arcs.append(type(data.arcs[0])(6, data.arcs[0].self_pc, 1))
        write_gmon(data, str(gmon))
        assert gprof_main(["--lint", str(image), str(gmon)]) == 0
        captured = capsys.readouterr()
        assert "GP303" in captured.err
        assert "call graph profile" in captured.out

    @pytest.mark.parametrize(
        "flags,options",
        [
            pytest.param(["--lint"], lambda exe: {}, id="--lint"),
            pytest.param(["--expect"], lambda exe: {}, id="--expect"),
            pytest.param(
                ["--lint", "-C", "5"],
                lambda exe: {"auto_break_cycles": True, "max_removed_arcs": 5},
                id="--lint -C 5",
            ),
            pytest.param(
                ["--lint", "-E", "tcp_output"],
                lambda exe: {"excluded": ["tcp_output"]},
                id="--lint -E tcp_output",
            ),
            pytest.param(
                ["--lint", "--static"],
                lambda exe: {"static_arcs": sorted(static_call_graph(exe))},
                id="--lint --static",
            ),
            pytest.param(
                ["--lint", "-k", "tcp_input/tcp_output"],
                lambda exe: {"deleted_arcs": [("tcp_input", "tcp_output")]},
                id="--lint -k tcp_input/tcp_output",
            ),
        ],
    )
    def test_lint_and_listing_share_one_analysis(
        self, tmp_path, capsys, flags, options
    ):
        # The lint's GP5xx check analyzes with the listing's options
        # through the session cache, so the listing replays all five
        # cache groups instead of analyzing again; the diagnostics are
        # those of an uncached lint with the same options.
        from repro.check import check_executable
        from repro.core import AnalysisOptions
        from repro.pipeline import ProfileSession

        image, gmon = self._materialize(
            tmp_path, PROGRAMS["netcycle"](), "netcycle"
        )
        data = read_gmon(str(gmon))
        data.arcs.append(type(data.arcs[0])(6, data.arcs[0].self_pc, 1))
        write_gmon(data, str(gmon))
        session = ProfileSession.from_image(str(image))
        uncached = check_executable(
            session.exe, [session.load([str(gmon)])], ["<summed gmon>"],
            flow=flags[0] == "--expect",
            options=AnalysisOptions(**options(session.exe)),
        ).render_text()
        assert "GP303" in uncached
        assert gprof_main([*flags, "--timings", str(image), str(gmon)]) == 0
        err = capsys.readouterr().err
        assert err.startswith(uncached)
        assert err[len(uncached):].startswith("pipeline timings (")
        assert "cache 5 hit(s) / 0 miss(es)" in err

    def test_lint_requires_vm_image(self, tmp_path, capsys):
        src = PROGRAMS["fib"]()
        exe = assemble(src, name="fib", profile=True)
        _, data = run_profiled(src, name="fib")
        table = tmp_path / "fib.sym"
        exe.symbol_table().save(str(table))
        gmon = tmp_path / "fib.gmon"
        write_gmon(data, str(gmon))
        assert gprof_main(["--lint", str(table), str(gmon)]) == 1
        assert "--lint" in capsys.readouterr().err


class TestFlowFlag:
    def test_flow_clean_on_canned_program(self, capsys):
        assert check_main(["--flow", "--strict", "fib"]) == 0
        assert "no problems found" in capsys.readouterr().out

    def test_flow_surfaces_gp6_findings(self, tmp_path, capsys):
        src = tmp_path / "const.s"
        src.write_text(
            ".func main\n PUSH 1\n JNZ skip\n WORK 5\nskip:\n HALT\n.end\n"
        )
        assert check_main(["--flow", str(src)]) == 0  # warnings only
        out = capsys.readouterr().out
        assert "GP601" in out and "GP605" in out
        # Without the flag the dataflow battery stays off.
        assert check_main([str(src)]) == 0
        assert "GP601" not in capsys.readouterr().out

    def test_flow_with_matching_gmon_stays_clean(self, profiled_fib, capsys):
        assert check_main(
            ["--flow", "--strict", "fib", str(profiled_fib)]
        ) == 0
        assert "no problems found" in capsys.readouterr().out


class TestGprofExpectFlag:
    def test_expect_annotates_flat_profile(self, tmp_path, capsys):
        src = PROGRAMS["fib"]()
        exe = assemble(src, name="fib", profile=True)
        _, data = run_profiled(src, name="fib")
        image = tmp_path / "fib.vmexe"
        exe.save(str(image))
        gmon = tmp_path / "fib.gmon"
        write_gmon(data, str(gmon))
        assert gprof_main(
            ["--expect", "--flat-only", str(image), str(gmon)]
        ) == 0
        captured = capsys.readouterr()
        assert "(±" in captured.out
        assert "GP6" not in captured.err  # healthy data: no findings

    def test_expect_requires_vm_image(self, tmp_path, capsys):
        src = PROGRAMS["fib"]()
        exe = assemble(src, name="fib", profile=True)
        _, data = run_profiled(src, name="fib")
        table = tmp_path / "fib.sym"
        exe.symbol_table().save(str(table))
        gmon = tmp_path / "fib.gmon"
        write_gmon(data, str(gmon))
        assert gprof_main(["--expect", str(table), str(gmon)]) == 1
        assert "--expect" in capsys.readouterr().err
