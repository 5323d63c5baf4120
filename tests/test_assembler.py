"""Tests for the VM assembler."""

import pytest

from repro.errors import AssemblerError
from repro.machine import INSTRUCTION_SIZE, Op, assemble


class TestLayout:
    def test_addresses_are_instruction_multiples(self):
        exe = assemble(".func main\n PUSH 1\n POP\n HALT\n.end\n")
        assert exe.high_pc == 3 * INSTRUCTION_SIZE
        assert [i.op for i in exe.instructions] == [Op.PUSH, Op.POP, Op.HALT]

    def test_function_records(self):
        exe = assemble(
            ".func main\n HALT\n.end\n.func f\n RET\n.end\n", name="prog"
        )
        assert [f.name for f in exe.functions] == ["main", "f"]
        main, f = exe.functions
        assert (main.entry, main.end) == (0, 4)
        assert (f.entry, f.end) == (4, 8)
        assert exe.entry_point == 0

    def test_entry_point_is_main(self):
        exe = assemble(".func f\n RET\n.end\n.func main\n HALT\n.end\n")
        assert exe.entry_point == exe.function_named("main").entry

    def test_symbol_table_matches_functions(self):
        exe = assemble(".func main\n HALT\n.end\n.func f\n RET\n.end\n")
        table = exe.symbol_table()
        assert table.by_name("main").address == 0
        assert table.by_name("f").size == 4

    def test_globals_directive(self):
        exe = assemble(".globals 3\n.func main\n HALT\n.end\n")
        assert exe.num_globals == 3


class TestLabels:
    def test_local_label_resolution(self):
        exe = assemble(
            ".func main\nloop:\n PUSH 1\n JNZ loop\n HALT\n.end\n"
        )
        jnz = exe.instructions[1]
        assert jnz.op is Op.JNZ
        assert jnz.operand == 0  # address of 'loop'

    def test_local_labels_are_per_function(self):
        exe = assemble(
            ".func main\nl:\n JMP l\n.end\n.func f\nl:\n JMP l\n.end\n"
        )
        assert exe.instructions[0].operand == 0
        assert exe.instructions[1].operand == 4

    def test_call_by_function_name(self):
        exe = assemble(".func main\n CALL f\n HALT\n.end\n.func f\n RET\n.end\n")
        assert exe.instructions[0].operand == exe.function_named("f").entry

    def test_address_of_function(self):
        exe = assemble(
            ".func main\n PUSH &f\n CALLI\n HALT\n.end\n.func f\n RET\n.end\n"
        )
        assert exe.instructions[0].operand == exe.function_named("f").entry


class TestProfilingPrologues:
    def test_profile_inserts_mcount(self):
        exe = assemble(".func main\n HALT\n.end\n", profile=True)
        assert exe.instructions[0].op is Op.MCOUNT
        assert exe.functions[0].profiled
        assert exe.profiled

    def test_noprofile_attribute(self):
        exe = assemble(
            ".func main\n HALT\n.end\n.func f noprofile\n RET\n.end\n",
            profile=True,
        )
        assert exe.function_named("main").profiled
        assert not exe.function_named("f").profiled

    def test_unprofiled_build_has_no_mcount(self):
        exe = assemble(".func main\n HALT\n.end\n", profile=False)
        assert all(i.op is not Op.MCOUNT for i in exe.instructions)

    def test_entry_address_stable_across_profiling(self):
        # Profiling shifts bodies but function entries stay the symbol
        # addresses; label targets must follow.
        src = ".func main\n CALL f\n HALT\n.end\n.func f\n RET\n.end\n"
        plain = assemble(src, profile=False)
        prof = assemble(src, profile=True)
        assert prof.instructions[1].operand == prof.function_named("f").entry
        assert plain.instructions[0].operand == plain.function_named("f").entry

    def test_handwritten_mcount_rejected(self):
        with pytest.raises(AssemblerError, match="MCOUNT"):
            assemble(".func main\n MCOUNT\n.end\n")


class TestErrors:
    def test_unknown_instruction(self):
        with pytest.raises(AssemblerError, match="FROB"):
            assemble(".func main\n FROB\n.end\n")

    def test_missing_operand(self):
        with pytest.raises(AssemblerError, match="operand"):
            assemble(".func main\n PUSH\n.end\n")

    def test_unexpected_operand(self):
        with pytest.raises(AssemblerError, match="no operand"):
            assemble(".func main\n POP 3\n.end\n")

    def test_unknown_label(self):
        with pytest.raises(AssemblerError, match="unknown label"):
            assemble(".func main\n JMP nowhere\n.end\n")

    def test_duplicate_function(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble(".func f\n RET\n.end\n.func f\n RET\n.end\n")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble(".func main\nl:\nl:\n HALT\n.end\n")

    def test_instruction_outside_func(self):
        with pytest.raises(AssemblerError, match="outside"):
            assemble("PUSH 1\n")

    def test_unterminated_func(self):
        with pytest.raises(AssemblerError, match="unterminated"):
            assemble(".func main\n HALT\n")

    def test_nested_func(self):
        with pytest.raises(AssemblerError, match="nested"):
            assemble(".func a\n.func b\n.end\n.end\n")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError) as exc:
            assemble(".func main\n HALT\n FROB\n.end\n")
        assert exc.value.line == 3

    def test_non_integer_operand(self):
        with pytest.raises(AssemblerError, match="integer"):
            assemble(".func main\n PUSH abc\n HALT\n.end\n")

    def test_address_of_unknown_function(self):
        with pytest.raises(AssemblerError, match="unknown function"):
            assemble(".func main\n PUSH &ghost\n HALT\n.end\n")


    def test_globals_rejects_non_decimal_digits(self):
        # '²' is a digit to str.isdigit() but not a decimal number.
        with pytest.raises(AssemblerError, match="takes one integer") as exc:
            assemble(".globals \u00b2\n.func main\n HALT\n.end\n")
        assert exc.value.line == 1

    def test_globals_accepts_other_decimal_scripts(self):
        exe = assemble(".globals \u0663\n.func main\n HALT\n.end\n")
        assert exe.num_globals == 3

    def test_label_is_not_a_function(self):
        # a local label shares the label namespace but is not callable
        src = ".func main\nl:\n CALL main.l\n HALT\n.end\n"
        with pytest.raises(AssemblerError, match="unknown label"):
            assemble(src)
        with pytest.raises(AssemblerError, match="unknown function"):
            assemble(".func main\nl:\n PUSH &main.l\n HALT\n.end\n")

    def test_forward_function_reference(self):
        exe = assemble(
            ".func main\n CALL f\n PUSH &f\n HALT\n.end\n"
            ".func f\n RET\n.end\n"
        )
        entry = exe.function_named("f").entry
        assert [i.operand for i in exe.instructions[:2]] == [entry, entry]


class TestPersistence:
    def test_executable_roundtrip(self, tmp_path):
        src = ".globals 2\n.func main\n PUSH 1\n CALL f\n HALT\n.end\n.func f\n RET\n.end\n"
        exe = assemble(src, name="prog", profile=True)
        path = tmp_path / "prog.vmexe"
        exe.save(path)
        from repro.machine import Executable

        back = Executable.load(path)
        assert back.to_dict() == exe.to_dict()

    def test_disassemble_lists_functions(self):
        exe = assemble(".func main\n HALT\n.end\n")
        text = exe.disassemble()
        assert "main:" in text
        assert "HALT" in text

    def test_bad_format_rejected(self):
        from repro.errors import MachineError
        from repro.machine import Executable

        with pytest.raises(MachineError):
            Executable.from_dict({"format": "nope"})
