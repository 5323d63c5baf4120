"""Tests for the VM interpreter."""

import pytest

from repro.errors import MachineError
from repro.machine import CPU, Monitor, MonitorConfig, assemble


def run_source(src, **kw):
    cpu = CPU(assemble(src, **kw))
    cpu.run()
    return cpu


class TestArithmetic:
    @pytest.mark.parametrize(
        "body, expected",
        [
            ("PUSH 2\n PUSH 3\n ADD", 5),
            ("PUSH 7\n PUSH 3\n SUB", 4),
            ("PUSH 4\n PUSH 5\n MUL", 20),
            ("PUSH 17\n PUSH 5\n DIV", 3),
            ("PUSH -17\n PUSH 5\n DIV", -3),  # truncation toward zero
            ("PUSH 17\n PUSH 5\n MOD", 2),
            ("PUSH -17\n PUSH 5\n MOD", -2),  # C-style remainder
            ("PUSH 9\n NEG", -9),
            ("PUSH 3\n PUSH 3\n EQ", 1),
            ("PUSH 3\n PUSH 4\n NE", 1),
            ("PUSH 3\n PUSH 4\n LT", 1),
            ("PUSH 4\n PUSH 4\n LE", 1),
            ("PUSH 5\n PUSH 4\n GT", 1),
            ("PUSH 3\n PUSH 4\n GE", 0),
        ],
    )
    def test_binary_ops(self, body, expected):
        cpu = run_source(f".func main\n {body}\n OUT\n HALT\n.end\n")
        assert cpu.output == [expected]

    def test_division_by_zero_faults(self):
        with pytest.raises(MachineError, match="division by zero"):
            run_source(".func main\n PUSH 1\n PUSH 0\n DIV\n HALT\n.end\n")

    def test_stack_underflow_faults(self):
        with pytest.raises(MachineError, match="underflow"):
            run_source(".func main\n POP\n HALT\n.end\n")


class TestStackOps:
    def test_dup_swap(self):
        cpu = run_source(
            ".func main\n PUSH 1\n PUSH 2\n SWAP\n OUT\n OUT\n PUSH 9\n DUP\n OUT\n OUT\n HALT\n.end\n"
        )
        assert cpu.output == [1, 2, 9, 9]


class TestLocalsAndGlobals:
    def test_locals_are_per_frame(self):
        src = """
.func main
    PUSH 11
    STORE 0
    CALL clobber
    LOAD 0
    OUT
    HALT
.end
.func clobber
    PUSH 99
    STORE 0
    RET
.end
"""
        assert run_source(src).output == [11]

    def test_globals_shared(self):
        src = """
.globals 1
.func main
    PUSH 5
    GSTORE 0
    CALL reader
    HALT
.end
.func reader
    GLOAD 0
    OUT
    RET
.end
"""
        assert run_source(src).output == [5]

    def test_global_out_of_range_faults(self):
        with pytest.raises(MachineError, match="global slot"):
            run_source(".func main\n PUSH 1\n GSTORE 7\n HALT\n.end\n")


class TestControlFlow:
    def test_loop_counts(self):
        src = """
.func main
    PUSH 5
    STORE 0
loop:
    LOAD 0
    OUT
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end
"""
        assert run_source(src).output == [5, 4, 3, 2, 1]

    def test_call_and_return_value(self):
        src = """
.func main
    PUSH 20
    PUSH 22
    CALL add2
    OUT
    HALT
.end
.func add2
    STORE 0
    STORE 1
    LOAD 0
    LOAD 1
    ADD
    RET
.end
"""
        assert run_source(src).output == [42]

    def test_indirect_call(self):
        src = """
.func main
    PUSH &f
    CALLI
    OUT
    HALT
.end
.func f
    PUSH 7
    RET
.end
"""
        assert run_source(src).output == [7]

    def test_ret_from_entry_halts(self):
        cpu = run_source(".func main\n RET\n.end\n")
        assert cpu.halted

    def test_call_to_bad_address_faults(self):
        with pytest.raises(MachineError, match="bad address"):
            run_source(".func main\n PUSH 3\n CALLI\n HALT\n.end\n")

    def test_runaway_recursion_faults(self):
        src = ".func main\n CALL main\n.end\n"
        with pytest.raises(MachineError, match="call stack overflow"):
            run_source(src)

    def test_pc_outside_text_faults(self):
        # Fall off the end of the text segment.
        with pytest.raises(MachineError, match="outside text"):
            run_source(".func main\n NOP\n.end\n")


class TestClockAndBudgets:
    def test_cycle_costs_accumulate(self):
        cpu = run_source(".func main\n WORK 100\n HALT\n.end\n")
        # WORK base 1 + 100 extra + HALT 1.
        assert cpu.cycles == 102

    def test_run_max_instructions_resumable(self):
        src = ".func main\n PUSH 1\n PUSH 2\n PUSH 3\n HALT\n.end\n"
        cpu = CPU(assemble(src))
        cpu.run(max_instructions=2)
        assert not cpu.halted
        assert cpu.instructions_executed == 2
        cpu.run()
        assert cpu.halted

    def test_run_max_cycles(self):
        src = ".func main\nloop:\n WORK 9\n JMP loop\n.end\n"
        cpu = CPU(assemble(src))
        cpu.run(max_cycles=100)
        assert 100 <= cpu.cycles <= 111
        assert not cpu.halted

    def test_step_after_halt_faults(self):
        cpu = run_source(".func main\n HALT\n.end\n")
        with pytest.raises(MachineError, match="halted"):
            cpu.step()


class TestSampling:
    def _monitored(self, src, cycles_per_tick):
        exe = assemble(src, profile=True)
        mon = Monitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=cycles_per_tick)
        )
        cpu = CPU(exe, mon)
        cpu.run()
        return cpu, mon

    def test_ticks_land_in_working_routine(self):
        src = """
.func main
    CALL burner
    HALT
.end
.func burner
    WORK 1000
    RET
.end
"""
        cpu, mon = self._monitored(src, cycles_per_tick=10)
        exe = cpu.exe
        times = mon.histogram.time_for_symbols(exe.symbol_table())
        # Practically all samples must hit 'burner'.
        assert times["burner"] > 0.95 * mon.histogram.total_time

    def test_tick_count_tracks_cycles(self):
        src = ".func main\n WORK 995\n HALT\n.end\n"
        cpu, mon = self._monitored(src, cycles_per_tick=100)
        assert mon.histogram.total_ticks == cpu.cycles // 100

    def test_current_function_helper(self):
        src = ".func main\n NOP\n HALT\n.end\n"
        cpu = CPU(assemble(src))
        assert cpu.current_function == "main"
