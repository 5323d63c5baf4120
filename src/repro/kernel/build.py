"""The simulated Berkeley-style kernel, as a VM program.

The retrospective's next challenge after user programs was "to adapt
the profiler to profile the Berkeley Unix kernel on which we were
working".  This module generates a kernel-shaped VM program with the
subsystems whose interactions made that interesting:

* a **scheduler** (``schedule → pick_proc → context_switch``);
* a **syscall layer** dispatching reads, writes, sends, receives;
* a **filesystem** with a buffer cache and occasional disk I/O;
* a **networking stack** whose layers (``netisr → ip_input →
  tcp_input → tcp_output → ip_output → if_output``) are fused into one
  large cycle by two low-count arcs: the loopback path
  (``if_output → netisr``) and TCP's ACK transmission
  (``tcp_input → tcp_output``).  "Because of the interactions of the
  kernel's major subsystems, there were several large cycles in the
  profiles" — this is that situation, reproduced;
* a **clock interrupt** (``hardclock → timeout``).

The kernel runs a main loop of ``iterations`` scheduling quanta and can
be executed in slices, so profiling can be controlled live (see
:mod:`repro.kernel.kgmon`) "without taking the kernel down".
"""

from __future__ import annotations

from repro.errors import KernelError

#: Routines belonging to the networking stack's big cycle.
NETWORK_CYCLE = (
    "netisr",
    "ip_input",
    "tcp_input",
    "tcp_output",
    "ip_output",
    "if_output",
)

#: The low-traversal-count arcs that close the cycle; removing them is
#: the retrospective's remedy.
CYCLE_CLOSING_ARCS = (
    ("if_output", "netisr"),    # loopback delivery
    ("tcp_input", "tcp_output"),  # ACK transmission
)


def build_kernel_source(
    iterations: int = 400,
    loopback_every: int = 5,
    ack_every: int = 7,
    disk_miss_every: int = 3,
) -> str:
    """Assembly source of the simulated kernel.

    Arguments:
        iterations: scheduling quanta executed by the main loop.
        loopback_every: every n-th packet leaving ``if_output`` is
            looped back into ``netisr`` (the rare cycle-closing arc).
        ack_every: every n-th segment entering ``tcp_input`` triggers an
            ACK through ``tcp_output`` (the other closing arc).
        disk_miss_every: every n-th buffer-cache lookup misses and goes
            to ``disk_read``.

    All ``*_every`` knobs must be at least 2: re-entrant packets carry
    sequence number 1, so a modulus of 1 would recurse forever — just
    like a loopback storm in a real stack.
    """
    if min(loopback_every, ack_every, disk_miss_every) < 2:
        raise KernelError("loopback/ack/disk knobs must be >= 2")
    if iterations < 1:
        raise KernelError("iterations must be >= 1")
    return f"""
; ---- simulated time-sharing kernel ----------------------------------
.func kernel_main
    PUSH {iterations}
    STORE 0
loop:
    LOAD 0
    CALL schedule
    LOAD 0
    CALL syscall
    LOAD 0
    PUSH 4
    MOD
    JNZ no_net
    LOAD 0
    CALL netisr
no_net:
    LOAD 0
    PUSH 10
    MOD
    JNZ no_clock
    CALL hardclock
no_clock:
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end

; ---- scheduler -------------------------------------------------------
.func schedule
    STORE 0
    WORK 6
    LOAD 0
    CALL pick_proc
    CALL context_switch
    RET
.end

.func pick_proc
    STORE 0
    WORK 8
    RET
.end

.func context_switch
    WORK 10
    RET
.end

; ---- syscall dispatch -------------------------------------------------
.func syscall
    STORE 0
    WORK 3
    LOAD 0
    PUSH 4
    MOD
    STORE 1
    LOAD 1
    JZ do_read
    LOAD 1
    PUSH 1
    EQ
    JNZ do_write
    LOAD 1
    PUSH 2
    EQ
    JNZ do_send
    LOAD 0
    CALL sys_recv
    RET
do_read:
    LOAD 0
    CALL sys_read
    RET
do_write:
    LOAD 0
    CALL sys_write
    RET
do_send:
    LOAD 0
    CALL sys_send
    RET
.end

; ---- filesystem --------------------------------------------------------
.func sys_read
    STORE 0
    WORK 4
    LOAD 0
    CALL fs_lookup
    RET
.end

.func sys_write
    STORE 0
    WORK 4
    LOAD 0
    CALL fs_lookup
    LOAD 0
    CALL bufcache_put
    RET
.end

.func fs_lookup
    STORE 0
    WORK 12
    LOAD 0
    CALL bufcache_get
    RET
.end

.func bufcache_get
    STORE 0
    WORK 6
    LOAD 0
    PUSH {disk_miss_every}
    MOD
    JNZ hit
    LOAD 0
    CALL disk_read
hit:
    RET
.end

.func bufcache_put
    STORE 0
    WORK 7
    RET
.end

.func disk_read
    STORE 0
    WORK 40
    RET
.end

; ---- networking stack ----------------------------------------------------
.func sys_send
    STORE 0
    WORK 3
    LOAD 0
    CALL sock_send
    RET
.end

.func sock_send
    STORE 0
    WORK 5
    LOAD 0
    CALL tcp_output
    RET
.end

.func tcp_output
    STORE 0
    WORK 12
    LOAD 0
    CALL ip_output
    RET
.end

.func ip_output
    STORE 0
    WORK 8
    LOAD 0
    CALL if_output
    RET
.end

.func if_output
    STORE 0
    WORK 6
    LOAD 0
    PUSH {loopback_every}
    MOD
    JNZ sent
    PUSH 1
    CALL netisr
sent:
    RET
.end

.func netisr
    STORE 0
    WORK 4
    LOAD 0
    CALL ip_input
    RET
.end

.func ip_input
    STORE 0
    WORK 8
    LOAD 0
    CALL tcp_input
    RET
.end

.func tcp_input
    STORE 0
    WORK 12
    LOAD 0
    PUSH {ack_every}
    MOD
    JNZ no_ack
    PUSH 1
    CALL tcp_output
no_ack:
    LOAD 0
    CALL sock_deliver
    RET
.end

.func sock_deliver
    STORE 0
    WORK 5
    RET
.end

.func sys_recv
    STORE 0
    WORK 3
    LOAD 0
    CALL sock_recv
    RET
.end

.func sock_recv
    STORE 0
    WORK 6
    RET
.end

; ---- clock ------------------------------------------------------------------
.func hardclock
    WORK 3
    CALL timeout
    RET
.end

.func timeout
    WORK 4
    RET
.end

; ---- device interrupt handler (dispatched asynchronously) --------------------
.func irq_device
    WORK 9
    CALL intr_ack
    RET
.end

.func intr_ack
    WORK 2
    RET
.end
"""
