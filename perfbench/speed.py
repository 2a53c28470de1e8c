"""CPU time scaled to a reference speed of the machine.

The benchmark was written on a 2-core virtual machine whose cores change
speed by up to 2x as other guests come and go: fast and slow spells
alternate within tens of milliseconds and come in waves that last from a
second to a minute, and CPU time alone follows them.  `start()` arms an
interval timer: every `INTERVAL_S` seconds a signal handler times a
fixed stdlib kernel (sparse products of `Fraction` rows, the kind of
loop sialg spends its time in) with the collector off.  The speed is the
mean, over the last `WINDOW` samples, of the kernel's reference time
over its measured time; the slowest sample is left out, as an interrupt
can land in it.  `clock()` integrates CPU time weighted by that speed,
so it reads seconds at the reference speed: a fast spell speeds up the
kernel about as much as the program, and the product cancels, while a
change to the program moves it in full.  The handler's own time is left
out.  The timer runs on the wall clock, because a CPU-time timer makes
Linux read the process CPU clock at scheduler-tick resolution.  Before
`start()` (as in traced runs, whose wrappers count `Fraction`
multiplications) `clock()` is plain CPU time.
"""

import gc
import resource
import signal
import statistics
from collections import deque
from fractions import Fraction
from time import process_time

INTERVAL_S = 0.02  # seconds between speed samples
WINDOW = 15  # samples the speed is the mean of
# kernel CPU seconds at the reference speed: the median on the 2-core
# Xeon 2.1 GHz machine the benchmark was written on, in a slow spell
KERNEL_REFERENCE_S = 0.00043

_ROWS = [{(i * 5 + k) % 16: Fraction(i + k + 1, k + 2) for k in range(3)} for i in range(16)]

# (reference seconds up to `mark`, CPU time of the last sample, speed);
# replaced in one assignment, so `clock()` never sees half an update
_state = (0.0, process_time(), 1.0)
_in_handler = False
_recent: deque = deque(maxlen=WINDOW)


def _kernel():
    acc = {}
    for i, row in enumerate(_ROWS):
        for j, c in row.items():
            for k, d in _ROWS[j].items():
                p = c * d
                v = acc.get((i, k))
                acc[(i, k)] = p if v is None else v + p
    return acc


def _time_kernel():
    collecting = gc.isenabled()
    gc.disable()
    t0 = process_time()
    _kernel()
    _recent.append(process_time() - t0)
    if collecting:
        gc.enable()


def _speed() -> float:
    speeds = sorted(KERNEL_REFERENCE_S / max(t, 1e-6) for t in _recent)
    return statistics.fmean(speeds[1:])


def _sample(signum, frame):
    global _state, _in_handler
    if _in_handler:
        return
    _in_handler = True
    try:
        t0 = process_time()
        _time_kernel()
        virtual, mark, speed = _state
        _state = (virtual + (t0 - mark) * speed, process_time(), _speed())
    finally:
        _in_handler = False


def start():
    """Arm the speed sampler; `clock()` reads reference seconds from here on."""
    global _state
    _kernel()  # warm up before the first sample counts
    for _ in range(WINDOW):
        _time_kernel()
    _state = (_clock_self(), process_time(), _speed())
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _clock_self() -> float:
    virtual, mark, speed = _state
    return virtual + (process_time() - mark) * speed


def clock() -> float:
    """Reference seconds of this process plus the CPU seconds of the children
    it has waited for.

    sialg is compute-bound, so on cores of its own CPU time equals wall
    time times the cores busy.  Children count, unscaled, so work moved
    into a process pool costs what it costs.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return _clock_self() + children.ru_utime + children.ru_stime
