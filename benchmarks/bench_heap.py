"""Heap guard: a warm training step faults in almost no pages.

``PTDTrainer`` keeps the heap a step frees resident
(``repro.nn.heap.keep_heap_resident``), so a warm step reuses
its numpy temporaries' pages instead of faulting them in again.  Each
guard builds one trainer at ``train_ptd``'s shapes (``bench/wl_train.py``)
in a fresh interpreter -- what a process faults depends on its heap
history: a single-worker trainer built after a coop one reads 0 either
way -- takes three warm steps and counts the minor faults of the next
three: the trainer's own process (``ru_minflt``) for the coop and the
single-worker trainer, each replica worker (field 10 of
``/proc/<pid>/stat``) for mp.  Counts, no clock.

Readings, faults a step, glibc's defaults -> the trainer's policy: coop
17 940-17 990 -> 39-41 (its own TrafficLog growing), single-worker
24 940-25 070 -> 0-2, each mp worker 7 868-7 875 -> 0-5.

With replica state outside the heap and the build's freed heap trimmed
(``repro.nn.heap.unforked_zeros``, ``release_freed_heap``): coop 11-17,
single-worker 0-2, each mp worker 0-2.

Two more guards read memory, not faults, each as one parameter vector,
8·P bytes (7.1 MiB), of a replica worker's peak resident set (VmHWM),
every reading in a fresh interpreter:

- A worker holds one replica whatever d is: its VmHWM at d = 4 minus at
  d = 2.  It reads -0.05 MiB (77.6 both).  With the pool forked before
  the parent builds its replicas but their vectors in the heap it read
  +3.5 MiB (76.0 -> 79.5 MiB); forked after, every worker also carried
  the parent's d replicas and read +21.8 MiB (106.0 -> 127.8 MiB).
- A worker forked while a warm coop trainer exists in its parent, as in
  the benchmark, holds none of it: its VmHWM minus that of a worker
  forked in a fresh interpreter.  It reads -0.2 MiB (77.5 against
  77.7); +42.8 MiB (129.1 against 86.3) while the coop trainer's
  vectors and moments lived in the heap and its freed heap stayed, and
  +42.6 MiB with the allocator minus ``MADV_DONTFORK``.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import GPTConfig, ParallelConfig
from repro.parallel import PTDTrainer

HERE = Path(__file__).resolve().parent

#: Faults a warm step may take, per process: far above the readings with
#: the policy, far below those without it.
BOUND = 500
#: ``train_ptd``'s model (``bench/wl_train.py``).
SHAPE = dict(num_layers=4, hidden_size=128, num_attention_heads=4,
             vocab_size=512, seq_length=64)
#: (p, t, d) of each trainer, microbatch 1, global batch 8 as there.
TRAINERS = {"coop": (2, 2, 2), "mp": (2, 2, 2), "single": (1, 1, 1)}
GLOBAL_BATCH = 8
WARM_STEPS = 3
COUNTED_STEPS = 3

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the policy is glibc's mallopt; the counts read /proc")


def _minor_faults(pid: int) -> int:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # fields after the parenthesised command name start at field 3
        return int(fh.read().rpartition(")")[2].split()[7])


def _new_trainer(p: int, t: int, d: int, backend: str,
                 shape: dict = SHAPE) -> tuple[PTDTrainer, np.ndarray]:
    """A batch of ``(ids, targets)``, then a new trainer with (p, t, d),
    microbatch 1 and ``GLOBAL_BATCH`` at ``shape``."""
    config = GPTConfig(**shape)
    rng = np.random.default_rng(0)
    batch = rng.integers(0, config.vocab_size,
                         size=(2, GLOBAL_BATCH, config.seq_length))
    parallel = ParallelConfig(
        pipeline_parallel_size=p, tensor_parallel_size=t,
        data_parallel_size=d, microbatch_size=1,
        global_batch_size=GLOBAL_BATCH)
    return PTDTrainer(config, parallel, backend=backend), batch


def warm_step_faults(which: str, shape: dict = SHAPE) -> list[int]:
    """Minor faults of each counted warm step of a new ``which`` trainer
    in this process: one count per step, or per step and worker on mp."""
    trainer, batch = _new_trainer(
        *TRAINERS[which], "mp" if which == "mp" else "coop", shape)
    with trainer:
        pids = ([proc.pid for proc in trainer._workers._procs]
                if which == "mp" else [os.getpid()])
        for _ in range(WARM_STEPS):
            trainer.train_step(*batch)
        counts = []
        for _ in range(COUNTED_STEPS):
            before = [_minor_faults(pid) for pid in pids]
            trainer.train_step(*batch)
            counts += [_minor_faults(pid) - b for pid, b in zip(pids, before)]
    return counts


def _peak_resident_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def worker_peak_bytes(d: int, after_coop: bool = False) -> tuple[int, int]:
    """Largest peak resident set (VmHWM) among the replica workers of a
    new mp trainer at ``train_ptd``'s shapes with ``d`` data-parallel
    replicas, after its warm steps, and P, its parameter count.  With
    ``after_coop`` the mp trainer is built while a coop trainer at
    ``train_ptd``'s (p, t, d), warm, exists in this process, as in the
    benchmark."""
    if after_coop:
        coop, batch = _new_trainer(*TRAINERS["coop"], "coop")
        for _ in range(WARM_STEPS):
            coop.train_step(*batch)
    trainer, batch = _new_trainer(2, 2, d, "mp")
    with trainer:
        for _ in range(WARM_STEPS):
            trainer.train_step(*batch)
        peak = max(_peak_resident_bytes(proc.pid)
                   for proc in trainer._workers._procs)
        return peak, trainer.spec.flat_size()


#: Python each new interpreter runs before it measures: a defect a test
#: plants there (``tests/test_guards_can_fail.py``), none by default.
PLANT = ""
#: The trainer's heap policy made a no-op, as if it were not there.
NO_HEAP_POLICY = """
from repro.nn import heap
heap.keep_heap_resident = lambda: None
"""

_CHILD = """
import json, sys
import bench_heap
name, args, plant = json.loads(sys.argv[1])
exec(plant)
print(json.dumps(getattr(bench_heap, name)(*args)))
"""


def _fresh(name: str, args: list, keep_heap: bool = True):
    """``name(*args)`` of this module in a new interpreter, BLAS at one
    thread as the benchmark runs it, after :data:`PLANT`;
    ``keep_heap=False`` also plants :data:`NO_HEAP_POLICY`."""
    plant = PLANT if keep_heap else PLANT + NO_HEAP_POLICY
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([name, args, plant])],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def in_fresh_process(which: str, shape: dict = SHAPE,
                     keep_heap: bool = True) -> list[int]:
    """:func:`warm_step_faults` in a new interpreter."""
    return _fresh("warm_step_faults", [which, shape], keep_heap)


@pytest.mark.parametrize("which", list(TRAINERS))
def test_warm_step_faults_no_pages(which):
    counts = in_fresh_process(which)
    assert max(counts) <= BOUND, f"{which}: {counts} faults a step"


def test_a_worker_holds_one_replica_whatever_d():
    # A worker forked after the parent built its d replicas in the heap
    # carried all of them: two more at d = 4 than at d = 2.  Forked
    # first, or with the replicas in mappings no fork copies, it holds
    # its own replica and the segments it reads.
    peak4, p = _fresh("worker_peak_bytes", [4])
    peak2, _ = _fresh("worker_peak_bytes", [2])
    growth = peak4 - peak2
    assert growth <= 8 * p, (
        f"a replica worker's peak RSS grows {growth / 2**20:.1f} MiB from "
        f"d = 2 to d = 4, more than one parameter vector "
        f"({8 * p / 2**20:.1f} MiB): it holds replicas it never reads")


def test_a_worker_forked_after_a_coop_trainer_carries_none_of_it():
    # The trainer's flat vectors and moments live in mappings no fork
    # copies, and the pool trims the freed heap before it forks, so a
    # worker starts as if its parent had built nothing else.
    after, p = _fresh("worker_peak_bytes", [2, True])
    fresh, _ = _fresh("worker_peak_bytes", [2])
    growth = after - fresh
    assert growth <= 8 * p, (
        f"a replica worker forked after a warm coop trainer peaks "
        f"{growth / 2**20:.1f} MiB above one forked in a fresh interpreter, "
        f"more than one parameter vector ({8 * p / 2**20:.1f} MiB): it "
        f"carries the coop trainer's pages")
