"""Heap guard: a warm training step faults in almost no pages.

``PTDTrainer`` keeps the heap a step frees resident
(``repro.parallel.trainer._keep_heap_resident``), so a warm step reuses
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


def warm_step_faults(which: str, shape: dict = SHAPE) -> list[int]:
    """Minor faults of each counted warm step of a new ``which`` trainer
    in this process: one count per step, or per step and worker on mp."""
    p, t, d = TRAINERS[which]
    parallel = ParallelConfig(
        pipeline_parallel_size=p, tensor_parallel_size=t,
        data_parallel_size=d, microbatch_size=1,
        global_batch_size=GLOBAL_BATCH)
    config = GPTConfig(**shape)
    rng = np.random.default_rng(0)
    batch = rng.integers(0, config.vocab_size,
                         size=(2, GLOBAL_BATCH, config.seq_length))
    with PTDTrainer(config, parallel, backend="mp" if which == "mp"
                    else "coop") as trainer:
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


_CHILD = """
import json, sys
import bench_heap
which, shape, keep_heap = json.loads(sys.argv[1])
if not keep_heap:
    from repro.parallel import trainer
    trainer._keep_heap_resident = lambda: None
print(json.dumps(bench_heap.warm_step_faults(which, shape)))
"""


def in_fresh_process(which: str, shape: dict = SHAPE,
                     keep_heap: bool = True) -> list[int]:
    """:func:`warm_step_faults` in a new interpreter, BLAS at one thread
    as the benchmark runs it; ``keep_heap=False`` makes the trainer's
    heap policy a no-op, as if it were not there."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD,
         json.dumps([which, shape, keep_heap])],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("which", list(TRAINERS))
def test_warm_step_faults_no_pages(which):
    counts = in_fresh_process(which)
    assert max(counts) <= BOUND, f"{which}: {counts} faults a step"
