"""repro -- reproduction of "Efficient Large-Scale Language Model Training
on GPU Clusters Using Megatron-LM" (Narayanan et al., SC '21).

The package has two halves:

1. **Exact numerics** (`repro.nn`, `repro.parallel`, `repro.comm`): a
   numpy transformer with hand-written backward passes, plus tensor /
   pipeline / data parallelism and a ZeRO-3 baseline implemented over
   virtual ranks with real ring collectives.  Training under any
   (p, t, d, v) is bit-identical to serial training -- the paper's
   "strict optimizer semantics".

2. **Performance simulation** (`repro.hardware`, `repro.sim`,
   `repro.perf`, `repro.io_sim`): a roofline kernel model of A100 GPUs,
   a fat-tree Selene-like cluster, and a discrete-event simulator that
   regenerates every table and figure of the paper's evaluation
   (`repro.experiments`, one function per table/figure;
   `python -m repro.experiments`).

Quickstart::

    from repro import GPTConfig, ParallelConfig, PTDTrainer

    model = GPTConfig(num_layers=4, hidden_size=64,
                      num_attention_heads=4, vocab_size=512, seq_length=32)
    parallel = ParallelConfig(pipeline_parallel_size=2,
                              tensor_parallel_size=2,
                              data_parallel_size=2,
                              microbatch_size=1, global_batch_size=8)
    trainer = PTDTrainer(model, parallel)
    loss = trainer.train_step(ids, targets)

The names below resolve on first use (PEP 562), so importing any
``repro.<module>`` -- the ``repro`` CLI above all -- loads only what
that module needs.
"""

__version__ = "1.0.0"

#: Each re-export and the subpackage it comes from.
_EXPORTS = {
    "GPTConfig": "config",
    "ParallelConfig": "config",
    "PTDTrainer": "parallel",
    "make_schedule": "schedule",
    "gpipe_schedule": "schedule",
    "one_f_one_b_schedule": "schedule",
    "interleaved_schedule": "schedule",
    "SimOptions": "sim",
    "simulate_iteration": "sim",
    "simulate_zero3_iteration": "sim",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
