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
that module needs.  :func:`lazy_exports` builds that front here and in
``repro.obs``, ``repro.comm``, ``repro.resilience``, ``repro.serve``
and ``repro.verify`` (DESIGN.md, "Start-up").
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for a package front that
    re-exports each whitespace-separated name in ``table[submodule]``
    from ``package.submodule`` and imports that submodule only when one
    of its names is first used (PEP 562)::

        __getattr__, __dir__, __all__ = lazy_exports(__name__, {
            "tracer": "Span Tracer span trace",
        })

    ``package.Name``, ``from package import Name`` and ``from package
    import *`` work as with eager imports; a resolved name is cached as
    a module attribute.  A table must not export a name that is also
    one of the package's submodules: importing that submodule would
    rebind the package attribute to the module.
    """
    origin = {name: sub for sub, names in table.items()
              for name in names.split()}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f".{origin[name]}", package)
        value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__, list(origin)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": "GPTConfig ParallelConfig",
    "parallel": "PTDTrainer",
    "schedule": "make_schedule gpipe_schedule one_f_one_b_schedule "
                "interleaved_schedule",
    "sim": "SimOptions simulate_iteration simulate_zero3_iteration",
})
__all__.append("__version__")
