"""End-to-end plan for the trillion-parameter run (the paper's headline).

Walks through everything §5 reports for the 1T model on 3072 A100s:
the parameter count (eq. 2), FLOPs per iteration (eq. 3), the simulated
iteration and achieved 52%-of-peak throughput (Table 1, last row), the
effective communication bandwidths (§5.9), checkpoint I/O (§5.10), and
the ~3-month training-time estimate (eq. 4).

Run:  python examples/trillion_param_plan.py
"""

from repro.config import ParallelConfig, gpt_1t
from repro.experiments import bisection
from repro.io_sim import checkpoint_size_bytes, load_time, save_time
from repro.perf import memory_footprint, training_time_days
from repro.sim import SimOptions, simulate_iteration


def main() -> None:
    model = gpt_1t()
    parallel = ParallelConfig(
        pipeline_parallel_size=64,
        tensor_parallel_size=8,
        data_parallel_size=6,
        microbatch_size=1,
        global_batch_size=3072,
    )
    print(f"model: {model}")
    print(f"parameters (eq. 2): {model.num_parameters()/1e9:.1f}B")
    print(f"parallelization: {parallel.describe()} on "
          f"{parallel.world_size // 8} DGX A100 nodes")

    flops = model.flops_per_iteration(parallel.global_batch_size)
    print(f"\nFLOPs per iteration (eq. 3): {flops/1e18:.1f} EFLOP")

    res = simulate_iteration(model, parallel, options=SimOptions())
    print(f"simulated iteration: {res.iteration_time:.1f} s")
    print(f"  per-GPU    : {res.tflops_per_gpu:.0f} Tflop/s "
          f"({res.peak_fraction*100:.0f}% of the 312 Tflop/s peak; "
          f"paper: 163 / 52%)")
    print(f"  aggregate  : {res.aggregate_pflops:.0f} Pflop/s (paper: 502)")

    fp = memory_footprint(model, parallel, recompute=True)
    print(f"\nper-GPU memory: {fp.total/1e9:.1f} GB of 80 GB "
          f"(state {fp.model_state/1e9:.0f} + activations "
          f"{(fp.activations + fp.stage_inputs)/1e9:.1f})")

    print("\ncommunication (§5.9):")
    for metric, value, paper in bisection().rows:
        paper_s = f"(paper: {paper:g} GB/s)" if paper == paper else ""
        print(f"  {metric}: {value:,.0f} GB/s {paper_s}")

    size = checkpoint_size_bytes(model)
    lt = load_time(model, parallel, 384)
    st = save_time(model, parallel, 384)
    print(f"\ncheckpoint (§5.10): {size/1e12:.1f} TB "
          f"(paper: 13.8); load {lt.duration_seconds:.0f}s at "
          f"{lt.achieved_bandwidth/1e12:.1f} TB/s, save "
          f"{st.duration_seconds:.0f}s at {st.achieved_bandwidth/1e9:.0f} GB/s")

    days = training_time_days(
        model.num_parameters(), 450e9, parallel.world_size,
        res.tflops_per_gpu * 1e12,
    )
    print(f"\nend-to-end training on 450B tokens (eq. 4): {days:.0f} days "
          f"(paper: ~84 days / '~3 months')")


if __name__ == "__main__":
    main()
