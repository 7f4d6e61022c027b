"""Median per-call time of the hot primitives, at the sizes of ROADMAP aim 1.

    python3 bench/primitives.py                      # affine8, M in {900, 10^4, 10^5} x N in {16, 32, 128}
    python3 bench/primitives.py --family enriched14
    python3 bench/primitives.py --quick              # tiny sizes, for a smoke run

Times the package of the checkout this script lives in.  At each size
(M points, N layers) the inputs are seeded: M random sources on the
side-1.5 square, their targets under the builtin map, and an (N, l)
control of scale 0.5.  Each primitive runs once untimed, then ``REPEATS``
times; a row gives the median in ms, the same per point and layer in ns,
the peak of the memory that ``tracemalloc`` traces during one more untimed
call, above what was allocated before it, in MB, and the minor page faults
of one more untimed call (the ``ru_minflt`` delta of the process): memory
that the allocator hands back to the kernel faults again when it is taken
back, so a primitive whose arrays churn shows faults on every call.

- ``forward_euler`` and ``flow_endpoints`` of the sources;
- ``control_gradient`` the way the gd trainer runs it: on the trajectory
  of a ``forward_euler`` flow that wrote its (N, M) buffer of Gaussian
  weights, which the gradient reads back.  The buffer is N M floats, 102.4
  MB at M 10^5, N 128; it is made once, outside the timed calls;
- ``gd_passes``: ``train_gradient_flow`` with ``max_iter`` 2, that is the
  initial flow and cost, one gradient and two proposals;
- ``pmp_pass``: ``train_pmp`` with ``max_iter`` 1, that is the initial
  flow and cost, the covector transport and one maximization sweep.
  Its N covector factors make it the largest: at M 10^5, N 128 one call
  peaks at 1.05 GB traced and 1.3 GB resident on either family;
- ``pmp_passes``: ``train_pmp`` with ``max_iter`` 4, so that the loop
  transports again after accepted passes, into the buffers of the first
  transport; it peaks at 1.17 GB traced and 1.4 GB resident there;
- ``build_metrics`` with the sources as probes, which includes their flow.

Uses the machine as it is: no thread or CPU settings are changed, so pin
BLAS threads in the environment if they matter.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diffeoflow import (  # noqa: E402
    ControlGrid,
    Dataset,
    TrainConfig,
    build_metrics,
    builtin_target,
    family_from_name,
    flow_endpoints,
    forward_euler,
    train_gradient_flow,
    train_pmp,
)
from diffeoflow.objective import control_gradient  # noqa: E402

POINTS = (900, 10_000, 100_000)
LAYERS = (16, 32, 128)
QUICK = ((30,), (4,))
REPEATS = 5
PRIMITIVES = (
    "forward_euler", "flow_endpoints", "control_gradient", "gd_passes", "pmp_pass", "pmp_passes", "build_metrics"
)


def calls(family, n_pts: int, n_layers: int) -> dict:
    """The primitives at one size, as argument-free callables on seeded inputs."""
    rng = np.random.Generator(np.random.Philox(n_pts + n_layers))
    sources = rng.uniform(-1.5, 1.5, size=(n_pts, 2))
    data = Dataset(sources, builtin_target()(sources))
    u = ControlGrid(rng.normal(scale=0.5, size=(n_layers, family.n_fields)))
    weights = np.empty((n_layers, n_pts))
    states = forward_euler(family, u, data.sources, weights=weights)
    cfg, gd_cfg, pmp_cfg = (TrainConfig(beta=1e-3, max_iter=n) for n in (1, 2, 4))
    return {
        "forward_euler": lambda: forward_euler(family, u, data.sources),
        "flow_endpoints": lambda: flow_endpoints(family, u, data.sources),
        "control_gradient": lambda: control_gradient(family, u, states, data.targets, cfg.beta, weights=weights),
        "gd_passes": lambda: train_gradient_flow(family, data, n_layers, gd_cfg, init=u),
        "pmp_pass": lambda: train_pmp(family, data, n_layers, cfg, init=u),
        "pmp_passes": lambda: train_pmp(family, data, n_layers, pmp_cfg, init=u),
        "build_metrics": lambda: build_metrics(family, u, None, data.sources, 0.0, 1.5),
    }


def median_seconds(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_traced_bytes(call) -> int:
    """The peak of the memory ``tracemalloc`` traces during one call, above what was traced before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def minor_faults(call) -> int:
    """The minor page faults of the process during one call."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/primitives.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", default="affine8", choices=("affine8", "enriched14"))
    parser.add_argument("--quick", action="store_true", help="tiny sizes and one call, for a smoke run")
    args = parser.parse_args(argv)
    points, layers = QUICK if args.quick else (POINTS, LAYERS)
    repeats = 1 if args.quick else REPEATS
    family = family_from_name(args.family)
    print(f"# {args.family}, median of {repeats} calls, numpy {np.__version__}")
    print(
        f"{'primitive':<18} {'M':>7} {'N':>4} {'median_ms':>11} {'ns_per_point_layer':>19} "
        f"{'peak_traced_mb':>15} {'minor_faults':>13}"
    )
    for n_pts in points:
        for n_layers in layers:
            primitives = calls(family, n_pts, n_layers)
            for name in PRIMITIVES:
                seconds = median_seconds(primitives[name], repeats)
                per = 1e9 * seconds / (n_pts * n_layers)
                peak = peak_traced_bytes(primitives[name]) / 1e6
                faults = minor_faults(primitives[name])
                print(
                    f"{name:<18} {n_pts:>7} {n_layers:>4} {1e3 * seconds:>11.4f} {per:>19.2f} {peak:>15.3f} "
                    f"{faults:>13}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
