"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: ``child.py RECORD_PATH MODE [CLI_ARG ...]`` with MODE one of

* ``env``          -- import rdts.cli and record the interpreter, numpy and BLAS setup;
* ``time:KERNEL``  -- time ``import rdts.cli`` and one ``rdts.cli.main(CLI_ARGS)`` call;
* ``trace:KERNEL`` -- as ``time``, with every layer function wrapped in spans.

The reference kernel KERNEL (a key of ``KERNELS``) is also timed just before
and just after the call (``ref_s``), so ``run.py`` can tell how fast the host
ran while the call did.

The record is written as JSON to RECORD_PATH. Nothing but the standard
library is imported before the timed import of ``rdts.cli``.
"""

import json
import os
import resource
import sys
import time
import traceback


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_caps": {
            k: v for k, v in os.environ.items() if k.endswith(("_NUM_THREADS", "_MAX_THREADS"))
        },
    }


# The reference kernels depend on nothing in rdts, so a change to rdts cannot
# change their time; only the speed the host gives this process can.


def interpreter_s() -> float:
    """Time a kernel shaped like rdts's simulator loops: small numpy calls and dicts."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 64)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(6000):
        c = np.cumsum(a * 1.0001)
        acc += float(c[-1]) + int(np.searchsorted(c, 3.0))
        acc += sum({j: j * 0.5 for j in range(8)}.values())
    return time.perf_counter() - start


def memory_s() -> float:
    """Time a kernel shaped like the O(m^2) matrix passes: 40 MB arrays, allocated anew.

    Arrays above glibc's 32 MiB cap on its dynamic mmap threshold are mapped
    and unmapped without moving that threshold, so the kernel leaves the
    allocator as it found it. At most three are live (120 MB);
    ``peak_rss_mb`` sees them only if the call itself peaks lower.
    """
    import numpy as np

    x = np.ones(5_000_000)
    start = time.perf_counter()
    for _ in range(4):
        y = x * 1.5
        x = y - 0.5
    return time.perf_counter() - start


KERNELS = {"interpreter": interpreter_s, "memory": memory_s}


def main() -> int:
    record_path, cli_args = sys.argv[1], sys.argv[3:]
    mode, _, kernel = sys.argv[2].partition(":")
    start = time.perf_counter()
    import rdts.cli

    record = {"setup_s": time.perf_counter() - start, "rdts_file": rdts.cli.__file__}
    if mode == "env":
        record["env"] = environment()
    else:
        tracer = layers = None
        if mode == "trace":
            import spans

            layers = spans.load_layers()
            tracer = spans.install(layers)
        reference_s = KERNELS[kernel]
        ref_before = reference_s()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            record["exit_code"] = rdts.cli.main(cli_args)
        except Exception:  # an invocation that raises is a counted failure
            record["exit_code"] = None
            record["error"] = traceback.format_exc(limit=5)
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = time.process_time() - cpu0
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["ref_kernel"] = kernel
        record["ref_s"] = [ref_before, reference_s()]
        if tracer is not None:
            record["layers"] = tracer.summary(layers)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
