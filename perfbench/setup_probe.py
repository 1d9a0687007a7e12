"""Print the host seconds a fresh interpreter spends before the first event.

That is the ``repro`` imports plus every ``build_runtime`` call of one
batch.  With ``calibrate`` instead of a workload it times a fixed import
of third-party modules, the same kind of work, which ``run.py`` uses to
cancel the host's speed drift out of ``setup_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed>   (PYTHONPATH=src)
       python3 perfbench/setup_probe.py calibrate
"""

import sys
import time

start = time.perf_counter()
if sys.argv[1] == "calibrate":
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.stats  # noqa: F401
else:
    from spec import WORKLOADS  # stdlib only; repro is imported by build
    from workloads import build, cells

    workload = WORKLOADS[sys.argv[1]]
    runtimes = [
        build(workload, k, platform, app, seed)
        for k, (_label, platform, app, seed) in enumerate(cells(workload, int(sys.argv[2])))
    ]
    if workload.replay:
        import repro.metrics.qoe  # noqa: F401  (the replay's imports)
print(time.perf_counter() - start)
