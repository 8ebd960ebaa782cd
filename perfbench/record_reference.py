"""Re-pin reference/ from the current library: one default-seed sweep of
each workload, keeping the CSVs the checks compare against.

    python3 perfbench/record_reference.py

Re-pinning changes the benchmark, so it belongs in a change of its own
that says why the output bytes moved.
"""

import shutil
import sys

import run  # pins the BLAS thread variables before numpy loads
import workloads
from checks import REFERENCE_DIR


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from ddlab import sweep
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        raw = workloads.workload_config(name, workloads.DEFAULT_SEED, run.PRESETS)
        out = run.OUT_DIR / f"reference-{name}"
        sweep.run_config(sweep.parse_config(raw), out)
        for csv_name in workloads.expected_rows(raw):
            shutil.copyfile(out / csv_name, REFERENCE_DIR / csv_name)
        shutil.rmtree(out)
        print(f"pinned {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
