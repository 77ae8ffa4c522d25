#!/usr/bin/env python3
"""Write synthetic failure-time datasets for exercising the toolkit.

Produces three format-A files in the output directory:

* exact_line.txt  -- growth curve exactly on y = 1 + 2t (fixed-point check)
* changepoint.txt -- linear growth whose slope triples mid-stream
* go_sim.txt      -- one NHPP sample path from a Goel-Okumoto intensity
"""

import argparse
from pathlib import Path

import numpy as np

from tsarf import SrgmKind, SrgmParams, simulate_nhpp
from tsarf.report import write_failure_times


def write_times(path: Path, times, header: str) -> None:
    write_failure_times(path, [header], times)
    print(f"wrote {len(times):4d} failure times to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data-synth", help="output directory")
    parser.add_argument("--n", type=int, default=104, help="events per dataset")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    line_times = (np.arange(1, args.n + 1) - 1.0) / 2.0
    write_times(outdir / "exact_line.txt", line_times, "counts follow 1 + 2t exactly")

    half = args.n // 2
    gaps = np.concatenate(
        [60.0 * rng.uniform(0.8, 1.2, half), 20.0 * rng.uniform(0.8, 1.2, args.n - half)]
    )
    write_times(
        outdir / "changepoint.txt",
        np.cumsum(gaps),
        "linear growth, detection rate triples mid-stream",
    )

    params = SrgmParams(a=float(args.n * 1.2), b=0.004)
    write_times(
        outdir / "go_sim.txt",
        simulate_nhpp(SrgmKind.GO, params, horizon=600.0, seed=args.seed),
        f"goel-okumoto sample path, a={params.a} b={params.b} seed={args.seed}",
    )


if __name__ == "__main__":
    main()
