"""Complete a low-rank matrix from a third of its entries.

Walks through the basic workflow: build a random rank-2 ground truth,
sample entries, run the greedy solver, and inspect the per-iteration
residual trace.  Ends with a rank search that recovers the true rank
without being told it.
"""

import numpy as np

from admira import (
    ProblemSpec,
    SolverConfig,
    admira_solve,
    generate_problem,
    rank_search,
    snr_recon,
)


def main():
    n = 200
    rank = 2
    p = int(0.35 * n * n)
    spec = ProblemSpec(n, n, rank, "sampling", p, snr_meas_db=None, seed=7)
    op, b, X0, _ = generate_problem(spec)
    print(f"completing a {n}x{n} rank-{rank} matrix from {p} entries "
          f"({100 * p / n**2:.0f}% observed)")

    report = admira_solve(op, b, SolverConfig(rank=rank), ground_truth=X0)
    print(f"\nstopped after {report.iterations} iterations ({report.stop_reason})")
    print("iter   relative residual   error vs truth")
    for i, (res, err) in enumerate(zip(report.residual_trace, report.error_trace), 1):
        print(f"{i:4d}   {res:17.3e}   {err:14.3e}")
    print(f"\nreconstruction SNR: {snr_recon(X0, report.solution):.1f} dB")

    # rank unknown: try ranks 1, 2, ... until one meets the residual bound
    found = rank_search(op, b, r_max=6, eta=1e-4)
    print(f"rank search: feasible={found.feasible}, rank={found.rank}")


if __name__ == "__main__":
    main()
