"""Seeded inputs for the three benchmark workloads.

A workload's inputs depend only on its name and the seed, and every seed
gives the same number of cells per statement, so seeds change which cells
run but not how many. Candidate pools are fixed here; `make_golden.py`
records the verdict of every cell in every pool.

The functions that need the statement registry take it as an argument, so
this module imports nothing from qcong itself.
"""

from __future__ import annotations

import random

WORKLOADS = ("theorem_top", "proof_chain", "cli_report")

# theorem_top: the two largest cells of the default theorem grid per
# statement, n = 25 and alpha in {22, 24}. The seed decides which of t1 and
# t2 gets which alpha, so every alpha is checked by exactly one statement
# and the two share no cached q-binomials. Both splits cost the same within
# about 4 %, well inside the host's noise. Four alphas split two and two
# gave 9 s sweeps and only four repetitions per run; two cells give six.
THEOREM_N = 25
THEOREM_ALPHAS = (22, 24)
THEOREM_TAGS = ("t1", "t2")

# proof_chain: one cell drawn from each block of PROOF_BLOCK consecutive
# cells of every step_*/lemma_* default grid, restricted to n <= PROOF_N_MAX,
# so the sample follows the grid's own growth in n and alpha. The cost of a
# cell grows steeply with n: the n = 15 row alone holds the dozen heaviest
# cells, and whether a seed hits them moved the total work by about 8 %
# (interquartile range over seeds). Without them the spread is about 3.5 %,
# and the workload stays what it is for: many small operations. Large
# cells are theorem_top's job.
PROOF_N_MAX = 13
PROOF_BLOCK = 2

# cli_report: statements given to `qcong report`, and the pools the seed
# draws `compute` arguments from. The pools hold objects of similar size.
REPORT_TAGS = (
    "cor1a", "cor1b", "pan1", "pan2", "guozeng_01", "identity_t0",
    "cong_t0a", "step_a7", "step_b1", "step_b6", "guguo", "gsz_03",
)
COMPUTE_DRAWS = 2  # calls of each compute object per run
LEHMER_POOL = [(r, alpha) for r in (2, 3, 4, 5) for alpha in (1, 2, 3)]
LEHMER_COUNT = 60
EULER_COUNT_POOL = (240, 250, 260, 270, 280, 290, 300, 310)
CYCLOTOMIC_POOL = (840, 900, 924, 990, 1001, 1050, 1155, 1260)
MAX_JOBS = 4


def rng_for(workload: str, seed: int) -> random.Random:
    # A str seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def cell_key(statement: str, variant: str, params: dict) -> str:
    """Golden-table key of one verdict cell."""
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{statement}|{variant}|{inner}"


def compute_key(argv) -> str:
    return " ".join(argv)


def theorem_cells(seed: int) -> dict:
    """{tag: grid} for t1 and t2 at n = THEOREM_N, one alpha each."""
    alphas = list(THEOREM_ALPHAS)
    rng_for("theorem_top", seed).shuffle(alphas)
    return {tag: [{"n": THEOREM_N, "alpha": a}]
            for tag, a in zip(THEOREM_TAGS, alphas)}


def theorem_pool() -> dict:
    """{tag: grid} of every cell any seed can draw."""
    return {tag: [{"n": THEOREM_N, "alpha": a} for a in THEOREM_ALPHAS]
            for tag in THEOREM_TAGS}


def proof_tags(registry) -> list[str]:
    return [t for t in registry if t.startswith(("step_", "lemma_"))]


def proof_cells(seed: int, registry) -> dict:
    """{tag: grid} with one seed-drawn cell per block of each default grid."""
    rng = rng_for("proof_chain", seed)
    grids = {}
    for tag in proof_tags(registry):
        grid = [p for p in registry[tag].default_grid() if p["n"] <= PROOF_N_MAX]
        grids[tag] = [
            rng.choice(grid[i:i + PROOF_BLOCK])
            for i in range(0, len(grid), PROOF_BLOCK)
        ]
    return grids


def report_variants(stmt) -> list[str]:
    """Variants `qcong report` runs for a statement, in its order."""
    variants = [stmt.canonical_variant]
    if stmt.canonical_variant != "as_printed":
        variants.append("as_printed")
    return variants


def report_cells(registry) -> list[str]:
    """Golden keys of every record `qcong report` prints for REPORT_TAGS."""
    keys = []
    for tag in REPORT_TAGS:
        stmt = registry[tag]
        for variant in report_variants(stmt):
            keys.extend(cell_key(tag, variant, p) for p in stmt.default_grid())
    return keys


def lehmer_argv(r: int, alpha: int) -> list[str]:
    return ["compute", "lehmer-euler", "--r", str(r), "--alpha", str(alpha),
            "--count", str(LEHMER_COUNT)]


def euler_argv(count: int) -> list[str]:
    return ["compute", "euler-numbers", "--count", str(count)]


def cyclotomic_argv(n: int) -> list[str]:
    return ["compute", "cyclotomic", "--n", str(n)]


def compute_pool() -> list[list[str]]:
    """Every compute command any seed can draw."""
    return (
        [lehmer_argv(r, a) for r, a in LEHMER_POOL]
        + [euler_argv(c) for c in EULER_COUNT_POOL]
        + [cyclotomic_argv(n) for n in CYCLOTOMIC_POOL]
    )


def compute_calls(seed: int) -> list[list[str]]:
    """COMPUTE_DRAWS distinct draws from each compute pool."""
    rng = rng_for("cli_report", seed)
    calls = [lehmer_argv(r, a) for r, a in rng.sample(LEHMER_POOL, COMPUTE_DRAWS)]
    calls += [euler_argv(c) for c in rng.sample(EULER_COUNT_POOL, COMPUTE_DRAWS)]
    calls += [cyclotomic_argv(n) for n in rng.sample(CYCLOTOMIC_POOL, COMPUTE_DRAWS)]
    return calls


def report_jobs(nproc: int) -> int:
    """Worker count for `report --jobs`: nproc, at least 2 so the pool
    always runs, and at most MAX_JOBS to keep memory small."""
    return max(2, min(nproc, MAX_JOBS))
