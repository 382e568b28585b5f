"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; test_perfbench.py checks that the
two agree.
"""

# name -> (unit, better, bound)
END_TO_END = {
    "op_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

PER_CALL = (
    "graph6.decode_us",
    "graph.connected_us",
    "graph.bfs_us",
    "solver.dim_setup_us",
    "solver.edim_setup_us",
    "solver.dim_us",
    "solver.edim_us",
    "solver.edim_refute_us",
)
SUITE_NAMES = ("observation1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6", "theorem1", "theorem2")
LAYERS = ("bench", "graph6", "graph", "solver", "families", "scan", "verify", "cli")

# name -> (unit, better)
PER_LAYER = {
    **{
        name + suffix: unit
        for name in PER_CALL
        for suffix, unit in (("", ("us", "lower")), (".p99", ("us", "lower")), (".n", ("count", "higher")))
    },
    "scan.unattributed_us": ("us", "lower"),
    "scan.pool_efficiency": ("ratio", "higher"),
    "scan.checkpoint_ms": ("ms", "lower"),
    "scan.lt_matches": ("count", "higher"),
    "scan.gt_matches": ("count", "higher"),
    "scan.equal_dims": ("count", "higher"),
    "solver.dim_mean": ("landmarks", "lower"),
    "solver.edim_mean": ("landmarks", "lower"),
    "scan.lt_graphs_per_s": ("1/s", "higher"),
    "scan.gt_graphs_per_s": ("1/s", "higher"),
    "scan.lt_2w_graphs_per_s": ("1/s", "higher"),
    "scan.c08_hours_1w": ("h", "lower"),
    "scan.c08_hours_2w": ("h", "lower"),
    "scan.census_enumerate_us_per_mask": ("us", "lower"),
    "scan.census_solve_us_per_graph": ("us", "lower"),
    "scan.census_useful_ratio": ("ratio", "higher"),
    **{f"verify.{name}_s": ("s", "lower") for name in SUITE_NAMES},
    "solver.torus_dim_s": ("s", "lower"),
    "solver.torus_edim_s": ("s", "lower"),
    "families.make_chain_s": ("s", "lower"),
    "families.canonical_basis_s": ("s", "lower"),
    "families.realize_s": ("s", "lower"),
    "families.ratio_witness_s": ("s", "lower"),
    "graph6.encode_large_s": ("s", "lower"),
    "graph6.decode_large_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    **{f"self.{layer}_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.span_cost_us": ("us", "lower"),
    "src.lines": ("count", "lower"),
}

WORKLOAD_NAMES = ("g10-lt", "g10-gt", "census-6", "paper-suites", "paper-constructions")
