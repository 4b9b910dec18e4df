"""What BENCHMARK.json cannot hold: set-up sampling, the layer predictions
and the calls each workload must make.

BENCHMARK.json, at the root of the repository, is the table of workloads
and metrics (names, units, better direction, bounds); run.py reads it.
"""

from __future__ import annotations

# set-up samples per untraced run (fresh interpreters; the median is reported)
SETUP_SAMPLES = 3

# Which end-to-end metric each layer's metrics should move, on which
# workload, written before any optimisation (cite by layer name).
PREDICTIONS = {
    "elliptic": {
        "metrics": ["elliptic.elliptic_data.*", "elliptic.tail_integral.*",
                    "elliptic.quad_nodes", "elliptic.budget_calls",
                    "elliptic.leggauss_s", "elliptic.leggauss_setup_s"],
        "moves": {"asymp_sweep": ["ops_per_s", "latency_tail_ms", "setup_s", "peak_rss_mb"],
                  "identity_sweep": ["ops_per_s"]},
        "unmoved": ["oracle_sweep"]},
    "two_gap": {
        "metrics": ["two_gap.derive_geometry.*", "two_gap.abel_map.*"],
        "moves": {"asymp_sweep": ["latency_p50_ms"]}, "unmoved": []},
    "theta": {
        "metrics": ["theta.theta_eval.*", "theta.transform_share"],
        "moves": {"identity_sweep": ["ops_per_s"], "asymp_sweep": ["latency_p50_ms"]},
        "unmoved": []},
    "asymptotics": {
        "metrics": ["asymptotics.select_regime.*", "asymptotics.expansion_*.*",
                    "asymptotics.regime_share.*"],
        "moves": {"asymp_sweep": ["ops_per_s"]}, "unmoved": []},
    "oracle": {
        "metrics": ["oracle.*"],
        "moves": {"oracle_sweep": ["ops_per_s", "latency_tail_ms", "ok_share",
                                  "digits_min"]},
        "unmoved": ["asymp_sweep", "identity_sweep"]},
    "identities": {
        "metrics": ["identities.*"],
        "moves": {"identity_sweep": ["ops_per_s", "digits_min"]}, "unmoved": []},
}

# wrapped functions and counters each workload must exercise in a traced run
EXPECTED = {
    "asymp_sweep": ["elliptic.elliptic_data", "elliptic.tail_integral",
                    "two_gap.derive_geometry", "theta.theta_eval",
                    "asymptotics.select_regime", "asymptotics.expansion_two_gap",
                    "asymptotics.expansion_merging", "elliptic.quad_nodes"],
    "oracle_sweep": ["oracle.fredholm_logdet", "oracle.nystrom_eigenvalues",
                     "oracle.leggauss", "asymptotics.expansion_two_gap",
                     "asymptotics.expansion_one_gap", "two_gap.derive_geometry",
                     "elliptic.elliptic_data", "theta.theta_eval"],
    "identity_sweep": ["identities.theta_identity_residual",
                       "identities.period_relation_residual", "identities.g1hat",
                       "identities.derivative_identity_residuals",
                       "identities.theta_integral_residuals", "theta.theta_eval",
                       "two_gap.derive_geometry", "two_gap.abel_map",
                       "elliptic.elliptic_data", "elliptic.tail_integral",
                       "identities.leggauss"],
}

