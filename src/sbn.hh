/**
 * @file
 * Umbrella header for the sbn library: multiplexed single-bus network
 * analysis & simulation (reproduction of Llaberia, Valero, Herrada,
 * Labarta, ISCA 1985).
 *
 * Pulls in the full public API:
 *  - core/      the cycle-accurate single-bus simulator
 *  - analytic/  the paper's analytical models + baselines + extensions
 *  - baselines/ synchronous crossbar / multiple-bus simulators
 *  - stats/     estimation utilities
 *  - exec/      deterministic parallel replication / sweep execution
 *  - shard/     multi-process sharded sweeps: deterministic plans,
 *               serialized point records, merge + resume
 *  - workload/  reference patterns (hot-spot, favorite, weighted) and
 *               per-processor think models, with the generalized
 *               occupancy-chain cross-check
 *
 * Include the individual headers instead when compile time matters.
 */

#ifndef SBN_SBN_HH
#define SBN_SBN_HH

#include "analytic/crossbar.hh"
#include "analytic/detmva.hh"
#include "analytic/memprio.hh"
#include "analytic/multibus.hh"
#include "analytic/mva.hh"
#include "analytic/occupancy_chain.hh"
#include "analytic/procprio.hh"
#include "baselines/multibus_sim.hh"
#include "core/config.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/system.hh"
#include "core/fingerprint.hh"
#include "exec/adaptive.hh"
#include "exec/parallel_runner.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"
#include "markov/dtmc.hh"
#include "shard/fault.hh"
#include "shard/merge.hh"
#include "shard/plan.hh"
#include "shard/result_io.hh"
#include "shard/runner.hh"
#include "shard/supervisor.hh"
#include "stats/accumulator.hh"
#include "stats/histogram.hh"
#include "stats/replication.hh"
#include "util/cli.hh"
#include "util/combinatorics.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "workload/analytic.hh"
#include "workload/workload.hh"

#endif // SBN_SBN_HH
