// The benchmark's four workloads: how each one's circuit, simulator
// configuration and read-out are made from the seed, and how its outputs
// are checked against the independent references.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "reference.hpp"
#include "trace.hpp"

namespace perfbench {

/// Every workload runs 18 qubits over 4 logical ranks of 16 blocks each
/// (4096 amplitudes, 64 KiB per block) on one worker: at one worker the
/// block cache's hit/miss split, and with it every codec call count,
/// repeats exactly from run to run.
inline constexpr int kQubits = 18;
inline constexpr int kRanks = 4;
inline constexpr int kBlocksPerRank = 16;
inline constexpr int kWorkers = 1;

const std::vector<std::string>& workload_names();

struct Instance {
  std::string workload;
  /// Qubit q of the fixed instance is qubit relabeling[q] of the circuit
  /// run; only the block-indexing qubits move among themselves, and the
  /// rank-indexing ones among themselves.
  std::vector<int> relabeling;
  cqs::qsim::Circuit circuit{1};  ///< relabeled
  cqs::core::SimConfig config;
  std::vector<std::pair<int, int>> edges;  ///< qaoa_ladder, relabeled
  std::uint64_t marked = 0;                ///< grover_search, before relabeling
  int grover_data_qubits = 0;
  int grover_iterations = 0;
  std::uint64_t basis_input = 0;  ///< qft_zfp, before relabeling
  int shots = 0;
};

/// Builds the workload's inputs from `seed`; `work_dir` holds the spill
/// file of the out-of-core workload. `num_qubits` other than kQubits
/// (18 or 20) only serves the paper-scale codec replay.
Instance make_instance(const std::string& workload, std::uint64_t seed,
                       const std::string& work_dir, int num_qubits = kQubits);

struct Readout {
  std::vector<double> values;  ///< <Z_u Z_v> per edge, or P(1) per qubit
  std::vector<std::uint64_t> samples;
  std::uint64_t queries = 0;
};

/// The workload's read-out queries on the final compressed state, one
/// span each when traced. Shots draw from an Rng seeded with `shot_seed`.
Readout read_out(const Instance& instance,
                 cqs::core::CompressedStateSimulator& sim,
                 std::uint64_t shot_seed, Tracer* tracer);

/// The exact final state, computed without the compressed simulator.
std::vector<Complex> reference_state(const Instance& instance);

/// Attempted/failed operation counts plus the first few failure messages.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool wrong_output = false;
  std::vector<std::string> failures;

  /// One correctness check; a failed one is a wrong output.
  void check(bool ok, const std::string& what);
  /// Operations that raised an error instead of producing output.
  void errored(std::uint64_t operations, const std::string& what);
};

/// Checks one round's read-out against the reference: QAOA edges against
/// the closed form within 2 sqrt(1 - F_bound), probabilities within
/// sqrt(1 - F_bound), every shot inside the reference's support, and
/// Grover's shots on the marked state.
void check_readout(const Instance& instance, const std::vector<Complex>& ref,
                   const Readout& readout, double fidelity_bound,
                   Tally& tally);

/// Checks the pooled shots of all rounds of a sampling workload against
/// the reference's linear cross-entropy (within 5 standard errors).
void check_samples(const Instance& instance, const std::vector<Complex>& ref,
                   const std::vector<std::uint64_t>& samples, Tally& tally);

/// Runs the reference self-tests at small n, counting each as a check.
void run_self_tests(Tally& tally);

}  // namespace perfbench
