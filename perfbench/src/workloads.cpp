#include "workloads.hpp"

#include <bit>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <unistd.h>

#include "circuits/grover.hpp"
#include "circuits/qaoa.hpp"
#include "circuits/qft.hpp"
#include "circuits/supremacy.hpp"
#include "common/rng.hpp"
#include "core/memory_model.hpp"

namespace perfbench {
namespace {

using cqs::Rng;
using cqs::qsim::Circuit;

// QAOA angles of the repo's QaoaSpec defaults (p = 1, 4-regular graphs).
constexpr double kGamma = 1.3;
constexpr double kBeta = 0.7;

// Each workload is one fixed Table 2 instance (the bench_table2_main seeds
// and marked state); the run seed permutes the qubits that index blocks
// among themselves, and those that index ranks among themselves. That
// permutes whole blocks but leaves every block's contents, and every
// gate's routing class (block-local, block pair, rank pair), alone, so
// every seed runs a distinct circuit with the same codec work. Moving a
// qubit between the block and rank segments changes the work: on Grover
// it moves the compress call count from 4990 to 7508. Truly different
// inputs move the end-to-end figures by more than their bounds: over five
// random 4-regular graphs the QAOA minimum ratio spans 2.69-3.41 (it is a
// threshold statistic of where the ladder escalates), over five random
// supremacy circuits 2.35-3.19, and full relabelings change QAOA's codec
// call count by +-10%.
constexpr std::uint64_t kQaoaGraphSeed = 7;
constexpr std::uint64_t kGroverMarked = 0x25b;
constexpr std::uint64_t kSupremacySeed = 11;
constexpr std::uint64_t kQftInputSeed = 3;

/// A seeded permutation of qubits [low, n); qubits below `low` keep their
/// labels.
std::vector<int> seeded_permutation(int n, int low, Rng& rng) {
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  for (int i = n - 1; i > low; --i) {
    std::swap(perm[i], perm[low + rng.next_below(static_cast<std::uint64_t>(i - low) + 1)]);
  }
  return perm;
}

std::uint64_t relabel_index(std::uint64_t x, const std::vector<int>& perm) {
  std::uint64_t out = 0;
  for (std::size_t q = 0; q < perm.size(); ++q) {
    out |= ((x >> q) & 1u) << perm[q];
  }
  return out;
}

std::vector<Complex> relabel_state(const std::vector<Complex>& amps,
                                   const std::vector<int>& perm) {
  std::vector<Complex> out(amps.size());
  for (std::uint64_t i = 0; i < amps.size(); ++i) out[relabel_index(i, perm)] = amps[i];
  return out;
}

Circuit relabeled(const Circuit& circuit, const std::vector<int>& perm) {
  Circuit out(circuit.num_qubits());
  for (auto op : circuit.ops()) {
    op.target = perm[op.target];
    for (int& c : op.controls) {
      if (c >= 0) c = perm[c];
    }
    out.append(op);
  }
  return out;
}

Circuit qft_on_basis(int n, std::uint64_t x) {
  Circuit c(n);
  for (int q = 0; q < n; ++q) {
    if ((x >> q) & 1u) c.x(q);
  }
  const Circuit qft = cqs::circuits::qft_circuit(
      {.num_qubits = n, .random_input = false, .final_swaps = true});
  for (const auto& op : qft.ops()) c.append(op);
  return c;
}

int optimal_grover_iterations(int data_qubits) {
  const double theta = std::asin(std::pow(2.0, -0.5 * data_qubits));
  return static_cast<int>(std::floor(std::numbers::pi / (4 * theta)));
}

std::size_t budget_fraction(int n, double fraction) {
  return static_cast<std::size_t>(
      fraction * static_cast<double>(cqs::core::memory_required_bytes(n)));
}

double probability_one(const std::vector<Complex>& amps, int qubit) {
  double p = 0.0;
  for (std::uint64_t i = 0; i < amps.size(); ++i) {
    if ((i >> qubit) & 1u) p += std::norm(amps[i]);
  }
  return p;
}

double expectation_zz(const std::vector<Complex>& amps, int u, int v) {
  double e = 0.0;
  for (std::uint64_t i = 0; i < amps.size(); ++i) {
    const bool odd = (((i >> u) ^ (i >> v)) & 1u) != 0;
    e += odd ? -std::norm(amps[i]) : std::norm(amps[i]);
  }
  return e;
}

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "qaoa_ladder", "grover_search", "sup_outofcore", "qft_zfp"};
  return names;
}

Instance make_instance(const std::string& workload, std::uint64_t seed,
                       const std::string& work_dir, int n) {
  if (n != 18 && n != 20) throw std::invalid_argument("workloads run 18 or 20 qubits");
  Instance inst;
  inst.workload = workload;
  auto& c = inst.config;
  c.num_qubits = n;
  c.num_ranks = kRanks;
  c.blocks_per_rank = kBlocksPerRank;
  c.threads = kWorkers;
  Rng rng(seed);
  const int rank_qubits = std::countr_zero(unsigned{kRanks});
  const int block_qubits = std::countr_zero(unsigned{kBlocksPerRank});
  const int offset_qubits = n - rank_qubits - block_qubits;
  inst.relabeling = seeded_permutation(n - rank_qubits, offset_qubits, rng);
  const std::vector<int> ranks = seeded_permutation(n, n - rank_qubits, rng);
  inst.relabeling.insert(inst.relabeling.end(), ranks.end() - rank_qubits, ranks.end());
  Circuit circuit(n);
  if (workload == "qaoa_ladder") {
    // The paper's default codec at the Table 2 QAOA budget: 37.5% of
    // 2^{n+4}. Starts lossless, escalates the ladder to level 3.
    for (auto [u, v] : cqs::circuits::random_regular_graph(n, 4, kQaoaGraphSeed)) {
      inst.edges.emplace_back(inst.relabeling[u], inst.relabeling[v]);
    }
    circuit = cqs::circuits::qaoa_maxcut_circuit(
        {.num_qubits = n, .gamma = kGamma, .beta = kBeta, .seed = kQaoaGraphSeed});
    c.codec = "qzc";
    c.memory_budget_bytes = budget_fraction(n, 0.375);
  } else if (workload == "grover_search") {
    inst.grover_data_qubits = cqs::circuits::grover_data_qubits(n);
    inst.grover_iterations = optimal_grover_iterations(inst.grover_data_qubits);
    inst.marked = kGroverMarked;
    circuit = cqs::circuits::grover_circuit({.data_qubits = inst.grover_data_qubits,
                                             .marked_state = inst.marked,
                                             .iterations = inst.grover_iterations});
    c.codec = "qzc";
    c.memory_budget_bytes = budget_fraction(n, 0.01);
    inst.shots = 8;
  } else if (workload == "sup_outofcore") {
    // Lossless only, with a resident tier of 10% of 2^{n+4}: below the
    // compressed footprint, so the spill tier both writes and faults.
    circuit = cqs::circuits::supremacy_circuit({.rows = n == 20 ? 4 : 3,
                                                .cols = n == 20 ? 5 : 6,
                                                .depth = 11,
                                                .seed = kSupremacySeed});
    c.codec = "zstd";
    c.spill_path = work_dir + "/spill-" + std::to_string(::getpid()) + ".bin";
    c.resident_budget_bytes = budget_fraction(n, 0.10);
    inst.shots = 16;
  } else if (workload == "qft_zfp") {
    // The generator's seeded random X layer is the basis input. Identity
    // layout (remap off, the default), so the high-qubit gates cross ranks
    // and load the exchange path.
    circuit = cqs::circuits::qft_circuit({.num_qubits = n, .seed = kQftInputSeed});
    for (const auto& op : circuit.ops()) {
      if (op.kind != cqs::qsim::GateKind::kX) break;
      inst.basis_input |= std::uint64_t{1} << op.target;
    }
    c.codec = "zfp-rans";
    c.memory_budget_bytes = budget_fraction(n, 0.375);
    inst.shots = 8;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  inst.circuit = relabeled(circuit, inst.relabeling);
  return inst;
}

Readout read_out(const Instance& inst, cqs::core::CompressedStateSimulator& sim,
                 std::uint64_t shot_seed, Tracer* tracer) {
  Readout r;
  if (inst.workload == "qaoa_ladder") {
    for (auto [u, v] : inst.edges) {
      Scope span(tracer, "core.expectation_pauli_z");
      r.values.push_back(
          sim.expectation_pauli_z((std::uint64_t{1} << u) | (std::uint64_t{1} << v)));
    }
  } else if (inst.workload != "sup_outofcore") {
    for (int q = 0; q < inst.circuit.num_qubits(); ++q) {
      Scope span(tracer, "core.probability_one");
      r.values.push_back(sim.probability_one(q));
    }
  }
  Rng rng(shot_seed);
  for (int s = 0; s < inst.shots; ++s) {
    Scope span(tracer, "core.sample");
    r.samples.push_back(sim.sample(rng));
  }
  r.queries = r.values.size() + r.samples.size();
  return r;
}

std::vector<Complex> reference_state(const Instance& inst) {
  if (inst.workload == "grover_search") {
    return relabel_state(grover_state(inst.grover_data_qubits, inst.circuit.num_qubits(),
                                      inst.marked, inst.grover_iterations),
                         inst.relabeling);
  }
  if (inst.workload == "qft_zfp") {
    return relabel_state(qft_basis_state(inst.circuit.num_qubits(), inst.basis_input),
                         inst.relabeling);
  }
  DenseState dense(inst.circuit.num_qubits());
  dense.run(inst.circuit);
  return dense.amplitudes();
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  wrong_output = true;
  if (failures.size() < 8) failures.push_back(what);
}

void Tally::errored(std::uint64_t operations, const std::string& what) {
  attempted += operations;
  failed += operations;
  if (failures.size() < 8) failures.push_back(what);
}

void check_readout(const Instance& inst, const std::vector<Complex>& ref,
                   const Readout& r, double fidelity_bound, Tally& tally) {
  // A state at fidelity F moves any probability by at most sqrt(1 - F)
  // and a +-1-valued observable by twice that; 1e-9 absorbs summation
  // rounding on lossless runs, where the bound is exactly 1.
  const double tv = std::sqrt(std::max(0.0, 1.0 - fidelity_bound)) + 1e-9;
  if (inst.workload == "qaoa_ladder") {
    const std::vector<double> zz =
        maxcut_edge_zz(inst.circuit.num_qubits(), inst.edges, kGamma, kBeta);
    for (std::size_t e = 0; e < zz.size(); ++e) {
      tally.check(std::abs(r.values.at(e) - zz[e]) <= 2 * tv,
                  fmt("edge <ZZ> %.6f vs closed form %.6f", r.values.at(e), zz[e]));
    }
  } else {
    for (std::size_t q = 0; q < r.values.size(); ++q) {
      const double expected = probability_one(ref, static_cast<int>(q));
      tally.check(std::abs(r.values[q] - expected) <= tv,
                  fmt("P(1) %.6f vs reference %.6f", r.values[q], expected));
    }
  }
  int off_target = 0;
  for (std::uint64_t x : r.samples) {
    tally.check(x < ref.size() && std::norm(ref[x]) > 0.0,
                fmt("shot %.0f outside the reference support (of %.0f states)",
                    static_cast<double>(x), static_cast<double>(ref.size())));
    if (x != relabel_index(inst.marked, inst.relabeling)) ++off_target;
  }
  if (inst.workload == "grover_search") {
    // Each shot misses the marked state with probability 1 - sin^2((2k+1)
    // theta) ~ 5e-4, so three misses in 8 shots (p ~ 1e-8) is a fault.
    tally.check(off_target <= 2,
                fmt("%.0f of %.0f Grover shots missed the marked state",
                    off_target, static_cast<double>(r.samples.size())));
  }
}

void check_samples(const Instance& inst, const std::vector<Complex>& ref,
                   const std::vector<std::uint64_t>& samples, Tally& tally) {
  if (inst.workload != "sup_outofcore" || samples.empty()) return;
  const XebResult xeb = linear_xeb(ref, samples);
  tally.check(std::abs(xeb.mean - xeb.expected) <= 5 * xeb.standard_error,
              fmt("linear XEB %.4f vs exact %.4f", xeb.mean, xeb.expected));
}

void run_self_tests(Tally& tally) {
  constexpr double kTight = 1e-10;

  // Grover: the closed form against the dense simulator, 6 qubits.
  for (int k = 1; k <= 3; ++k) {
    const int d = 4;
    const int total = cqs::circuits::grover_total_qubits(d);
    DenseState dense(total);
    dense.run(cqs::circuits::grover_circuit(
        {.data_qubits = d, .marked_state = 0b1011, .iterations = k}));
    const auto analytic = grover_state(d, total, 0b1011, k);
    tally.check(fidelity(analytic, interleaved(dense.amplitudes())) > 1 - kTight,
                "self-test: Grover closed form");
    tally.check(std::abs(std::norm(dense.amplitudes()[0b1011]) -
                         grover_marked_probability(d, k)) < kTight,
                "self-test: Grover sin^2((2k+1) theta)");
  }

  // QFT of a basis state: closed form against the dense simulator.
  for (std::uint64_t x : {std::uint64_t{0b101101}, std::uint64_t{3}}) {
    DenseState dense(6);
    dense.run(qft_on_basis(6, x));
    tally.check(fidelity(qft_basis_state(6, x), interleaved(dense.amplitudes())) >
                    1 - kTight,
                "self-test: QFT closed form");
  }

  // p = 1 MAXCUT <ZZ>: closed form against the dense simulator on
  // relabeled random 4-regular graphs.
  for (std::uint64_t seed : {3u, 5u}) {
    Rng rng(seed);
    const int n = 10;
    const std::vector<int> perm = seeded_permutation(n, 0, rng);
    std::vector<std::pair<int, int>> edges;
    for (auto [u, v] : cqs::circuits::random_regular_graph(n, 4, seed)) {
      edges.emplace_back(perm[u], perm[v]);
    }
    DenseState dense(n);
    dense.run(relabeled(cqs::circuits::qaoa_maxcut_circuit(
                            {.num_qubits = n, .gamma = kGamma, .beta = kBeta,
                             .seed = seed}),
                        perm));
    const auto zz = maxcut_edge_zz(n, edges, kGamma, kBeta);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      tally.check(std::abs(expectation_zz(dense.amplitudes(), edges[e].first,
                                          edges[e].second) -
                           zz[e]) < kTight,
                  "self-test: MAXCUT edge closed form");
    }
  }

  // Supremacy gate set: sqrt(P) applied twice is P, for P = X, Y and
  // W = (X + Y)/sqrt(2), on a generic 2-qubit state.
  auto generic = [] {
    DenseState s(2);
    s.apply({cqs::qsim::GateKind::kRy, 0, {-1, -1}, {0.7, 0, 0, 0}});
    s.apply({cqs::qsim::GateKind::kRx, 1, {-1, -1}, {1.9, 0, 0, 0}});
    s.apply({cqs::qsim::GateKind::kCX, 1, {0, -1}});
    s.apply({cqs::qsim::GateKind::kT, 0});
    return s;
  };
  using cqs::qsim::GateKind;
  const std::pair<GateKind, GateKind> roots[] = {{GateKind::kSqrtX, GateKind::kX},
                                                 {GateKind::kSqrtY, GateKind::kY}};
  for (auto [root, pauli] : roots) {
    DenseState a = generic(), b = generic();
    a.apply({root, 1});
    a.apply({root, 1});
    b.apply({pauli, 1});
    tally.check(fidelity(b.amplitudes(), interleaved(a.amplitudes())) > 1 - kTight,
                "self-test: sqrt gate squares to its Pauli");
  }
  {
    DenseState a = generic(), x = generic(), y = generic();
    a.apply({GateKind::kSqrtW, 0});
    a.apply({GateKind::kSqrtW, 0});
    x.apply({GateKind::kX, 0});
    y.apply({GateKind::kY, 0});
    std::vector<Complex> w(4);
    for (int i = 0; i < 4; ++i) {
      w[i] = (x.amplitudes()[i] + y.amplitudes()[i]) / std::numbers::sqrt2;
    }
    tally.check(fidelity(w, interleaved(a.amplitudes())) > 1 - kTight,
                "self-test: sqrt(W) squares to W");
  }

  // Linear XEB: shots drawn from the exact distribution pass, uniform
  // shots are rejected (2x5 grid, depth 11).
  {
    DenseState dense(10);
    dense.run(cqs::circuits::supremacy_circuit(
        {.rows = 2, .cols = 5, .depth = 11, .seed = 5}));
    const auto& amps = dense.amplitudes();
    Rng rng(17);
    std::vector<std::uint64_t> exact, uniform;
    for (int s = 0; s < 4000; ++s) {
      double r = rng.next_double();
      std::uint64_t x = 0;
      while (x + 1 < amps.size() && (r -= std::norm(amps[x])) > 0.0) ++x;
      exact.push_back(x);
      uniform.push_back(rng.next_below(amps.size()));
    }
    const XebResult good = linear_xeb(amps, exact);
    const XebResult bad = linear_xeb(amps, uniform);
    tally.check(std::abs(good.mean - good.expected) <= 5 * good.standard_error,
                "self-test: XEB accepts exact shots");
    tally.check(std::abs(bad.mean - bad.expected) > 5 * bad.standard_error,
                "self-test: XEB rejects uniform shots");
  }
}

}  // namespace perfbench
