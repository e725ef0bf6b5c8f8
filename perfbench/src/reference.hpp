// Reference results computed apart from the compressed simulator: a small
// dense state-vector simulator that interprets circuits from the textbook
// gate definitions, closed-form final states for Grover and the QFT of a
// basis input, and the closed-form p=1 MAXCUT edge expectation. None of it
// calls into the simulator's own kernels or state-vector code, so the
// benchmark's correctness checks do not share a fault with what they check.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "qsim/circuit.hpp"

namespace perfbench {

using Complex = std::complex<double>;

/// Dense 2^n complex amplitudes, qubit q = bit q of the basis index.
class DenseState {
 public:
  explicit DenseState(int num_qubits);  // |0...0>

  /// Applies the gate kinds the workload generators emit (H, X, Y, Z, S,
  /// T, rotations, sqrt X/Y/W, CX, CZ, CPhase, SWAP, CCX). Throws on any
  /// other kind.
  void apply(const cqs::qsim::GateOp& op);
  void run(const cqs::qsim::Circuit& circuit);

  int num_qubits() const { return num_qubits_; }
  const std::vector<Complex>& amplitudes() const { return amps_; }

 private:
  int num_qubits_;
  std::vector<Complex> amps_;
};

/// Grover's final state after `iterations` rounds on `data_qubits` data
/// qubits with the ancillas (above them) back at |0>: sin((2k+1)theta) on
/// the marked state, cos((2k+1)theta)/sqrt(N-1) elsewhere, up to a global
/// phase.
std::vector<Complex> grover_state(int data_qubits, int total_qubits,
                                  std::uint64_t marked, int iterations);

/// sin^2((2k+1)theta) with sin(theta) = 2^{-d/2}: the marked-state
/// probability after k Grover iterations.
double grover_marked_probability(int data_qubits, int iterations);

/// QFT|x> = 2^{-n/2} sum_k exp(2 pi i x k / 2^n) |k>.
std::vector<Complex> qft_basis_state(int num_qubits, std::uint64_t x);

/// <Z_u Z_v> after H^n, exp(-i gamma Z_a Z_b) on every edge, then
/// RX(2 beta) on every qubit — the closed form for p = 1 QAOA on any
/// graph, given the degrees of u and v and the triangles through (u, v).
double maxcut_zz(double gamma, double beta, int degree_u, int degree_v,
                 int triangles);

/// maxcut_zz for every edge of `edges` (degrees and triangles counted from
/// the edge list).
std::vector<double> maxcut_edge_zz(
    int num_qubits, const std::vector<std::pair<int, int>>& edges,
    double gamma, double beta);

/// Interleaved re/im doubles, the layout the simulator's to_raw() returns.
std::vector<double> interleaved(const std::vector<Complex>& amps);

/// |<ref|psi>|^2 / <psi|psi> with `psi` given as interleaved re/im doubles
/// and `ref` normalized: the fidelity of the state the simulator holds,
/// whose norm lossy compression can move slightly off 1.
double fidelity(const std::vector<Complex>& ref, std::span<const double> psi);

/// Linear cross-entropy of `samples` against the exact distribution of
/// `ref`: mean of 2^n p(x) - 1 over the samples, the exact expectation
/// 2^n sum p^2 - 1 for samples drawn from `ref`, and the standard error of
/// the mean for that many samples.
struct XebResult {
  double mean = 0.0;
  double expected = 0.0;
  double standard_error = 0.0;
};
XebResult linear_xeb(const std::vector<Complex>& ref,
                     const std::vector<std::uint64_t>& samples);

}  // namespace perfbench
