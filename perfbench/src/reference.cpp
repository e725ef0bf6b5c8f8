#include "reference.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace perfbench {
namespace {

using cqs::qsim::GateKind;
using Matrix = std::array<Complex, 4>;  // row-major 2x2

constexpr Complex kI{0.0, 1.0};

Matrix rotation_x(double theta) {
  const double c = std::cos(theta / 2), s = std::sin(theta / 2);
  return {c, -kI * s, -kI * s, c};
}

/// sqrt(P) = (1+i)/2 I + (1-i)/2 P for an involutory Pauli-like P: the
/// principal root with eigenvalues 1 and i.
Matrix sqrt_involution(const Matrix& p) {
  const Complex a = (1.0 + kI) / 2.0, b = (1.0 - kI) / 2.0;
  return {a + b * p[0], b * p[1], b * p[2], a + b * p[3]};
}

Matrix pauli_w() {
  const double r = 1.0 / std::numbers::sqrt2;  // W = (X + Y)/sqrt(2)
  return {0.0, Complex(r, -r), Complex(r, r), 0.0};
}

Matrix textbook_matrix(const cqs::qsim::GateOp& op) {
  const double theta = op.params[0];
  const double r = 1.0 / std::numbers::sqrt2;
  switch (op.kind) {
    case GateKind::kH: return {r, r, r, -r};
    case GateKind::kX:
    case GateKind::kCX:
    case GateKind::kCCX: return {0.0, 1.0, 1.0, 0.0};
    case GateKind::kY: return {0.0, -kI, kI, 0.0};
    case GateKind::kZ:
    case GateKind::kCZ: return {1.0, 0.0, 0.0, -1.0};
    case GateKind::kS: return {1.0, 0.0, 0.0, kI};
    case GateKind::kSdg: return {1.0, 0.0, 0.0, -kI};
    case GateKind::kT: return {1.0, 0.0, 0.0, std::polar(1.0, std::numbers::pi / 4)};
    case GateKind::kTdg: return {1.0, 0.0, 0.0, std::polar(1.0, -std::numbers::pi / 4)};
    case GateKind::kRx: return rotation_x(theta);
    case GateKind::kRy: {
      const double c = std::cos(theta / 2), s = std::sin(theta / 2);
      return {c, -s, s, c};
    }
    case GateKind::kRz:
      return {std::polar(1.0, -theta / 2), 0.0, 0.0, std::polar(1.0, theta / 2)};
    case GateKind::kPhase:
    case GateKind::kCPhase: return {1.0, 0.0, 0.0, std::polar(1.0, theta)};
    case GateKind::kSqrtX: return sqrt_involution({0.0, 1.0, 1.0, 0.0});
    case GateKind::kSqrtY: return sqrt_involution({0.0, -kI, kI, 0.0});
    case GateKind::kSqrtW: return sqrt_involution(pauli_w());
    default:
      throw std::invalid_argument("reference: unsupported gate kind");
  }
}

void apply_matrix(std::vector<Complex>& amps, const Matrix& m, int target,
                  std::uint64_t control_mask) {
  const std::uint64_t bit = std::uint64_t{1} << target;
  for (std::uint64_t i = 0; i < amps.size(); ++i) {
    if ((i & bit) != 0 || (i & control_mask) != control_mask) continue;
    const Complex a0 = amps[i], a1 = amps[i | bit];
    amps[i] = m[0] * a0 + m[1] * a1;
    amps[i | bit] = m[2] * a0 + m[3] * a1;
  }
}

}  // namespace

DenseState::DenseState(int num_qubits)
    : num_qubits_(num_qubits), amps_(std::size_t{1} << num_qubits) {
  amps_[0] = 1.0;
}

void DenseState::apply(const cqs::qsim::GateOp& op) {
  if (op.kind == GateKind::kSwap) {
    const std::uint64_t a = std::uint64_t{1} << op.target;
    const std::uint64_t b = std::uint64_t{1} << op.controls[0];
    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
      if ((i & a) != 0 && (i & b) == 0) std::swap(amps_[i], amps_[i ^ a ^ b]);
    }
    return;
  }
  std::uint64_t controls = 0;
  for (int c : op.controls) {
    if (c >= 0) controls |= std::uint64_t{1} << c;
  }
  apply_matrix(amps_, textbook_matrix(op), op.target, controls);
}

void DenseState::run(const cqs::qsim::Circuit& circuit) {
  if (circuit.num_qubits() != num_qubits_) {
    throw std::invalid_argument("reference: circuit width mismatch");
  }
  for (const auto& op : circuit.ops()) apply(op);
}

double grover_marked_probability(int data_qubits, int iterations) {
  const double theta = std::asin(std::pow(2.0, -0.5 * data_qubits));
  const double s = std::sin((2 * iterations + 1) * theta);
  return s * s;
}

std::vector<Complex> grover_state(int data_qubits, int total_qubits,
                                  std::uint64_t marked, int iterations) {
  const double theta = std::asin(std::pow(2.0, -0.5 * data_qubits));
  const double angle = (2 * iterations + 1) * theta;
  const double others = std::ldexp(1.0, data_qubits) - 1.0;
  std::vector<Complex> amps(std::size_t{1} << total_qubits);
  const std::uint64_t data_states = std::uint64_t{1} << data_qubits;
  for (std::uint64_t x = 0; x < data_states; ++x) {
    amps[x] = x == marked ? std::sin(angle) : std::cos(angle) / std::sqrt(others);
  }
  return amps;
}

std::vector<Complex> qft_basis_state(int num_qubits, std::uint64_t x) {
  const std::uint64_t n = std::uint64_t{1} << num_qubits;
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  std::vector<Complex> amps(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    // x*k mod 2^n keeps the phase argument exact before the division.
    const std::uint64_t turns = (x * k) & (n - 1);
    amps[k] = std::polar(scale, 2.0 * std::numbers::pi *
                                    static_cast<double>(turns) /
                                    static_cast<double>(n));
  }
  return amps;
}

double maxcut_zz(double gamma, double beta, int degree_u, int degree_v,
                 int triangles) {
  // Heisenberg picture: the mixer maps Z -> cos(2b) Z + sin(2b) Y, and the
  // phase separator leaves only the ZY/YZ terms (one neighbour each) and
  // the YY term (odd subsets of the common neighbours) with nonzero
  // expectation in |+>^n.
  const double c = std::cos(2 * gamma);
  const double linear = 0.5 * std::sin(4 * beta) * std::sin(2 * gamma) *
                        (std::pow(c, degree_u - 1) + std::pow(c, degree_v - 1));
  const double quadratic =
      0.5 * std::pow(std::sin(2 * beta), 2) *
      std::pow(c, degree_u + degree_v - 2 - 2 * triangles) *
      (1.0 - std::pow(std::cos(4 * gamma), triangles));
  return linear + quadratic;
}

std::vector<double> maxcut_edge_zz(
    int num_qubits, const std::vector<std::pair<int, int>>& edges,
    double gamma, double beta) {
  std::vector<std::vector<bool>> adjacent(
      num_qubits, std::vector<bool>(num_qubits, false));
  std::vector<int> degree(num_qubits, 0);
  for (const auto& [u, v] : edges) {
    adjacent[u][v] = adjacent[v][u] = true;
    ++degree[u];
    ++degree[v];
  }
  std::vector<double> zz;
  for (const auto& [u, v] : edges) {
    int triangles = 0;
    for (int w = 0; w < num_qubits; ++w) {
      if (adjacent[u][w] && adjacent[v][w]) ++triangles;
    }
    zz.push_back(maxcut_zz(gamma, beta, degree[u], degree[v], triangles));
  }
  return zz;
}

std::vector<double> interleaved(const std::vector<Complex>& amps) {
  std::vector<double> out;
  out.reserve(2 * amps.size());
  for (const Complex& a : amps) {
    out.push_back(a.real());
    out.push_back(a.imag());
  }
  return out;
}

double fidelity(const std::vector<Complex>& ref, std::span<const double> psi) {
  if (psi.size() != 2 * ref.size()) {
    throw std::invalid_argument("fidelity: size mismatch");
  }
  Complex overlap = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const Complex a(psi[2 * i], psi[2 * i + 1]);
    overlap += std::conj(ref[i]) * a;
    norm += std::norm(a);
  }
  return std::norm(overlap) / norm;
}

XebResult linear_xeb(const std::vector<Complex>& ref,
                     const std::vector<std::uint64_t>& samples) {
  const double n = static_cast<double>(ref.size());
  double sum_p2 = 0.0, sum_p3 = 0.0;
  for (const Complex& a : ref) {
    const double p = std::norm(a);
    sum_p2 += p * p;
    sum_p3 += p * p * p;
  }
  XebResult result;
  result.expected = n * sum_p2 - 1.0;
  if (samples.empty()) return result;
  double total = 0.0;
  for (std::uint64_t x : samples) total += n * std::norm(ref.at(x)) - 1.0;
  const double k = static_cast<double>(samples.size());
  result.mean = total / k;
  // Var of n p(x) for x ~ p: n^2 sum p^3 - (n sum p^2)^2.
  const double variance = n * n * sum_p3 - (n * sum_p2) * (n * sum_p2);
  result.standard_error = std::sqrt(std::max(variance, 0.0) / k);
  return result;
}

}  // namespace perfbench
