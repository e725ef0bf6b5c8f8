// cqs_perfbench: the simulator's benchmark. One process runs one workload
// for a fixed time and prints, as its last line, one JSON object with the
// attempted and failed operation counts and the metrics.
//
//   cqs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR]
//
// Untraced (--trace 0): set-up is sampled kSetupSamples times, then whole
// rounds (fresh simulator, apply_circuit, read-out) repeat until S seconds
// are used; times are medians over the samples and rounds. Peak RSS is read
// before any reference state exists; then every round's read-out and the
// last final state are checked against the independent references.
//
// Traced (--trace 1): the same untraced rounds, then one traced round and
// the per-layer replays (planning, zx at the block size and at the paper's
// 2^20-amplitude block, qzc and zfp-rans, checkpoint save/load), each call
// under a span. Spans go to DIR/trace-<workload>-<seed>.json at the end.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/timer.hpp"
#include "core/simulator.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using cqs::WallTimer;
using cqs::core::CompressedStateSimulator;

// Set-up takes well under a millisecond to a few milliseconds; its median
// needs many samples to repeat from run to run.
constexpr int kSetupSamples = 1001;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
};

struct Round {
  double apply_s = 0.0;
  double readout_s = 0.0;
  Readout readout;
  std::uint64_t readout_decompress_calls = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident set of this process image (VmHWM), in MB of 10^6 bytes.
/// getrusage's ru_maxrss would also count the launcher's RSS from before
/// exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) * 1024.0 / 1e6;
  }
  return 0.0;
}

std::uint64_t shot_seed(std::uint64_t seed, std::size_t round) {
  return seed * 0x9e3779b97f4a7c15ull + round + 1;
}

/// One round on a fresh simulator: apply_circuit, then the read-out. Each
/// gate and query is an operation; one that throws counts as failed.
bool run_round(const Instance& inst, CompressedStateSimulator& sim,
               std::uint64_t shots_seed, Tracer* tracer, Round& out,
               Tally& tally) {
  try {
    Scope span(tracer, "core.apply_circuit");
    WallTimer timer;
    sim.apply_circuit(inst.circuit);
    out.apply_s = timer.seconds();
  } catch (const std::exception& e) {
    tally.errored(inst.circuit.size(), std::string("apply_circuit: ") + e.what());
    return false;
  }
  tally.attempted += inst.circuit.size();
  const auto report = sim.report();
  tally.check(!report.budget_exceeded, "state over budget at the last ladder level");
  try {
    Scope span(tracer, "core.read_out");
    WallTimer timer;
    out.readout = read_out(inst, sim, shots_seed, tracer);
    out.readout_s = timer.seconds();
  } catch (const std::exception& e) {
    tally.errored(1, std::string("read-out: ") + e.what());
    return false;
  }
  tally.attempted += out.readout.queries;
  out.readout_decompress_calls =
      sim.report().decompress_invocations - report.decompress_invocations;
  return true;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.wrong_output ? "false" : "true",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
      have_seconds = opt.seconds > 0.0;
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      have_trace = opt.trace || std::strcmp(value, "0") == 0;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      return false;
    }
  }
  const auto& names = workload_names();
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         std::find(names.begin(), names.end(), opt.workload) != names.end();
}

/// The traced round and the per-layer replays; returns the per-layer
/// metrics. `untraced_round_s` is the untraced median of apply + read-out.
std::vector<Metric> traced_run(const Options& opt, double untraced_round_s,
                               Tally& tally) {
  Tracer tracer;
  Instance inst;
  std::optional<CompressedStateSimulator> sim;
  Round round;
  {
    Scope span(&tracer, "circuits.build");
    inst = make_instance(opt.workload, opt.seed, opt.work_dir);
  }
  {
    Scope span(&tracer, "core.construct");
    sim.emplace(inst.config);
  }
  if (!run_round(inst, *sim, shot_seed(opt.seed, 0), &tracer, round, tally)) {
    throw std::runtime_error("traced round failed");
  }
  const double overhead_s = round.apply_s + round.readout_s - untraced_round_s;
  const auto report = sim->report();

  std::vector<double> state;
  {
    Scope span(&tracer, "core.to_raw");
    state = sim->to_raw();
  }
  const auto& partition = sim->partition();
  const std::size_t block_doubles = 2 * partition.amplitudes_per_block();
  const CodecRates zx = replay_zx(state, block_doubles, 3, &tracer, tally);

  // The paper's blocks hold 2^20 amplitudes (16 MiB): the same workload at
  // 20 qubits, exact, as one block.
  Instance paper_inst;
  {
    Scope span(&tracer, "circuits.build_paper_scale");
    paper_inst = make_instance(opt.workload, opt.seed, opt.work_dir, 20);
  }
  const std::vector<double> paper = interleaved(reference_state(paper_inst));
  const CodecRates zx_paper = replay_zx(paper, paper.size(), 1, &tracer, tally);

  const auto& ladder = inst.config.error_ladder;
  const double eps = ladder.at(std::max(report.final_ladder_level, 1) - 1);
  const CodecRates qzc = replay_lossy("qzc", "qzc", state, block_doubles, eps, 3,
                                      &tracer, tally);
  const CodecRates zfp = replay_lossy("zfp-rans", "zfp", state, block_doubles, eps,
                                      3, &tracer, tally);
  std::size_t scheduled_ops = 0;
  const double plan_s = replay_plan(inst.circuit, inst.config, partition.offset_bits,
                                    5, &tracer, &scheduled_ops);
  const CheckpointStats ckpt = replay_checkpoint(
      *sim, state,
      opt.work_dir + "/checkpoint-" + std::to_string(::getpid()) + ".bin", &tracer,
      tally);

  const std::string spans_path =
      opt.work_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
  if (!tracer.write_json(spans_path)) {
    throw std::runtime_error("cannot write " + spans_path);
  }
  std::printf("spans: %zu written to %s\n", tracer.spans().size(), spans_path.c_str());

  const double mb = 1e6;
  const double gb = 1e9;
  auto phase = [&](cqs::Phase p) { return report.phases.get(p); };
  std::vector<Metric> m = {
      {"circuits.build_s", tracer.seconds("circuits.build"), "s"},
      {"qsim.plan_s", plan_s, "s"},
      {"qsim.runs", static_cast<double>(report.batched_runs), "count"},
      {"qsim.gates_per_run", report.gates_per_run(), "ops/run"},
      {"qsim.compute_s", phase(cqs::Phase::kComputation), "s"},
      // Computed, not measured: every scheduled op reads and writes each
      // amplitude once.
      {"qsim.kernel_gb",
       static_cast<double>(scheduled_ops) * 2.0 * 16.0 *
           static_cast<double>(std::uint64_t{1} << inst.circuit.num_qubits()) / gb,
       "GB"},
      {"lossless.compress_s", report.lossless_compress_seconds, "s"},
      {"lossless.decompress_s", report.lossless_decompress_seconds, "s"},
      {"lossless.compress_calls", static_cast<double>(report.lossless_compress_invocations), "count"},
      {"lossless.decompress_calls", static_cast<double>(report.lossless_decompress_invocations), "count"},
      {"lossless.zx_compress_mb_s", zx.compress_mb_s, "MB/s"},
      {"lossless.zx_decompress_mb_s", zx.decompress_mb_s, "MB/s"},
      {"lossless.lz77_mb_s", zx.lz77_mb_s, "MB/s"},
      {"lossless.zx_ratio", zx.ratio, "x"},
      {"lossless.paper_zx_compress_mb_s", zx_paper.compress_mb_s, "MB/s"},
      {"lossless.paper_zx_decompress_mb_s", zx_paper.decompress_mb_s, "MB/s"},
      {"lossless.paper_lz77_mb_s", zx_paper.lz77_mb_s, "MB/s"},
      {"lossless.paper_zx_ratio", zx_paper.ratio, "x"},
      {"lossy.compress_s", report.lossy_compress_seconds, "s"},
      {"lossy.decompress_s", report.lossy_decompress_seconds, "s"},
      {"lossy.compress_calls", static_cast<double>(report.lossy_compress_invocations), "count"},
      {"lossy.decompress_calls", static_cast<double>(report.lossy_decompress_invocations), "count"},
      {"lossy.passes", static_cast<double>(report.lossy_passes), "count"},
      {"qzc.compress_mb_s", qzc.compress_mb_s, "MB/s"},
      {"qzc.decompress_mb_s", qzc.decompress_mb_s, "MB/s"},
      {"qzc.ratio", qzc.ratio, "x"},
      {"zfp.compress_mb_s", zfp.compress_mb_s, "MB/s"},
      {"zfp.decompress_mb_s", zfp.decompress_mb_s, "MB/s"},
      {"zfp.ratio", zfp.ratio, "x"},
      {"runtime.cache_hits", static_cast<double>(report.cache.hits), "count"},
      {"runtime.cache_misses", static_cast<double>(report.cache.misses), "count"},
      {"runtime.cache_hit_ratio", report.cache.hit_rate(), "ratio"},
      {"runtime.spill_events", static_cast<double>(report.spill_events), "count"},
      {"runtime.fault_events", static_cast<double>(report.fault_events), "count"},
      {"runtime.spilled_mb", static_cast<double>(report.spilled_bytes) / mb, "MB"},
      {"runtime.peak_resident_mb", static_cast<double>(report.peak_resident_bytes) / mb, "MB"},
      {"runtime.readahead_hits", static_cast<double>(report.readahead_hits), "count"},
      {"runtime.comm_mb", static_cast<double>(report.comm_bytes) / mb, "MB"},
      {"runtime.comm_messages", static_cast<double>(report.comm_messages), "count"},
      {"runtime.comm_s", report.comm_seconds, "s"},
      {"runtime.checkpoint_save_s", ckpt.save_s, "s"},
      {"runtime.checkpoint_load_s", ckpt.load_s, "s"},
      {"runtime.checkpoint_mb", ckpt.megabytes, "MB"},
      {"core.compression_s", phase(cqs::Phase::kCompression), "s"},
      {"core.decompression_s", phase(cqs::Phase::kDecompression), "s"},
      {"core.communication_s", phase(cqs::Phase::kCommunication), "s"},
      {"core.final_level", static_cast<double>(report.final_ladder_level), "level"},
      {"core.compress_calls", static_cast<double>(report.compress_invocations), "count"},
      {"core.decompress_calls", static_cast<double>(report.decompress_invocations), "count"},
      {"core.readout_decompress_calls", static_cast<double>(round.readout_decompress_calls), "count"},
  };
  std::printf("layer self time (s), traced round and replays:\n");
  for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
    std::printf("  %-10s %.6f\n", layer.c_str(), seconds);
    m.push_back({layer + ".self_s", seconds, "s"});
  }
  std::printf("report phases are summed over %d worker(s)\n", kWorkers);
  std::printf("tracing overhead: %.6f s (traced round %.6f s, untraced median %.6f s)\n",
              overhead_s, round.apply_s + round.readout_s, untraced_round_s);
  m.push_back({"trace.overhead_s", overhead_s, "s"});
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload {qaoa_ladder|grover_search|sup_outofcore|"
                 "qft_zfp} --seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);
  Tally tally;
  run_self_tests(tally);

  WallTimer run_clock;
  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    WallTimer timer;
    const Instance inst = make_instance(opt.workload, opt.seed, opt.work_dir);
    const CompressedStateSimulator sim(inst.config);
    setup_samples.push_back(timer.seconds());
  }

  const Instance inst = make_instance(opt.workload, opt.seed, opt.work_dir);
  std::optional<CompressedStateSimulator> sim;
  std::vector<Round> rounds;
  std::vector<double> round_s;
  do {
    sim.reset();
    sim.emplace(inst.config);
    Round round;
    WallTimer timer;
    if (run_round(inst, *sim, shot_seed(opt.seed, round_s.size()), nullptr, round,
                  tally)) {
      rounds.push_back(std::move(round));
    }
    round_s.push_back(timer.seconds());
  } while (run_clock.seconds() + median(round_s) <= opt.seconds);
  if (rounds.empty()) throw std::runtime_error("no round completed");

  const double rss_mb = peak_rss_mb();
  const auto report = sim->report();
  std::vector<double> apply_s, readout_s, untraced_round_s;
  for (const Round& r : rounds) {
    apply_s.push_back(r.apply_s);
    readout_s.push_back(r.readout_s);
    untraced_round_s.push_back(r.apply_s + r.readout_s);
  }

  // Correctness: every round against the references, then the final state.
  const std::vector<Complex> ref = reference_state(inst);
  std::vector<std::uint64_t> samples;
  for (const Round& r : rounds) {
    check_readout(inst, ref, r.readout, report.fidelity_bound, tally);
    tally.check(r.readout.values == rounds.front().readout.values,
                "read-out differs between rounds of one input");
    samples.insert(samples.end(), r.readout.samples.begin(), r.readout.samples.end());
  }
  check_samples(inst, ref, samples, tally);
  const double fid = fidelity(ref, sim->to_raw());
  // 1e-9 absorbs summation rounding where the bound is exactly 1.
  tally.check(fid >= report.fidelity_bound - 1e-9,
              "fidelity below the certified bound");
  sim.reset();

  std::printf("%s seed %llu: %zu set-up samples, %llu gates/round, level %d, "
              "%zu rounds (apply s, read-out s):",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              setup_samples.size(),
              static_cast<unsigned long long>(inst.circuit.size()),
              report.final_ladder_level, rounds.size());
  for (const Round& r : rounds) std::printf(" (%.3f, %.3f)", r.apply_s, r.readout_s);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (opt.trace) {
    metrics = traced_run(opt, median(untraced_round_s), tally);
  } else {
    metrics = {
        {"setup_s", median(setup_samples), "s"},
        {"s_per_gate", median(apply_s) / static_cast<double>(inst.circuit.size()), "s"},
        {"readout_s", median(readout_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"scratch_mb", static_cast<double>(report.scratch_bytes) / 1e6, "MB"},
        {"min_ratio", report.min_compression_ratio, "x"},
        {"fidelity", fid, "ratio"},
        {"fidelity_bound", report.fidelity_bound, "ratio"},
    };
  }
  for (const std::string& failure : tally.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  print_result(tally, metrics);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cqs_perfbench: %s\n", e.what());
  return 1;
}
