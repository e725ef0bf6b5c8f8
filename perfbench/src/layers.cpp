#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/timer.hpp"
#include "compression/compressor.hpp"
#include "lossless/lz77.hpp"
#include "lossless/zx.hpp"
#include "qsim/scheduler.hpp"

namespace perfbench {
namespace {

using cqs::Bytes;
using cqs::ByteSpan;
using cqs::WallTimer;

ByteSpan as_bytes(std::span<const double> data) {
  return {reinterpret_cast<const std::byte*>(data.data()),
          data.size() * sizeof(double)};
}

double megabytes(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

CodecRates replay_zx(std::span<const double> data, std::size_t block_doubles,
                     int repeats, Tracer* tracer, Tally& tally) {
  using namespace cqs::lossless;
  const std::size_t blocks = data.size() / block_doubles;
  const ZxConfig config;
  ZxScratch scratch;
  std::vector<Bytes> payloads(blocks);
  Bytes decoded, tokens;
  std::vector<double> compress_s, decompress_s, lz77_s;
  std::size_t packed = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    double c = 0.0, d = 0.0, t = 0.0;
    packed = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const ByteSpan in = as_bytes(data.subspan(b * block_doubles, block_doubles));
      payloads[b].clear();
      {
        Scope span(tracer, "lossless.zx_compress_into");
        WallTimer timer;
        zx_compress_into(in, config, scratch, payloads[b]);
        c += timer.seconds();
      }
      packed += payloads[b].size();
      decoded.clear();
      {
        Scope span(tracer, "lossless.zx_decompress_into");
        WallTimer timer;
        zx_decompress_into(payloads[b], scratch, decoded);
        d += timer.seconds();
      }
      if (rep == 0) {
        tally.check(decoded.size() == in.size() &&
                        std::memcmp(decoded.data(), in.data(), in.size()) == 0,
                    "zx round trip is not exact");
      }
      tokens.clear();
      {
        Scope span(tracer, "lossless.lz77_tokenize");
        WallTimer timer;
        lz77_tokenize(in, tokens, config.lz, scratch.lz);
        t += timer.seconds();
      }
    }
    compress_s.push_back(c);
    decompress_s.push_back(d);
    lz77_s.push_back(t);
  }
  const double mb = megabytes(blocks * block_doubles * sizeof(double));
  return {mb / median(compress_s), mb / median(decompress_s),
          static_cast<double>(blocks * block_doubles * sizeof(double)) /
              static_cast<double>(packed),
          mb / median(lz77_s)};
}

CodecRates replay_lossy(const std::string& codec, const std::string& layer,
                        std::span<const double> data,
                        std::size_t block_doubles, double eps, int repeats,
                        Tracer* tracer, Tally& tally) {
  const auto compressor = cqs::compression::make_compressor(codec);
  const auto bound = cqs::compression::ErrorBound::relative(eps);
  const std::size_t blocks = data.size() / block_doubles;
  std::vector<Bytes> payloads(blocks);
  std::vector<double> decoded(block_doubles);
  std::vector<double> compress_s, decompress_s;
  std::size_t packed = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    double c = 0.0, d = 0.0;
    packed = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto in = data.subspan(b * block_doubles, block_doubles);
      {
        Scope span(tracer, layer + ".compress");
        WallTimer timer;
        payloads[b] = compressor->compress(in, bound);
        c += timer.seconds();
      }
      packed += payloads[b].size();
      {
        Scope span(tracer, layer + ".decompress");
        WallTimer timer;
        compressor->decompress(payloads[b], decoded);
        d += timer.seconds();
      }
      if (rep == 0) {
        std::size_t outside = 0;
        for (std::size_t i = 0; i < block_doubles; ++i) {
          if (!(std::abs(decoded[i] - in[i]) <= eps * std::abs(in[i]))) ++outside;
        }
        tally.check(outside == 0, codec + " round trip broke its relative bound on " +
                                      std::to_string(outside) + " values");
      }
    }
    compress_s.push_back(c);
    decompress_s.push_back(d);
  }
  const std::size_t raw = blocks * block_doubles * sizeof(double);
  return {megabytes(raw) / median(compress_s), megabytes(raw) / median(decompress_s),
          static_cast<double>(raw) / static_cast<double>(packed), 0.0};
}

double replay_plan(const cqs::qsim::Circuit& circuit,
                   const cqs::core::SimConfig& config, int offset_bits,
                   int repeats, Tracer* tracer, std::size_t* scheduled_ops) {
  // The options the simulator's run_segment passes: runs capped at 16 ops
  // under a memory budget, fusion as a pre-pass.
  cqs::qsim::SchedulerOptions options;
  options.intra_qubits = offset_bits;
  options.max_run_length = config.max_run_length;
  if (config.memory_budget_bytes > 0 && options.max_run_length == 0) {
    options.max_run_length = 16;
  }
  options.fuse = config.enable_fusion_prepass;
  std::vector<double> seconds;
  for (int rep = 0; rep < repeats; ++rep) {
    Scope span(tracer, "qsim.build_schedule");
    WallTimer timer;
    const cqs::qsim::Schedule schedule = cqs::qsim::build_schedule(circuit, options);
    seconds.push_back(timer.seconds());
    *scheduled_ops = schedule.circuit().size();
  }
  return median(seconds);
}

CheckpointStats replay_checkpoint(const cqs::core::CompressedStateSimulator& sim,
                                  std::span<const double> state,
                                  const std::string& path, Tracer* tracer,
                                  Tally& tally) {
  CheckpointStats stats;
  {
    Scope span(tracer, "runtime.save_checkpoint");
    WallTimer timer;
    sim.save_checkpoint(path);
    stats.save_s = timer.seconds();
  }
  stats.megabytes = megabytes(std::filesystem::file_size(path));
  cqs::core::SimConfig config = sim.config();
  if (!config.spill_path.empty()) config.spill_path += ".restored";
  std::vector<double> restored;
  {
    Scope span(tracer, "runtime.load_checkpoint");
    WallTimer timer;
    auto loaded = cqs::core::CompressedStateSimulator::load_checkpoint(path, config);
    stats.load_s = timer.seconds();
    restored = loaded.to_raw();
  }
  std::filesystem::remove(path);
  tally.check(restored.size() == state.size() &&
                  std::memcmp(restored.data(), state.data(),
                              state.size() * sizeof(double)) == 0,
              "checkpoint restore changed the state");
  return stats;
}

}  // namespace perfbench
