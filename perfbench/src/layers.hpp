// Per-layer measurements of the traced run: each times calls into one
// layer's public functions from here, under a span per call, and
// round-trips every payload it makes.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/simulator.hpp"
#include "qsim/circuit.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

double median(std::vector<double> values);

struct CodecRates {
  double compress_mb_s = 0.0;    ///< raw MB (10^6 bytes) per second
  double decompress_mb_s = 0.0;  ///< raw MB per second
  double ratio = 0.0;            ///< raw bytes / compressed bytes
  double lz77_mb_s = 0.0;        ///< lz77_tokenize alone (zx only)
};

/// zx_compress_into / zx_decompress_into / lz77_tokenize over `data` cut
/// into blocks of `block_doubles`; medians over `repeats` passes. Every
/// payload must decode to the exact input.
CodecRates replay_zx(std::span<const double> data, std::size_t block_doubles,
                     int repeats, Tracer* tracer, Tally& tally);

/// Compressor::compress / decompress of registry codec `codec` at the
/// pointwise relative bound `eps`; every element must come back within
/// eps * |d| of its input. Spans are named "<layer>.compress" etc.
CodecRates replay_lossy(const std::string& codec, const std::string& layer,
                        std::span<const double> data,
                        std::size_t block_doubles, double eps, int repeats,
                        Tracer* tracer, Tally& tally);

/// Median seconds of build_schedule (fusion pre-pass included) on the
/// workload circuit with the simulator's scheduler options; also reports
/// the scheduled op count.
double replay_plan(const cqs::qsim::Circuit& circuit,
                   const cqs::core::SimConfig& config, int offset_bits,
                   int repeats, Tracer* tracer, std::size_t* scheduled_ops);

struct CheckpointStats {
  double save_s = 0.0;
  double load_s = 0.0;
  double megabytes = 0.0;
};

/// save_checkpoint then load_checkpoint of the final state at `path`; the
/// restored state must equal `state` (the saved simulator's to_raw()).
CheckpointStats replay_checkpoint(const cqs::core::CompressedStateSimulator& sim,
                                  std::span<const double> state,
                                  const std::string& path, Tracer* tracer,
                                  Tally& tally);

}  // namespace perfbench
