// In-memory spans for the traced run. Each span records a layer call made
// from the benchmark's own code: its name ("<layer>.<call>"), start and end
// on one steady clock, and the span open around it when it began. Spans
// are written out only when the run ends.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index into spans(), -1 at the root
  };

  int open(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int id) {
    spans_[id].end_s = now();
    current_ = spans_[id].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Seconds of the first span named `name` (0 when absent).
  double seconds(const std::string& name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return s.end_s - s.start_s;
    }
    return 0.0;
  }

  /// Self time per layer: each span's duration minus what its children
  /// cover, summed by the layer prefix of its name.
  std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string& name = spans_[i].name;
      self[name.substr(0, name.find('.'))] +=
          spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

  /// Writes the spans as one JSON array.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  using clock = std::chrono::steady_clock;
  clock::time_point origin_ = clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a null tracer records nothing, so untraced code paths run
/// the same calls without spans.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(std::move(name));
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

}  // namespace perfbench
