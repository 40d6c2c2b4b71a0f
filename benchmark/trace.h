// Span recorder for the benchmark's traced run.
//
// A span is one timed call at a layer boundary: name, start, end, the span
// that was open when it began (its parent), and the workload / seed / app it
// belongs to.  Spans are timed with steady_clock whether or not recording is
// on, so the same RAII object both measures a call and (when tracing)
// records it; recorded spans stay in memory and are written once, at exit,
// as Chrome trace-event JSON (Perfetto and chrome://tracing open it).
//
// Everything the benchmark times runs on one thread, so spans nest strictly
// and a span's self time is its duration minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sodbench {

class Tracer {
 public:
  /// One open span.  end() closes it (the destructor does so otherwise) and
  /// returns its duration in microseconds.
  class Span {
   public:
    Span(Tracer& t, std::string name, std::string app);
    ~Span() { end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    double end();

   private:
    Tracer& t_;
    std::string name_;
    std::string app_;
    int id_ = -1;
    int parent_ = -1;
    double start_us_ = 0;
    double dur_us_ = -1;
  };

  Tracer(bool record, std::string workload, uint64_t seed);

  Span span(std::string name, std::string app = {}) {
    return Span(*this, std::move(name), std::move(app));
  }

  /// Self time per span name, in ms: duration minus the union of its
  /// children (children never overlap on one thread, so a plain sum).
  std::map<std::string, double> self_ms() const;
  /// Writes the recorded spans as Chrome trace-event JSON ("X" events with
  /// microsecond timestamps), self times under otherData.  False if the
  /// file could not be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::string app;
    int id = 0;
    int parent = -1;  ///< id of the enclosing span, -1 at top level
    double start_us = 0;
    double end_us = 0;
  };

  double now_us() const;

  bool record_;
  std::string workload_;
  uint64_t seed_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Record> records_;
  std::vector<int> open_;  ///< ids of the spans currently open, innermost last
  int next_id_ = 0;
};

/// Median of a sample (the mean of the middle two for an even count; 0 for
/// an empty one).
double median(std::vector<double> v);

}  // namespace sodbench
