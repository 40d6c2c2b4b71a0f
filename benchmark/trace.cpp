#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace sodbench {

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

Tracer::Tracer(bool record, std::string workload, uint64_t seed)
    : record_(record),
      workload_(std::move(workload)),
      seed_(seed),
      t0_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
      .count();
}

Tracer::Span::Span(Tracer& t, std::string name, std::string app)
    : t_(t), name_(std::move(name)), app_(std::move(app)) {
  if (t_.record_) {
    id_ = t_.next_id_++;
    parent_ = t_.open_.empty() ? -1 : t_.open_.back();
    t_.open_.push_back(id_);
  }
  start_us_ = t_.now_us();
}

double Tracer::Span::end() {
  if (dur_us_ >= 0) return dur_us_;
  const double end_us = t_.now_us();
  dur_us_ = end_us - start_us_;
  if (t_.record_) {
    t_.open_.pop_back();
    t_.records_.push_back(
        Record{std::move(name_), std::move(app_), id_, parent_, start_us_, end_us});
  }
  return dur_us_;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::map<int, double> child_us;
  for (const Record& r : records_)
    if (r.parent >= 0) child_us[r.parent] += r.end_us - r.start_us;
  std::map<std::string, double> out;
  for (const Record& r : records_)
    out[r.name] += (r.end_us - r.start_us - child_us[r.id]) / 1000.0;
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::vector<const Record*> order;
  for (const Record& r : records_) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const Record* a, const Record* b) { return a->id < b->id; });
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":"
    << json_str("sodbench " + workload_) << "}}";
  for (const Record* r : order) {
    // Round both ends (rounding is monotone) so a child never pokes out of
    // its parent in the file.
    const std::string ts = num(r->start_us);
    const double dur = std::stod(num(r->end_us)) - std::stod(ts);
    f << ",\n{\"name\":" << json_str(r->name) << ",\"cat\":" << json_str(workload_)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << ts << ",\"dur\":" << num(dur)
      << ",\"args\":{\"id\":" << r->id
      << ",\"parent\":" << r->parent << ",\"workload\":" << json_str(workload_)
      << ",\"seed\":" << seed_ << ",\"app\":" << json_str(r->app) << "}}";
  }
  f << "\n],\"otherData\":{\"workload\":" << json_str(workload_) << ",\"seed\":" << seed_
    << ",\"self_ms\":{";
  bool first = true;
  for (const auto& [name, ms] : self_ms()) {
    f << (first ? "" : ",") << json_str(name) << ":" << num(ms);
    first = false;
  }
  f << "}}}\n";
  return static_cast<bool>(f);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace sodbench
