#include "bench_util.h"

#include <malloc.h>

#include <fstream>

namespace perfbench {

double HeapInUseMb() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

namespace {

/// Window index of `t`, or -1 outside [start, start + span).
int WindowOf(Clock::time_point t, Clock::time_point start, double span_s,
             int windows) {
  double offset = std::chrono::duration<double>(t - start).count();
  if (offset < 0 || offset >= span_s) return -1;
  return std::min(windows - 1, static_cast<int>(offset / span_s * windows));
}

}  // namespace

double Samples::WindowedPercentile(double p, Clock::time_point start,
                                   double span_s, int windows) const {
  std::vector<Samples> buckets(windows);
  for (size_t i = 0; i < stamps_.size(); ++i) {
    int w = WindowOf(stamps_[i], start, span_s, windows);
    if (w >= 0) buckets[w].Add(values_[i]);
  }
  std::vector<double> per_window;
  for (const Samples& b : buckets) {
    if (!b.empty()) per_window.push_back(b.Percentile(p));
  }
  return MedianOf(per_window);
}

double WindowedRate(const std::vector<Clock::time_point>& stamps,
                    Clock::time_point start, double span_s, int windows) {
  std::vector<double> counts(windows, 0);
  for (Clock::time_point t : stamps) {
    int w = WindowOf(t, start, span_s, windows);
    if (w >= 0) counts[w] += 1;
  }
  for (double& c : counts) c /= span_s / windows;
  return MedianOf(counts);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(value.first) +
           ",\"unit\":" + JsonString(value.second) + "}";
  }
  return out + "}";
}

}  // namespace

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":" + JsonMetrics(metrics);
  out += ",\"report\":" + JsonMetrics(report);
  out += ",\"checks\":{";
  bool first = true;
  for (const auto& [name, count] : checks) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + std::to_string(count);
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [name, value] : info) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + JsonString(value);
  }
  out += "},\"errors\":[";
  first = true;
  for (const std::string& e : errors) {
    if (!first) out += ",";
    first = false;
    out += JsonString(e);
  }
  return out + "]}";
}

}  // namespace perfbench
