#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "cache/cache.hpp"
#include "obs/trace.hpp"

namespace e2e {

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double clamped = std::clamp(pct, 0.0, 100.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string to_json(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<std::pair<std::int64_t, std::int64_t>> span_intervals(
    const std::string& name) {
  // Chrome-trace events read
  // {"name":"<name>","cat":"..","ph":"X","ts":<start>,"dur":<d>,...}.
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  const std::string json = l2l::obs::Tracer::global().chrome_json();
  const std::string key = "{\"name\":\"" + name + "\"";
  auto read_after = [&](std::size_t from, const char* field,
                        std::int64_t& value) {
    const auto at = json.find(field, from);
    if (at == std::string::npos) return std::string::npos;
    const char* begin = json.data() + at + std::char_traits<char>::length(field);
    const auto res = std::from_chars(begin, json.data() + json.size(), value);
    return static_cast<std::size_t>(res.ptr - json.data());
  };
  for (auto pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    std::int64_t ts = 0, dur = 0;
    const auto after_ts = read_after(pos, "\"ts\":", ts);
    if (after_ts == std::string::npos) break;
    if (read_after(after_ts, "\"dur\":", dur) == std::string::npos) break;
    out.emplace_back(ts, ts + dur);
  }
  return out;
}

std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t open_begin = 0, open_end = -1;
  for (const auto& [b, e] : intervals) {
    if (b > open_end) {
      if (open_end > open_begin) total += open_end - open_begin;
      open_begin = b;
      open_end = e;
    } else {
      open_end = std::max(open_end, e);
    }
  }
  if (open_end > open_begin) total += open_end - open_begin;
  return total;
}

std::int64_t counter(const l2l::obs::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double histogram_percentile(const l2l::obs::Snapshot& snap,
                            const std::string& name, double pct) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
  const auto& h = it->second;
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(pct / 100.0 * static_cast<double>(h.count))));
  std::int64_t seen = 0;
  for (int i = 0; i < l2l::obs::kHistogramBuckets; ++i) {
    seen += h.buckets[static_cast<std::size_t>(i)];
    if (seen >= rank)
      return static_cast<double>(l2l::obs::histogram_bucket_bound(i));
  }
  return 0.0;
}

double histogram_mean(const l2l::obs::Snapshot& snap, const std::string& name) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.sum) /
         static_cast<double>(it->second.count);
}

void cold_start() {
  auto& cache = l2l::cache::Cache::global();
  cache.set_disk_dir("");
  cache.clear();
  l2l::obs::Registry::global().reset();
  l2l::obs::Tracer::global().reset();
}

}  // namespace e2e
