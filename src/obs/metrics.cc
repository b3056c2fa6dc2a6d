#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/obs/json.h"

namespace snic::obs {

LatencyHistogram::LatencyHistogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), histogram_(lo, hi, buckets) {}

void LatencyHistogram::Record(double v) {
  if (std::isnan(v)) {
    return;  // NaN samples are dropped (see SampleSet::Add)
  }
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  histogram_.Add(v);
}

double LatencyHistogram::MinValue() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double LatencyHistogram::MaxValue() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double LatencyHistogram::MeanValue() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : sum_ / static_cast<double>(count_);
}

double LatencyHistogram::PercentileEstimate(double p) const {
  if (count_ == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  const size_t n = histogram_.NumBuckets();
  const double bucket_width = (hi_ - lo_) / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t in_bucket = histogram_.BucketCount(i);
    if (in_bucket == 0) {
      continue;
    }
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Linear interpolation within the bucket, clamped to observed extremes
      // (edge buckets absorb out-of-range samples).
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      const double value = histogram_.BucketLow(i) + frac * bucket_width;
      return std::clamp(value, min_, max_);
    }
    seen += in_bucket;
  }
  return max_;
}

bool LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      histogram_.NumBuckets() != other.histogram_.NumBuckets()) {
    return false;
  }
  if (other.count_ == 0) {
    return true;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  histogram_.MergeFrom(other.histogram_);
  return true;
}

void LatencyHistogram::Reset() {
  histogram_ = snic::Histogram(lo_, hi_, histogram_.NumBuckets());
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

MetricRegistry::Key MetricRegistry::MakeKey(std::string_view name,
                                            Labels labels) {
  std::sort(labels.begin(), labels.end());
  return Key{std::string(name), std::move(labels)};
}

Counter& MetricRegistry::GetCounter(std::string_view name, Labels labels) {
  MutexLock lock(&mu_);
  auto& slot = counters_[MakeKey(name, std::move(labels))];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  ++slot->holders_;
  return *slot;
}

Gauge& MetricRegistry::GetGauge(std::string_view name, Labels labels) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[MakeKey(name, std::move(labels))];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  ++slot->holders_;
  return *slot;
}

LatencyHistogram& MetricRegistry::GetHistogram(std::string_view name,
                                               Labels labels, double lo,
                                               double hi, size_t buckets) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[MakeKey(name, std::move(labels))];
  if (slot == nullptr) {
    slot = std::make_unique<LatencyHistogram>(lo, hi, buckets);
  }
  return *slot;
}

const Counter* MetricRegistry::FindCounter(std::string_view name,
                                           const Labels& labels) const {
  MutexLock lock(&mu_);
  const auto it = counters_.find(MakeKey(name, labels));
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricRegistry::FindGauge(std::string_view name,
                                       const Labels& labels) const {
  MutexLock lock(&mu_);
  const auto it = gauges_.find(MakeKey(name, labels));
  return it == gauges_.end() ? nullptr : it->second.get();
}

const LatencyHistogram* MetricRegistry::FindHistogram(
    std::string_view name, const Labels& labels) const {
  MutexLock lock(&mu_);
  const auto it = histograms_.find(MakeKey(name, labels));
  return it == histograms_.end() ? nullptr : it->second.get();
}

size_t MetricRegistry::NumSeries() const {
  MutexLock lock(&mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricRegistry::Release(std::initializer_list<Counter*> counters,
                             std::initializer_list<Gauge*> gauges) {
  // Only a series whose last hold goes costs a scan of its map.
  const auto release = [](auto& series, const auto& released) {
    for (auto* held : released) {
      if (held == nullptr || --held->holders_ > 0) {
        continue;
      }
      std::erase_if(series, [held](const auto& entry) {
        return entry.second.get() == held;
      });
    }
  };
  MutexLock lock(&mu_);
  release(counters_, counters);
  release(gauges_, gauges);
}

void MetricRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [key, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [key, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [key, histogram] : histograms_) {
    histogram->Reset();
  }
}

void MetricRegistry::MergeFrom(const MetricRegistry& other) {
  if (&other == this) {
    return;
  }
  // Lock order target-then-source is safe: `other` must be quiescent for
  // the duration of the call (class contract), so no thread can be running
  // the mirror-image merge that would invert the order.
  MutexLock lock(&mu_);
  MutexLock other_lock(&other.mu_);
  for (const auto& [key, counter] : other.counters_) {
    auto& slot = counters_[key];
    if (slot == nullptr) {
      slot = std::make_unique<Counter>();
    }
    slot->Inc(counter->value());
  }
  for (const auto& [key, gauge] : other.gauges_) {
    auto& slot = gauges_[key];
    if (slot == nullptr) {
      slot = std::make_unique<Gauge>();
    }
    slot->Set(gauge->value());
  }
  for (const auto& [key, histogram] : other.histograms_) {
    auto& slot = histograms_[key];
    if (slot == nullptr) {
      slot = std::make_unique<LatencyHistogram>(
          histogram->lo(), histogram->hi(),
          histogram->histogram().NumBuckets());
    }
    // Geometry clashes mean two shards (or a shard and the target) disagree
    // about a series — a bug in the sweep, not recoverable here.
    SNIC_CHECK(slot->MergeFrom(*histogram));
  }
}

namespace {

std::string LabelsSuffix(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += labels[i].first + "=" + labels[i].second;
  }
  out += "}";
  return out;
}

void AppendLabelsJson(std::string* out, const Labels& labels) {
  *out += "\"labels\":{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      *out += ",";
    }
    *out += json::Quote(labels[i].first) + ":" + json::Quote(labels[i].second);
  }
  *out += "}";
}

std::string FmtDouble(double v) {
  if (std::isnan(v)) {
    return "null";  // JSON has no NaN
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricRegistry::ExportText() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const auto& [key, counter] : counters_) {
    out += key.name + LabelsSuffix(key.labels) + " " +
           std::to_string(counter->value()) + "\n";
  }
  for (const auto& [key, gauge] : gauges_) {
    out += key.name + LabelsSuffix(key.labels) + " " +
           FmtDouble(gauge->value()) + "\n";
  }
  for (const auto& [key, histogram] : histograms_) {
    out += key.name + LabelsSuffix(key.labels) + " count=" +
           std::to_string(histogram->count()) +
           " mean=" + FmtDouble(histogram->MeanValue()) +
           " p50=" + FmtDouble(histogram->PercentileEstimate(50)) +
           " p99=" + FmtDouble(histogram->PercentileEstimate(99)) +
           " max=" + FmtDouble(histogram->MaxValue()) + "\n";
  }
  return out;
}

std::string MetricRegistry::ExportJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":" + json::Quote(key.name) + ",";
    AppendLabelsJson(&out, key.labels);
    out += ",\"value\":" + std::to_string(counter->value()) + "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":" + json::Quote(key.name) + ",";
    AppendLabelsJson(&out, key.labels);
    out += ",\"value\":" + FmtDouble(gauge->value()) + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, histogram] : histograms_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":" + json::Quote(key.name) + ",";
    AppendLabelsJson(&out, key.labels);
    out += ",\"count\":" + std::to_string(histogram->count());
    out += ",\"sum\":" + FmtDouble(histogram->sum());
    out += ",\"min\":" + FmtDouble(histogram->MinValue());
    out += ",\"max\":" + FmtDouble(histogram->MaxValue());
    out += ",\"mean\":" + FmtDouble(histogram->MeanValue());
    out += ",\"p50\":" + FmtDouble(histogram->PercentileEstimate(50));
    out += ",\"p99\":" + FmtDouble(histogram->PercentileEstimate(99));
    out += ",\"buckets\":[";
    const snic::Histogram& h = histogram->histogram();
    bool first_bucket = true;
    for (size_t i = 0; i < h.NumBuckets(); ++i) {
      if (h.BucketCount(i) == 0) {
        continue;  // sparse: empty buckets are implicit
      }
      if (!first_bucket) {
        out += ",";
      }
      first_bucket = false;
      out += "{\"lo\":" + FmtDouble(h.BucketLow(i)) +
             ",\"count\":" + std::to_string(h.BucketCount(i)) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Status MetricRegistry::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InvalidArgument("cannot open metrics output file: " + path);
  }
  const std::string body = ExportJson();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Internal("short write to metrics output file: " + path);
  }
  return OkStatus();
}

MetricRegistry& GlobalRegistry() {
  // Intentionally never destroyed: instrumented objects cache raw series
  // pointers and may outlive any static-destruction order (a destructor
  // running during exit teardown must still be able to Inc()). The leak is
  // one registry per process, reclaimed by the OS. snic_lint's
  // no-mutable-file-static rule names it (and the thread-local override
  // below) in tools/snic_lint/allowlist.txt, beside the two other mutable
  // process-wide statics (crypto's key-generation memo and mgmt's
  // expected-measurement memo), so any new ambient state fails the build.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

namespace {
thread_local MetricRegistry* tls_default_registry = nullptr;
}  // namespace

MetricRegistry& DefaultRegistry() {
  return tls_default_registry != nullptr ? *tls_default_registry
                                         : GlobalRegistry();
}

ScopedDefaultRegistry::ScopedDefaultRegistry(MetricRegistry* registry)
    : previous_(tls_default_registry) {
  tls_default_registry = registry;
}

ScopedDefaultRegistry::~ScopedDefaultRegistry() {
  tls_default_registry = previous_;
}

}  // namespace snic::obs
