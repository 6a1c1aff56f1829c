#include "src/obs/metrics.h"

namespace nvmgc {

void MetricsRegistry::AddCounter(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, uint64_t value) {
  gauges_[name] = value;
}

void MetricsRegistry::RecordHistogram(const std::string& name, uint64_t value) {
  histograms_[name].Record(value);
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool MetricsRegistry::has_counter(const std::string& name) const {
  return counters_.find(name) != counters_.end();
}

const Histogram* MetricsRegistry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

HistogramSummary Summarize(const Histogram& h) {
  HistogramSummary s;
  if (h.count() == 0) {
    return s;
  }
  s.count = h.count();
  s.p50 = h.Percentile(50.0);
  s.p95 = h.Percentile(95.0);
  s.p99 = h.Percentile(99.0);
  s.max = h.max();
  s.mean = h.Mean();
  return s;
}

HistogramSummary MetricsRegistry::Summary(const std::string& name) const {
  const Histogram* h = histogram(name);
  return h == nullptr ? HistogramSummary{} : Summarize(*h);
}

std::map<std::string, HistogramSummary> MetricsRegistry::Summaries() const {
  std::map<std::string, HistogramSummary> out;
  for (const auto& [name, hist] : histograms_) {
    out[name] = Summarize(hist);
  }
  return out;
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted.
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    names.push_back(name);
  }
  return names;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& src, const std::string& prefix) {
  for (const auto& [name, value] : src.counters_) {
    AddCounter(prefix + name, value);
  }
  for (const auto& [name, value] : src.gauges_) {
    SetGauge(prefix + name, value);
  }
  for (const auto& [name, histogram] : src.histograms_) {
    histograms_[prefix + name].Merge(histogram);
  }
}

void RecordGcCycle(MetricsRegistry* registry, const GcCycleStats& cycle) {
  for (const CycleField& f : kCycleFields) {
    registry->AddCounter(f.name, cycle.*f.field);
  }
  registry->RecordHistogram("gc.pause_ns", cycle.pause_ns);
  registry->RecordHistogram("gc.read_phase_ns", cycle.read_phase_ns);
  registry->RecordHistogram("gc.writeback_phase_ns", cycle.writeback_phase_ns);
  const std::string kind_prefix =
      std::string("gc.pause.") + GcKindName(cycle.kind()) + ".";
  registry->RecordHistogram(kind_prefix + "pause_ns", cycle.pause_ns);
  registry->RecordHistogram(kind_prefix + "read_phase_ns", cycle.read_phase_ns);
  registry->RecordHistogram(kind_prefix + "writeback_phase_ns", cycle.writeback_phase_ns);
}

}  // namespace nvmgc
